"""RPR122 negatives: a re-stated gate, and a super() delegation."""

from repro.core.controller import CacheController


class GatedController(CacheController):
    name = "gated"

    def _handle_read(self, access, result):
        return None

    def _handle_write(self, access, result):
        return None

    def process_batch(self, batch) -> int:
        if (
            self.cache.engine_fast_ok
            and not self._obs
            and self._invariant_checker is None
        ):
            self._replay_fast(batch)
        else:
            for access in batch.accesses():
                self.process(access)
        return len(batch)


class DelegatingController(CacheController):
    name = "delegating"

    def _handle_read(self, access, result):
        return None

    def _handle_write(self, access, result):
        return None

    def process_batch(self, batch) -> int:
        self.prepare(batch)
        return super().process_batch(batch)

    def prepare(self, batch) -> None:
        pass
