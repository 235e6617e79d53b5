"""Write Grouping + Read Bypassing (WG+RB) — the paper's Section 4.2.

Adds an output multiplexer (the RB signal in Figure 7) that routes read
data from the Set-Buffer instead of the RBLs when the read hits the
Tag-Buffer.  Such reads cost no array access *and* no premature
write-back — the two effects that make WG+RB strictly better than WG,
especially on read-read-heavy benchmarks like gamess and cactusADM.
"""

from __future__ import annotations

from repro.cache.cache import AccessResult
from repro.core.outcomes import AccessOutcome, ServedFrom
from repro.core.write_grouping import WriteGroupingController
from repro.trace.record import MemoryAccess

__all__ = ["WGRBController"]


class WGRBController(WriteGroupingController):
    """WG plus Set-Buffer read bypassing."""

    name = "wg_rb"
    _fast_path_name = "wg_rb"
    _rb_bypass = True  # the columnar WG kernel serves probe-hit reads
    # from the Set-Buffer, mirroring _handle_read below

    def _handle_read(
        self, access: MemoryAccess, result: AccessResult
    ) -> AccessOutcome:
        tag = self.cache.mapper.tag(access.address)
        entry = self._entry_for_set(result.set_index)
        if entry is not None and entry.tag_buffer.probe(result.set_index, tag):
            # Bypass: serve from the Set-Buffer; no write-back needed
            # because the cache is not consulted at all.
            self._touch(entry)
            value = entry.set_buffer.read(result.way, result.word_offset)
            self.events.record_set_buffer_read(1)
            self.counts.bypassed_reads += 1
            if self._obs:
                self._emit_point("read_bypass", set_index=result.set_index)
            return AccessOutcome(
                value=value,
                cache_hit=result.hit,
                served_from=ServedFrom.SET_BUFFER,
                bypassed=True,
            )
        return super()._handle_read(access, result)
