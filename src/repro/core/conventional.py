"""Conventional 6T-style controller (no column-selection issue).

In a 6T array, half-selected cells during a write are biased as reads
and survive, so a write activates the row once and drives only the
selected columns.  This is the pre-RMW reference point used by the
paper's ">32 % access-frequency increase" claim for RMW.
"""

from __future__ import annotations

from repro.cache.cache import AccessResult
from repro.core.controller import CacheController
from repro.core.outcomes import AccessOutcome, ServedFrom
from repro.trace.record import MemoryAccess

__all__ = ["ConventionalController"]


class ConventionalController(CacheController):
    """One row activation per request, read or write."""

    name = "conventional"
    _fast_path_name = "conventional"

    def _handle_read(
        self, access: MemoryAccess, result: AccessResult
    ) -> AccessOutcome:
        self.events.record_row_read(words_routed=1)
        value = self.cache.read_word(
            result.set_index, result.way, result.word_offset
        )
        return AccessOutcome(
            value=value,
            cache_hit=result.hit,
            served_from=ServedFrom.ARRAY,
            array_reads=1,
        )

    def _handle_write(
        self, access: MemoryAccess, result: AccessResult
    ) -> AccessOutcome:
        self.events.record_row_write(words_driven=1)
        self.cache.write_word(
            result.set_index, result.way, result.word_offset, access.value
        )
        return AccessOutcome(
            value=access.value,
            cache_hit=result.hit,
            served_from=ServedFrom.ARRAY,
            array_writes=1,
        )
