"""Struct-of-arrays access batches.

The scalar hot path pays four layers of per-access Python calls (trace
decode → address split → residency → controller template methods).  An
:class:`AccessBatch` amortises the first two: a chunk of N records is
decoded once into parallel lists, with the set/tag/word address fields
pre-split using the shift/mask constants cached on
:class:`repro.cache.config.CacheGeometry` (``geometry.codec``).  The
columnar engine lifts each batch into NumPy arrays
(:meth:`repro.engine.columnar.ColumnarChunk.from_access_batch`);
:meth:`CacheController.process_batch` replays one record by record.

Invariants
----------
* Batching never changes results: every engine that consumes a batch
  is bit-identical to replaying the same records through ``process()``
  one at a time (enforced by ``tests/engine/test_differential.py``).
* ``kinds`` uses ``0`` for reads and ``1`` for writes — the same
  encoding as the binary trace format.
* A batch is tied to the geometry whose codec decoded it; feeding it to
  a controller with a different geometry is a usage error (checked by
  ``process_batch`` and ``process_chunk``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional

from repro.cache.config import CacheGeometry
from repro.trace.record import AccessType, MemoryAccess
from repro.errors import ValidationError

__all__ = ["AccessBatch", "DEFAULT_BATCH_SIZE", "iter_batches"]

DEFAULT_BATCH_SIZE = 4096
"""Default records per batch.

Large enough to amortise per-batch overhead (local rebinds, aggregate
flushes), small enough that a batch of parallel int lists stays cache-
resident and interactive runs keep their progress granularity.
"""

_READ = AccessType.READ
_WRITE = AccessType.WRITE


@dataclass
class AccessBatch:
    """One chunk of a trace in struct-of-arrays form.

    All lists have identical length.  ``set_indices``/``tags``/
    ``word_offsets`` are the pre-split address fields under the batch's
    geometry codec.
    """

    geometry: CacheGeometry
    icounts: List[int] = field(default_factory=list)
    kinds: List[int] = field(default_factory=list)
    addresses: List[int] = field(default_factory=list)
    values: List[int] = field(default_factory=list)
    set_indices: List[int] = field(default_factory=list)
    tags: List[int] = field(default_factory=list)
    word_offsets: List[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.icounts)

    def access(self, i: int) -> MemoryAccess:
        """Reconstruct record ``i`` as a scalar :class:`MemoryAccess`."""
        return MemoryAccess(
            icount=self.icounts[i],
            kind=_WRITE if self.kinds[i] else _READ,
            address=self.addresses[i],
            value=self.values[i],
        )

    def accesses(self) -> Iterator[MemoryAccess]:
        """Iterate the batch as scalar records (the fallback path)."""
        for i in range(len(self.icounts)):
            yield self.access(i)

    @classmethod
    def from_accesses(
        cls, accesses: Iterable[MemoryAccess], geometry: CacheGeometry
    ) -> "AccessBatch":
        """Decode already-parsed records into SoA form."""
        batch = cls(geometry=geometry)
        append = _BatchAppender(batch)
        for access in accesses:
            append(
                access.icount,
                1 if access.kind is _WRITE else 0,
                access.address,
                access.value,
            )
        return batch


class _BatchAppender:
    """Bound-method bundle appending one decoded record to a batch.

    Pulls the codec constants and the seven ``list.append`` bound
    methods into one callable so decoders (here and in
    ``repro.trace.binio``/``textio``) share the exact same split logic.
    """

    __slots__ = (
        "_icounts", "_kinds", "_addresses", "_values",
        "_sets", "_tags", "_words",
        "_index_shift", "_index_mask", "_tag_shift", "_tag_mask",
        "_offset_mask", "_word_shift",
    )

    def __init__(self, batch: AccessBatch) -> None:
        self._icounts = batch.icounts.append
        self._kinds = batch.kinds.append
        self._addresses = batch.addresses.append
        self._values = batch.values.append
        self._sets = batch.set_indices.append
        self._tags = batch.tags.append
        self._words = batch.word_offsets.append
        codec = batch.geometry.codec
        self._index_shift = codec.index_shift
        self._index_mask = codec.index_mask
        self._tag_shift = codec.tag_shift
        self._tag_mask = codec.tag_mask
        self._offset_mask = codec.offset_mask
        self._word_shift = codec.word_shift

    def __call__(self, icount: int, kind: int, address: int, value: int) -> None:
        self._icounts(icount)
        self._kinds(kind)
        self._addresses(address)
        self._values(value)
        self._sets((address >> self._index_shift) & self._index_mask)
        self._tags((address >> self._tag_shift) & self._tag_mask)
        self._words((address & self._offset_mask) >> self._word_shift)


def iter_batches(
    trace: Iterable[MemoryAccess],
    geometry: CacheGeometry,
    batch_size: Optional[int] = None,
) -> Iterator[AccessBatch]:
    """Chunk a scalar trace into :class:`AccessBatch` objects.

    Streaming: holds at most one batch of records at a time, so long
    campaign traces never materialise in memory.
    """
    size = batch_size if batch_size is not None else DEFAULT_BATCH_SIZE
    if size <= 0:
        raise ValidationError(f"batch_size must be positive, got {size}")
    batch = AccessBatch(geometry=geometry)
    append = _BatchAppender(batch)
    count = 0
    for access in trace:
        append(
            access.icount,
            1 if access.kind is _WRITE else 0,
            access.address,
            access.value,
        )
        count += 1
        if count == size:
            yield batch
            batch = AccessBatch(geometry=geometry)
            append = _BatchAppender(batch)
            count = 0
    if count:
        yield batch
