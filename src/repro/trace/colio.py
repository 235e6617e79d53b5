"""Memory-mapped columnar trace format (``RPCOL1``).

The third trace format, built for the columnar execution engine
(:mod:`repro.engine.columnar`) and for multiprocess campaigns: a
``RPCOL1`` file stores the trace as seven contiguous *column* arrays
instead of interleaved records, so a reader can hand the engine
zero-copy NumPy views straight over an ``mmap`` — no per-record
parsing, and worker processes mapping the same file share one page
cache copy of the trace with no per-worker deserialization.

Layout (all integers little-endian)::

    magic        8 bytes   b"RPCOL1\\x00\\x00"
    count        u64       number of records (n)
    size_bytes   u64       geometry the address columns were split with
    assoc        u32
    block_bytes  u32
    address_bits u32
    reserved     u32       zero
    icount       u64 * n
    kind         u8  * n   (zero-padded to an 8-byte boundary)
    address      u64 * n
    value        u64 * n
    set_index    u64 * n   pre-split with ``geometry.codec``
    tag          u64 * n
    word_offset  u64 * n
    crc          u32       CRC-32 of every byte before it

Each column starts 8-byte aligned, so ``np.frombuffer`` views are
naturally aligned.  The ``set``/``tag``/``word`` columns are split at
*write* time with the geometry codec; opening the file under a
different geometry re-splits the address column in bulk (vectorized
shift/mask) instead of failing.

The whole-file CRC means corruption is detected once at ``open`` time
— a classified :class:`TraceFormatError` — rather than surfacing as
garbage mid-campaign.
"""

from __future__ import annotations

import mmap
import struct
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator, List, Optional, Union

import numpy as np

from repro.errors import TraceFormatError
from repro.trace.record import MemoryAccess, accesses_from_columns

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cache.config import CacheGeometry
    from repro.engine.batch import AccessBatch
    from repro.engine.columnar import ColumnarChunk

__all__ = [
    "COLUMNAR_MAGIC",
    "ColumnarTrace",
    "write_columnar_trace",
    "convert_trace_to_columnar",
    "open_columnar_trace",
]

COLUMNAR_MAGIC = b"RPCOL1\x00\x00"
_HEADER = struct.Struct("<8sQQIIII")
_CRC = struct.Struct("<I")
_PACK_CHUNK = 16384

PathLike = Union[str, Path]


def _pad8(size: int) -> int:
    return (size + 7) & ~7


class _ChecksumWriter:
    """File writer that folds every byte into a running CRC-32."""

    __slots__ = ("_handle", "crc")

    def __init__(self, handle: Any) -> None:
        self._handle = handle
        self.crc = 0

    def write(self, data: bytes) -> None:
        self._handle.write(data)
        self.crc = zlib.crc32(data, self.crc)


def _write_u64_column(writer: _ChecksumWriter, values: List[int]) -> None:
    for start in range(0, len(values), _PACK_CHUNK):
        chunk = values[start : start + _PACK_CHUNK]
        writer.write(struct.pack(f"<{len(chunk)}Q", *chunk))


def _write_columns(
    path: PathLike,
    geometry: "CacheGeometry",
    icounts: List[int],
    kinds: List[int],
    addresses: List[int],
    values: List[int],
    set_indices: List[int],
    tags: List[int],
    word_offsets: List[int],
) -> int:
    count = len(icounts)
    with open(path, "wb") as handle:
        writer = _ChecksumWriter(handle)
        writer.write(
            _HEADER.pack(
                COLUMNAR_MAGIC,
                count,
                geometry.size_bytes,
                geometry.associativity,
                geometry.block_bytes,
                geometry.address_bits,
                0,
            )
        )
        _write_u64_column(writer, icounts)
        writer.write(bytes(kinds))
        writer.write(b"\x00" * (_pad8(count) - count))
        _write_u64_column(writer, addresses)
        _write_u64_column(writer, values)
        _write_u64_column(writer, set_indices)
        _write_u64_column(writer, tags)
        _write_u64_column(writer, word_offsets)
        handle.write(_CRC.pack(writer.crc & 0xFFFFFFFF))
    return count


def write_columnar_trace(
    path: PathLike, trace: Iterable[MemoryAccess], geometry: "CacheGeometry"
) -> int:
    """Write ``trace`` to ``path`` as ``RPCOL1``; returns the record count.

    Address fields are pre-split with ``geometry.codec`` at write time,
    exactly as the batch decoders split them.  Column storage means the
    record count heads the file, so the trace is materialised as column
    lists before writing (fine at campaign scale — columns of plain
    ints, not record objects).
    """
    codec = geometry.codec
    index_shift = codec.index_shift
    index_mask = codec.index_mask
    tag_shift = codec.tag_shift
    tag_mask = codec.tag_mask
    offset_mask = codec.offset_mask
    word_shift = codec.word_shift
    icounts: List[int] = []
    kinds: List[int] = []
    addresses: List[int] = []
    values: List[int] = []
    set_indices: List[int] = []
    tags: List[int] = []
    word_offsets: List[int] = []
    for access in trace:
        address = access.address
        icounts.append(access.icount)
        kinds.append(1 if access.is_write else 0)
        addresses.append(address)
        values.append(access.value)
        set_indices.append((address >> index_shift) & index_mask)
        tags.append((address >> tag_shift) & tag_mask)
        word_offsets.append((address & offset_mask) >> word_shift)
    return _write_columns(
        path, geometry, icounts, kinds, addresses, values,
        set_indices, tags, word_offsets,
    )


def convert_trace_to_columnar(
    source: PathLike, destination: PathLike, geometry: "CacheGeometry"
) -> int:
    """Convert an ``RPTRACE1``/``RPTRACE2`` or text trace to ``RPCOL1``.

    Dispatches on the source file's magic bytes; any corruption the
    source readers detect (CRC mismatch, truncation, bad kind byte)
    propagates unchanged, so a corrupt binary trace never silently
    becomes a "clean" columnar one.  Returns the record count.
    """
    from repro.trace.binio import MAGIC, MAGIC_CRC, read_binary_trace_batches
    from repro.trace.textio import read_text_trace_batches

    with open(source, "rb") as handle:
        head = handle.read(len(MAGIC))
    if head in (MAGIC, MAGIC_CRC):
        batches = read_binary_trace_batches(source, geometry)
    else:
        batches = read_text_trace_batches(source, geometry)
    icounts: List[int] = []
    kinds: List[int] = []
    addresses: List[int] = []
    values: List[int] = []
    set_indices: List[int] = []
    tags: List[int] = []
    word_offsets: List[int] = []
    for batch in batches:
        icounts.extend(batch.icounts)
        kinds.extend(batch.kinds)
        addresses.extend(batch.addresses)
        values.extend(batch.values)
        set_indices.extend(batch.set_indices)
        tags.extend(batch.tags)
        word_offsets.extend(batch.word_offsets)
    return _write_columns(
        destination, geometry, icounts, kinds, addresses, values,
        set_indices, tags, word_offsets,
    )


class ColumnarTrace:
    """An open, CRC-verified ``RPCOL1`` mapping with zero-copy columns.

    Column attributes (``icounts``/``kinds``/``addresses``/``values``/
    ``set_indices``/``tags``/``word_offsets``) are NumPy views directly
    over the ``mmap`` — nothing is copied until a consumer asks for
    Python objects.  Use :func:`open_columnar_trace` to construct.
    """

    def __init__(self, path: PathLike, geometry: Optional["CacheGeometry"] = None):
        from repro.cache.config import CacheGeometry

        self.path = Path(path)
        self._handle = open(path, "rb")
        try:
            self._mmap = mmap.mmap(self._handle.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError:
            self._handle.close()
            raise TraceFormatError(f"{path}: empty columnar trace file") from None
        try:
            buffer = self._mmap
            if len(buffer) < _HEADER.size + _CRC.size:
                raise TraceFormatError(
                    f"{path}: truncated columnar header "
                    f"({len(buffer)} of {_HEADER.size + _CRC.size} bytes)"
                )
            (magic, count, size_bytes, assoc, block, addr_bits, _reserved) = (
                _HEADER.unpack_from(buffer, 0)
            )
            if magic != COLUMNAR_MAGIC:
                raise TraceFormatError(
                    f"{path}: bad magic {bytes(magic)!r}, "
                    f"expected {COLUMNAR_MAGIC!r}"
                )
            expected = _HEADER.size + 48 * count + _pad8(count) + _CRC.size
            if len(buffer) != expected:
                raise TraceFormatError(
                    f"{path}: truncated columnar trace: {len(buffer)} of "
                    f"{expected} bytes for {count} record(s)"
                )
            (stored_crc,) = _CRC.unpack_from(buffer, expected - _CRC.size)
            # A scoped memoryview keeps the CRC pass copy-free without
            # pinning the mapping open past this constructor.
            with memoryview(buffer) as view:
                computed_crc = (
                    zlib.crc32(view[: expected - _CRC.size]) & 0xFFFFFFFF
                )
            if stored_crc != computed_crc:
                raise TraceFormatError(
                    f"{path}: whole-file CRC mismatch: stored "
                    f"0x{stored_crc:08x}, computed 0x{computed_crc:08x}"
                )
            self.stored_geometry = CacheGeometry(
                size_bytes=size_bytes,
                associativity=assoc,
                block_bytes=block,
                address_bits=addr_bits,
            )
            self._count = count
            offset = _HEADER.size
            self.icounts = np.frombuffer(buffer, "<u8", count, offset)
            offset += 8 * count
            self.kinds = np.frombuffer(buffer, "<u1", count, offset)
            offset += _pad8(count)
            self.addresses = np.frombuffer(buffer, "<u8", count, offset)
            offset += 8 * count
            self.values = np.frombuffer(buffer, "<u8", count, offset)
            offset += 8 * count
            # Signed views (zero-copy): set/tag/word always fit i64, and
            # the engine compares them against signed slot-array tags.
            self.set_indices = np.frombuffer(buffer, "<i8", count, offset)
            offset += 8 * count
            self.tags = np.frombuffer(buffer, "<i8", count, offset)
            offset += 8 * count
            self.word_offsets = np.frombuffer(buffer, "<i8", count, offset)
            self.geometry = (
                geometry if geometry is not None else self.stored_geometry
            )
            if self.geometry != self.stored_geometry:
                self._resplit(self.geometry)
        except Exception:
            self.close()
            raise

    def _resplit(self, geometry: "CacheGeometry") -> None:
        """Bulk-resplit the address column under a different geometry."""
        from repro.engine.columnar import split_addresses

        self.set_indices, self.tags, self.word_offsets = split_addresses(
            self.addresses, geometry
        )

    def __len__(self) -> int:
        return self._count

    def __enter__(self) -> "ColumnarTrace":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Release the column views and the underlying mapping."""
        for name in (
            "icounts", "kinds", "addresses", "values",
            "set_indices", "tags", "word_offsets",
        ):
            if hasattr(self, name):
                delattr(self, name)
        if hasattr(self, "_mmap"):
            try:
                self._mmap.close()
            except BufferError:
                # A zero-copy view escaped this scope; the OS mapping
                # stays valid until the last view dies, at which point
                # the mmap object is garbage-collected normally.  The
                # alternative — raising from close()/__exit__ — would
                # punish exactly the zero-copy usage the format exists
                # for.
                pass
        self._handle.close()

    def chunks(
        self, batch_size: Optional[int] = None
    ) -> Iterator["ColumnarChunk"]:
        """Zero-copy :class:`ColumnarChunk` slices for the columnar engine."""
        from repro.engine.columnar import ColumnarChunk

        whole = ColumnarChunk(
            geometry=self.geometry,
            icounts=self.icounts,
            kinds=self.kinds,
            addresses=self.addresses,
            values=self.values,
            set_indices=self.set_indices,
            tags=self.tags,
            word_offsets=self.word_offsets,
        )
        return whole.slices(batch_size=batch_size)

    def batches(
        self, batch_size: Optional[int] = None
    ) -> Iterator["AccessBatch"]:
        """Decode into list-based :class:`AccessBatch` chunks."""
        for chunk in self.chunks(batch_size):
            yield chunk.to_access_batch()

    def accesses(self) -> Iterator[MemoryAccess]:
        """Iterate the mapping as scalar :class:`MemoryAccess` records."""
        return accesses_from_columns(
            self.icounts.tolist(),
            self.kinds.tolist(),
            self.addresses.tolist(),
            self.values.tolist(),
        )


def open_columnar_trace(
    path: PathLike, geometry: Optional["CacheGeometry"] = None
) -> ColumnarTrace:
    """Open and CRC-verify an ``RPCOL1`` file as a :class:`ColumnarTrace`.

    With ``geometry`` omitted, the geometry the file was split with is
    used; passing a different one re-splits the address column in bulk.
    Raises :class:`TraceFormatError` for truncated/corrupt files.
    """
    return ColumnarTrace(path, geometry)
