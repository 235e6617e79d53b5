"""Packed binary trace file format.

Layout: an 8-byte magic header followed by fixed-size records.  Two
on-disk variants share the record body::

    icount   u64 little-endian
    kind     u8  (0 = read, 1 = write)
    address  u64 little-endian
    value    u64 little-endian

``b"RPTRACE1"`` files carry the 25-byte body alone.  ``b"RPTRACE2"``
files (written with ``crc=True``) append a CRC-32 of the body to every
record (29 bytes total), so bit rot in cached campaign traces is
*detected* — a corrupt record raises :class:`TraceFormatError` naming
the record index and byte offset instead of replaying garbage into
hours of simulation.  The reader dispatches on the magic, so both
variants read through the same function.

The binary format is ~4x smaller and ~10x faster to parse than the text
format; campaign runs that cache traces on disk use it.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Union

from repro.errors import TraceFormatError, ValidationError
from repro.trace.record import AccessType, MemoryAccess

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cache.config import CacheGeometry
    from repro.engine.batch import AccessBatch

__all__ = [
    "read_binary_trace",
    "read_binary_trace_batches",
    "write_binary_trace",
    "MAGIC",
    "MAGIC_CRC",
]

MAGIC = b"RPTRACE1"
MAGIC_CRC = b"RPTRACE2"
_RECORD = struct.Struct("<QBQQ")
_CRC = struct.Struct("<I")

PathLike = Union[str, Path]


def _check_kind_byte(
    path: PathLike, kind_code: int, record_index: int, byte_offset: int
) -> None:
    """Reject kind bytes other than 0 (read) / 1 (write).

    The single source of truth for kind validation: the scalar and
    batched readers both call this, so a corrupt file raises
    :class:`TraceFormatError` with identical record-index/byte-offset
    text regardless of which reader hit it first.
    """
    if kind_code not in (0, 1):
        raise TraceFormatError(
            f"{path}: record #{record_index} at byte offset "
            f"{byte_offset} has bad kind byte {kind_code}"
        )


def write_binary_trace(
    path: PathLike, trace: Iterable[MemoryAccess], crc: bool = False
) -> int:
    """Write ``trace`` to ``path`` in binary form; returns the record count.

    ``crc=True`` selects the integrity-checked ``RPTRACE2`` variant
    with a per-record CRC-32 (4 bytes/record, ~16 % size cost).
    """
    count = 0
    with open(path, "wb") as handle:
        handle.write(MAGIC_CRC if crc else MAGIC)
        for access in trace:
            body = _RECORD.pack(
                access.icount,
                1 if access.is_write else 0,
                access.address,
                access.value,
            )
            if crc:
                body += _CRC.pack(zlib.crc32(body) & 0xFFFFFFFF)
            handle.write(body)
            count += 1
    return count


def read_binary_trace(path: PathLike) -> Iterator[MemoryAccess]:
    """Lazily parse a binary trace file (either variant).

    Raises :class:`TraceFormatError` — always naming the record index
    and byte offset — for truncated headers/records, unknown kind
    bytes and (``RPTRACE2``) CRC mismatches.
    """
    with open(path, "rb") as handle:
        header = handle.read(len(MAGIC))
        if len(header) != len(MAGIC):
            raise TraceFormatError(
                f"{path}: truncated header ({len(header)} of "
                f"{len(MAGIC)} bytes)"
            )
        if header == MAGIC:
            with_crc = False
        elif header == MAGIC_CRC:
            with_crc = True
        else:
            raise TraceFormatError(
                f"{path}: bad magic {header!r}, expected {MAGIC!r} "
                f"or {MAGIC_CRC!r}"
            )
        record_size = _RECORD.size + (_CRC.size if with_crc else 0)
        record_index = 0
        offset = len(MAGIC)
        while True:
            blob = handle.read(record_size)
            if not blob:
                return
            if len(blob) != record_size:
                raise TraceFormatError(
                    f"{path}: truncated record #{record_index} at byte "
                    f"offset {offset} ({len(blob)} of {record_size} bytes)"
                )
            body = blob[: _RECORD.size]
            if with_crc:
                (stored_crc,) = _CRC.unpack(blob[_RECORD.size :])
                computed_crc = zlib.crc32(body) & 0xFFFFFFFF
                if stored_crc != computed_crc:
                    raise TraceFormatError(
                        f"{path}: CRC mismatch in record #{record_index} "
                        f"at byte offset {offset}: stored 0x{stored_crc:08x}, "
                        f"computed 0x{computed_crc:08x}"
                    )
            icount, kind_code, address, value = _RECORD.unpack(body)
            _check_kind_byte(path, kind_code, record_index, offset)
            kind = AccessType.WRITE if kind_code else AccessType.READ
            yield MemoryAccess(icount=icount, kind=kind, address=address, value=value)
            record_index += 1
            offset += record_size


def read_binary_trace_batches(
    path: PathLike,
    geometry: "CacheGeometry",
    batch_size: Optional[int] = None,
) -> Iterator["AccessBatch"]:
    """Parse a binary trace straight into struct-of-arrays batches.

    The batch-decoding counterpart of :func:`read_binary_trace`: whole
    chunks of records are unpacked at once and the address fields are
    pre-split with ``geometry``'s cached shift/mask codec, skipping the
    per-record :class:`MemoryAccess` construction entirely.  Raises the
    same :class:`TraceFormatError`\\ s (bad magic, truncation, bad kind
    byte, CRC mismatch) with the same record-index/byte-offset naming.
    """
    from repro.engine.batch import AccessBatch, DEFAULT_BATCH_SIZE

    size = batch_size if batch_size is not None else DEFAULT_BATCH_SIZE
    if size <= 0:
        raise ValidationError(f"batch_size must be positive, got {size}")
    codec = geometry.codec
    index_shift = codec.index_shift
    index_mask = codec.index_mask
    tag_shift = codec.tag_shift
    tag_mask = codec.tag_mask
    offset_mask = codec.offset_mask
    word_shift = codec.word_shift

    with open(path, "rb") as handle:
        header = handle.read(len(MAGIC))
        if len(header) != len(MAGIC):
            raise TraceFormatError(
                f"{path}: truncated header ({len(header)} of "
                f"{len(MAGIC)} bytes)"
            )
        if header == MAGIC:
            with_crc = False
        elif header == MAGIC_CRC:
            with_crc = True
        else:
            raise TraceFormatError(
                f"{path}: bad magic {header!r}, expected {MAGIC!r} "
                f"or {MAGIC_CRC!r}"
            )
        record_size = _RECORD.size + (_CRC.size if with_crc else 0)
        record_index = 0
        offset = len(MAGIC)
        while True:
            blob = handle.read(record_size * size)
            if not blob:
                return
            if len(blob) % record_size:
                whole = len(blob) // record_size
                raise TraceFormatError(
                    f"{path}: truncated record #{record_index + whole} at "
                    f"byte offset {offset + whole * record_size} "
                    f"({len(blob) - whole * record_size} of {record_size} "
                    f"bytes)"
                )
            batch = AccessBatch(geometry=geometry)
            icounts = batch.icounts
            kinds = batch.kinds
            addresses = batch.addresses
            values = batch.values
            set_indices = batch.set_indices
            tags = batch.tags
            word_offsets = batch.word_offsets
            if with_crc:
                # Single pass: each record body is sliced exactly once,
                # CRC-verified, and collected for one bulk unpack.  All
                # CRC checks for the chunk still run before any kind
                # check, preserving which error a doubly-corrupt chunk
                # reports first.
                body_parts = []
                for base in range(0, len(blob), record_size):
                    body = blob[base : base + _RECORD.size]
                    (stored_crc,) = _CRC.unpack(
                        blob[base + _RECORD.size : base + record_size]
                    )
                    computed_crc = zlib.crc32(body) & 0xFFFFFFFF
                    if stored_crc != computed_crc:
                        bad = record_index + base // record_size
                        raise TraceFormatError(
                            f"{path}: CRC mismatch in record #{bad} "
                            f"at byte offset {offset + base}: stored "
                            f"0x{stored_crc:08x}, computed "
                            f"0x{computed_crc:08x}"
                        )
                    body_parts.append(body)
                records = _RECORD.iter_unpack(b"".join(body_parts))
            else:
                records = _RECORD.iter_unpack(blob)
            for icount, kind_code, address, value in records:
                _check_kind_byte(
                    path,
                    kind_code,
                    record_index + len(icounts),
                    offset + len(icounts) * record_size,
                )
                icounts.append(icount)
                kinds.append(kind_code)
                addresses.append(address)
                values.append(value)
                set_indices.append((address >> index_shift) & index_mask)
                tags.append((address >> tag_shift) & tag_mask)
                word_offsets.append((address & offset_mask) >> word_shift)
            record_index += len(icounts)
            offset += len(blob)
            yield batch
