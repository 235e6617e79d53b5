"""Trace records.

A trace is an iterable of :class:`MemoryAccess` records ordered by
program order.  Accesses are word-granular: the paper's silent-store
detection compares the written word against the stored word, so every
record carries the data value involved.

Address convention
------------------
Addresses are byte addresses.  All accesses are aligned to the 8-byte
word (``WORD_BYTES``); the value of an access applies to that whole
word.  The functional-memory oracle and the cache both store data at
word granularity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import ValidationError

__all__ = [
    "AccessType",
    "MemoryAccess",
    "WORD_BYTES",
    "accesses_from_columns",
    "word_address",
]

WORD_BYTES = 8
"""Size of the data word carried by one access, in bytes."""


class AccessType(enum.Enum):
    """Kind of memory access issued by the processor."""

    READ = "R"
    WRITE = "W"

    @property
    def is_read(self) -> bool:
        return self is AccessType.READ

    @property
    def is_write(self) -> bool:
        return self is AccessType.WRITE

    @classmethod
    def from_letter(cls, letter: str) -> "AccessType":
        """Parse ``"R"``/``"W"`` (case-insensitive)."""
        normalized = letter.strip().upper()
        for member in cls:
            if member.value == normalized:
                return member
        raise ValidationError(f"unknown access type letter {letter!r}")


def word_address(byte_address: int) -> int:
    """Return the word index containing ``byte_address``."""
    return byte_address // WORD_BYTES


@dataclass(frozen=True)
class MemoryAccess:
    """One dynamic memory access.

    Attributes:
        icount: index of the instruction that issued the access, counting
            every executed instruction (memory and non-memory).  Used to
            express access counts as frequencies per instruction, as the
            paper's Figure 3 does.
        kind: read or write.
        address: byte address, word aligned.
        value: for writes, the word value being stored; for reads the
            field is unused by the simulator and conventionally 0.
    """

    icount: int
    kind: AccessType
    address: int
    value: int = 0

    def __post_init__(self) -> None:
        if self.icount < 0:
            raise ValidationError(f"icount must be non-negative, got {self.icount}")
        if self.address < 0:
            raise ValidationError(f"address must be non-negative, got {self.address}")
        if self.address % WORD_BYTES != 0:
            raise ValidationError(
                f"address must be {WORD_BYTES}-byte aligned, got {self.address:#x}"
            )

    @property
    def is_read(self) -> bool:
        return self.kind.is_read

    @property
    def is_write(self) -> bool:
        return self.kind.is_write

    @property
    def word(self) -> int:
        """Word index of this access."""
        return word_address(self.address)

    def describe(self) -> str:
        """One-line human readable rendering (used by examples)."""
        verb = "read " if self.is_read else "write"
        suffix = f" <- {self.value:#x}" if self.is_write else ""
        return f"[i={self.icount}] {verb} {self.address:#010x}{suffix}"


def accesses_from_columns(
    icounts: Iterable[int],
    kinds: Iterable[int],
    addresses: Iterable[int],
    values: Iterable[int],
) -> Iterator[MemoryAccess]:
    """Materialise records from parallel columns (``kind`` 1 = write).

    The columns are plain ints; NumPy callers pass ``column.tolist()``.
    """
    read, write = AccessType.READ, AccessType.WRITE
    for icount, kind, address, value in zip(icounts, kinds, addresses, values):
        yield MemoryAccess(
            icount=icount,
            kind=write if kind else read,
            address=address,
            value=value,
        )
