"""Synthetic trace generator.

Turns a :class:`WorkloadProfile` into a trace.  The generator's native
output is four parallel NumPy columns (:class:`TraceColumns`: icount,
kind, address, value), which campaigns hand straight to the columnar
engine; :func:`generate_trace` materialises the same records as
:class:`MemoryAccess` objects.  The generation loop:

1. pick a stream (weighted) and a geometric burst length
   (``burst_mean``) — within a burst all accesses come from that stream;
2. for each access choose read/write: repeat the previous kind with
   probability ``type_persistence``, otherwise redraw Bernoulli with the
   stream-biased write share (the stationary write share stays at the
   profile's value for unit bias);
3. advance the instruction counter by a geometric gap whose mean makes
   memory accesses land at ``memory_fraction`` per instruction;
4. for writes, draw the value from the :class:`ValueModel`, which
   produces silent stores at the calibrated rate.

Determinism: everything derives from ``(profile.name, seed)`` so two
runs — or two controllers replaying the same materialised trace — see
identical streams.  There is one draw loop
(:meth:`SyntheticTraceGenerator.generate_columns`); every other output
form is derived from its columns.
"""

from __future__ import annotations

from array import array
from itertools import accumulate
from typing import Any, Iterator, List, NamedTuple

import numpy as np

from repro.trace.record import MemoryAccess, accesses_from_columns
from repro.utils.rng import DeterministicRNG
from repro.utils.validation import check_positive
from repro.workload.patterns import AddressPattern, make_pattern
from repro.workload.profile import WorkloadProfile
from repro.workload.values import ValueModel

__all__ = [
    "SyntheticTraceGenerator",
    "TraceColumns",
    "generate_columns",
    "generate_trace",
]

# Streams get disjoint 1 GiB-aligned base regions so their footprints
# never overlap (48-bit physical space leaves plenty of room).
_REGION_SPACING = 1 << 30


class TraceColumns(NamedTuple):
    """A trace as four parallel NumPy columns.

    ``icounts``/``addresses``/``values`` are u64 and ``kinds`` is u8
    (``1`` for writes, ``0`` for reads — the binary trace encoding).
    The field order matches
    :meth:`repro.engine.columnar.ColumnarChunk.from_columns`.
    """

    icounts: Any
    kinds: Any
    addresses: Any
    values: Any

    def accesses(self) -> Iterator[MemoryAccess]:
        """Iterate the columns as :class:`MemoryAccess` records."""
        return accesses_from_columns(
            self.icounts.tolist(),
            self.kinds.tolist(),
            self.addresses.tolist(),
            self.values.tolist(),
        )


class SyntheticTraceGenerator:
    """Stateful generator for one profile."""

    def __init__(self, profile: WorkloadProfile, seed: int = 2012) -> None:
        self.profile = profile
        root = DeterministicRNG(seed).fork("workload", profile.name)
        self._stream_rng = root.fork("streams")
        self._type_rng = root.fork("types")
        self._gap_rng = root.fork("gaps")
        self._address_rng = root.fork("addresses")
        self._value_model = ValueModel(
            profile.silent_fraction, root.fork("values")
        )
        self._patterns: List[AddressPattern] = []
        self._weights: List[float] = []
        self._write_shares: List[float] = []
        base_write_share = profile.write_share
        for index, spec in enumerate(profile.streams):
            kwargs = {}
            if spec.kind == "strided":
                kwargs["stride_words"] = spec.stride_words
            elif spec.kind == "hotspot":
                kwargs["hot_words"] = spec.hot_words
                kwargs["hot_probability"] = spec.hot_probability
            pattern = make_pattern(
                spec.kind,
                base_address=(index + 1) * _REGION_SPACING,
                region_words=spec.region_words,
                **kwargs,
            )
            self._patterns.append(pattern)
            self._weights.append(spec.weight)
            self._write_shares.append(
                min(1.0, base_write_share * spec.write_bias)
            )
        self._icount = 0
        self._gap_mean = 1.0 / profile.memory_fraction

    @property
    def value_model(self) -> ValueModel:
        return self._value_model

    def generate_columns(self, num_accesses: int) -> TraceColumns:
        """Draw the next ``num_accesses`` records as :class:`TraceColumns`.

        Columns accumulate in :mod:`array` buffers (raw machine words,
        no per-record int objects) and become NumPy views without a
        copy.
        """
        check_positive("num_accesses", num_accesses)
        profile = self.profile
        stream_indices = list(range(len(self._patterns)))
        cum_weights = list(accumulate(self._weights))
        choose_stream = self._stream_rng.cumulative_choice
        burst = self._stream_rng.geometric
        gap = self._gap_rng.geometric
        maybe = self._type_rng.maybe
        address_rng = self._address_rng
        value_for_write = self._value_model.value_for_write
        next_addresses = [pattern.next_address for pattern in self._patterns]
        burst_mean = profile.burst_mean
        persistence = profile.type_persistence
        gap_mean = self._gap_mean
        icounts = array("Q")
        kinds = array("B")
        addresses = array("Q")
        values = array("Q")
        append_icount = icounts.append
        append_kind = kinds.append
        append_address = addresses.append
        append_value = values.append
        icount = self._icount
        remaining = num_accesses
        while remaining:
            stream_index = choose_stream(stream_indices, cum_weights)
            next_address = next_addresses[stream_index]
            write_share = self._write_shares[stream_index]
            length = min(burst(burst_mean), remaining)
            remaining -= length
            kind = -1  # no previous access in this burst
            for _ in range(length):
                # Repeat the previous kind with probability
                # ``persistence``, else redraw with the stream's share.
                if kind < 0 or not maybe(persistence):
                    kind = 1 if maybe(write_share) else 0
                address = next_address(address_rng)
                icount += gap(gap_mean)
                append_icount(icount)
                append_kind(kind)
                append_address(address)
                append_value(value_for_write(address) if kind else 0)
        self._icount = icount
        return TraceColumns(
            icounts=np.frombuffer(icounts, dtype=np.uint64),
            kinds=np.frombuffer(kinds, dtype=np.uint8),
            addresses=np.frombuffer(addresses, dtype=np.uint64),
            values=np.frombuffer(values, dtype=np.uint64),
        )

    def generate(self, num_accesses: int) -> Iterator[MemoryAccess]:
        """Yield the next ``num_accesses`` records.

        The records are drawn up front by :meth:`generate_columns`.
        """
        yield from self.generate_columns(num_accesses).accesses()


def generate_columns(
    profile: WorkloadProfile, num_accesses: int, seed: int = 2012
) -> TraceColumns:
    """Synthesise a full trace for ``profile`` as NumPy columns."""
    return SyntheticTraceGenerator(profile, seed=seed).generate_columns(
        num_accesses
    )


def generate_trace(
    profile: WorkloadProfile, num_accesses: int, seed: int = 2012
) -> List[MemoryAccess]:
    """Materialise a full synthetic trace for ``profile``.

    The records are exactly :func:`generate_columns`' columns.
    """
    return list(generate_columns(profile, num_accesses, seed).accesses())

