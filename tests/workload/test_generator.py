"""Unit tests for the synthetic trace generator."""

import hashlib

import numpy as np
import pytest

from repro.trace.record import WORD_BYTES
from repro.trace.stats import collect_statistics
from repro.workload.generator import (
    SyntheticTraceGenerator,
    generate_columns,
    generate_trace,
)
from repro.workload.profile import StreamSpec, WorkloadProfile
from repro.workload.spec2006 import benchmark_names, get_profile


def _profile(**overrides):
    defaults = dict(
        name="gen-test",
        read_frequency=0.26,
        write_frequency=0.14,
        silent_fraction=0.4,
        burst_mean=3.0,
        type_persistence=0.5,
        streams=(
            StreamSpec("sequential", weight=2.0, region_kib=64),
            StreamSpec("random", weight=1.0, region_kib=64),
        ),
    )
    defaults.update(overrides)
    return WorkloadProfile(**defaults)


class TestDeterminism:
    def test_same_seed_same_trace(self):
        assert generate_trace(_profile(), 500, seed=3) == generate_trace(
            _profile(), 500, seed=3
        )

    def test_different_seed_different_trace(self):
        assert generate_trace(_profile(), 500, seed=3) != generate_trace(
            _profile(), 500, seed=4
        )

    def test_prefix_stability(self):
        """A longer trace starts with the shorter trace."""
        short = generate_trace(_profile(), 200, seed=5)
        long = generate_trace(_profile(), 400, seed=5)
        assert long[:200] == short


class TestWellFormedness:
    def test_count(self):
        assert len(generate_trace(_profile(), 321)) == 321

    def test_alignment_and_monotonic_icount(self):
        trace = generate_trace(_profile(), 500)
        previous = -1
        for access in trace:
            assert access.address % WORD_BYTES == 0
            assert access.icount > previous
            previous = access.icount

    def test_positive_count_required(self):
        generator = SyntheticTraceGenerator(_profile())
        with pytest.raises(ValueError):
            list(generator.generate(0))

    def test_streams_have_disjoint_regions(self):
        trace = generate_trace(_profile(), 2000, seed=9)
        # Two streams -> two distinct 1 GiB-aligned bases.
        bases = {access.address >> 30 for access in trace}
        assert len(bases) == 2


class TestStatisticalTargets:
    def test_memory_fraction(self):
        profile = _profile()
        stats = collect_statistics(generate_trace(profile, 20_000, seed=1))
        assert stats.memory_access_frequency == pytest.approx(
            profile.memory_fraction, rel=0.1
        )

    def test_write_share(self):
        profile = _profile()
        stats = collect_statistics(generate_trace(profile, 20_000, seed=1))
        assert stats.write_share_of_accesses == pytest.approx(
            profile.write_share, abs=0.06
        )

    def test_silent_fraction(self):
        profile = _profile(silent_fraction=0.6)
        stats = collect_statistics(generate_trace(profile, 20_000, seed=2))
        assert stats.silent_write_fraction == pytest.approx(0.6, abs=0.06)

    def test_write_bias_shifts_mix(self):
        """A write-biased stream raises the overall write share."""
        hot = _profile(
            streams=(StreamSpec("sequential", weight=1.0, write_bias=2.5),)
        )
        cold = _profile(
            streams=(StreamSpec("sequential", weight=1.0, write_bias=0.2),)
        )
        hot_stats = collect_statistics(generate_trace(hot, 10_000, seed=3))
        cold_stats = collect_statistics(generate_trace(cold, 10_000, seed=3))
        assert (
            hot_stats.write_share_of_accesses
            > cold_stats.write_share_of_accesses + 0.2
        )

    def test_burstiness_raises_same_set_share(self):
        from repro.cache.address import AddressMapper
        from repro.cache.config import BASELINE_GEOMETRY

        mapper = AddressMapper(BASELINE_GEOMETRY)
        bursty = _profile(burst_mean=8.0)
        choppy = _profile(burst_mean=1.0)
        bursty_stats = collect_statistics(
            generate_trace(bursty, 10_000, seed=4), mapper.set_index
        )
        choppy_stats = collect_statistics(
            generate_trace(choppy, 10_000, seed=4), mapper.set_index
        )
        assert (
            bursty_stats.scenarios.same_set_share
            > choppy_stats.scenarios.same_set_share
        )

    def test_value_model_exposed(self):
        generator = SyntheticTraceGenerator(_profile(), seed=6)
        list(generator.generate(1000))
        assert generator.value_model.total_writes > 0


#: SHA-256 over (icount, kind, address, value) of every SPEC profile's
#: trace, in ``benchmark_names()`` order, each column as little-endian
#: u64.  Recorded from the record-at-a-time generator before it emitted
#: columns; any change to the draw order changes these.
TRACE_DIGESTS = {
    (2012, 1): "cb1a44d1fdbe541685099b50ebdf19d5a740e2f08f2d817ad9cc636e53a9f655",
    (2012, 4097): "d87bc2d9267f08d8ea3384119e680e8a51f72cd6e447b77309a7a77b0b8f6d14",
    (2012, 20000): "4f5629dead587e6f1eb63bd91c2ea80e6a7d24394c94a36b651c6d5b6336b81d",
    (7, 1): "3023f6a641b1adbd43afe67fb0fedfca9728c629eaa93b04754410a30f6752a3",
    (7, 4097): "ce234b4423d57bc71140aad6b998c1478e566e922338c84b8c58f83facddd638",
    (7, 20000): "9cd37bd4b289e80f542ded0007029a24187aecc96fc37ac4d63edcb3d41c1262",
}


def _digest(columns_of):
    digest = hashlib.sha256()
    for name in benchmark_names():
        for column in columns_of(get_profile(name)):
            digest.update(np.asarray(column, dtype="<u8").tobytes())
    return digest.hexdigest()


class TestBitIdentityPin:
    @pytest.mark.parametrize("seed, length", sorted(TRACE_DIGESTS))
    def test_columns_reproduce_the_pinned_traces(self, seed, length):
        def columns_of(profile):
            columns = generate_columns(profile, length, seed=seed)
            assert columns.icounts.dtype == np.uint64
            assert columns.kinds.dtype == np.uint8
            assert len(columns.kinds) == length
            return columns

        assert _digest(columns_of) == TRACE_DIGESTS[seed, length]

    @pytest.mark.parametrize("seed, length", sorted(TRACE_DIGESTS))
    def test_records_reproduce_the_pinned_traces(self, seed, length):
        def columns_of(profile):
            trace = generate_trace(profile, length, seed=seed)
            return (
                [access.icount for access in trace],
                [1 if access.is_write else 0 for access in trace],
                [access.address for access in trace],
                [access.value for access in trace],
            )

        assert _digest(columns_of) == TRACE_DIGESTS[seed, length]

    def test_generator_state_carries_across_calls(self):
        """Two draws continue one stream: icounts keep rising."""
        generator = SyntheticTraceGenerator(_profile(), seed=8)
        first = generator.generate_columns(300)
        second = generator.generate_columns(300)
        assert int(second.icounts[0]) > int(first.icounts[-1])
