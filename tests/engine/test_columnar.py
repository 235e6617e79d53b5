"""Columnar engine suite: kernels, gating, fallbacks, adversarial fuzz."""

import numpy as np
import pytest

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheGeometry
from repro.check.differential import run_differential
from repro.check.fuzz import SCENARIO_NAMES, TraceFuzzer
from repro.core.registry import CONTROLLER_NAMES, make_controller
from repro.engine.batch import iter_batches
from repro.engine.columnar import (
    ColumnarChunk,
    iter_chunks,
    process_chunk,
)
from repro.errors import StateError, ValidationError
from repro.sim.simulator import Simulator

from tests.conftest import make_random_trace
from tests.engine.test_differential import GEOMETRIES, assert_identical


def run_columnar_direct(trace, technique, geometry, batch_size=None, **kwargs):
    """Drive process_chunk by hand (no Simulator); returns run artefacts."""
    cache = SetAssociativeCache(geometry)
    controller = make_controller(technique, cache, **kwargs)
    consumed = 0
    for chunk in iter_chunks(trace, geometry, batch_size):
        consumed += process_chunk(controller, chunk)
    controller.finalize()
    cache.flush_all_dirty()
    return controller, cache, consumed


def run_scalar_direct(trace, technique, geometry, **kwargs):
    cache = SetAssociativeCache(geometry)
    controller = make_controller(technique, cache, **kwargs)
    for access in trace:
        controller.process(access)
    controller.finalize()
    cache.flush_all_dirty()
    return controller, cache


def assert_runs_equal(scalar, columnar):
    s_controller, s_cache = scalar
    c_controller, c_cache = columnar[:2]
    assert c_controller.events == s_controller.events
    assert c_controller.counts == s_controller.counts
    assert c_cache.stats == s_cache.stats
    assert c_cache.memory.snapshot() == s_cache.memory.snapshot()


class TestKernelEquality:
    """The columnar kernels must be bit-identical to scalar execution."""

    @pytest.mark.parametrize("technique", CONTROLLER_NAMES)
    @pytest.mark.parametrize("geometry", GEOMETRIES.values(), ids=GEOMETRIES)
    def test_bit_identical(self, technique, geometry):
        trace = make_random_trace(3_000, seed=31, word_span=700)
        assert_identical(trace, technique, geometry)

    @pytest.mark.parametrize("technique", CONTROLLER_NAMES)
    def test_miss_traffic_accounting(self, technique, tiny_geometry):
        trace = make_random_trace(2_000, seed=32, word_span=400)
        scalar = run_scalar_direct(
            trace, technique, tiny_geometry, count_miss_traffic=True
        )
        columnar = run_columnar_direct(
            trace, technique, tiny_geometry, count_miss_traffic=True
        )
        assert_runs_equal(scalar, columnar)

    @pytest.mark.parametrize("technique", CONTROLLER_NAMES)
    @pytest.mark.parametrize("batch_size", (1, 3, 64, 4096))
    def test_chunk_boundaries(self, technique, batch_size, tiny_geometry):
        trace = make_random_trace(1_500, seed=33, word_span=64, write_share=0.85)
        scalar = run_scalar_direct(trace, technique, tiny_geometry)
        columnar = run_columnar_direct(
            trace, technique, tiny_geometry, batch_size=batch_size
        )
        assert_runs_equal(scalar, columnar)
        assert columnar[2] == len(trace)

    @pytest.mark.parametrize("technique", CONTROLLER_NAMES)
    def test_read_only_and_write_only(self, technique, tiny_geometry):
        for seed, share in ((34, 0.0), (35, 1.0)):
            trace = make_random_trace(800, seed=seed, write_share=share)
            assert_runs_equal(
                run_scalar_direct(trace, technique, tiny_geometry),
                run_columnar_direct(trace, technique, tiny_geometry),
            )

    def test_empty_chunk_is_noop(self, tiny_geometry):
        cache = SetAssociativeCache(tiny_geometry)
        controller = make_controller("conventional", cache)
        from repro.engine.batch import AccessBatch

        empty = ColumnarChunk.from_access_batch(
            AccessBatch(geometry=tiny_geometry)
        )
        assert len(empty) == 0
        assert process_chunk(controller, empty) == 0
        controller.finalize()
        assert controller.counts.read_requests == 0


class TestAdversarialScenarios:
    """The fuzzer's adversarial scenarios, replayed three ways.

    Each case below is an oracle↔scalar↔columnar comparison through
    ``run_differential``.
    """

    @pytest.mark.parametrize("scenario_index", range(len(SCENARIO_NAMES)))
    @pytest.mark.parametrize("technique", CONTROLLER_NAMES)
    def test_fuzz_scenarios(self, scenario_index, technique):
        fuzzer = TraceFuzzer(seed=99, max_accesses=300)
        # case(i) cycles scenarios; i and i + len(SCENARIO_NAMES) give
        # two independent cases of the same scenario.
        for iteration in (
            scenario_index,
            scenario_index + len(SCENARIO_NAMES),
        ):
            case = fuzzer.case(iteration)
            assert case.scenario == SCENARIO_NAMES[scenario_index]
            divergences = run_differential(
                case.trace,
                technique,
                case.geometry,
                batch_size=case.batch_size,
                count_miss_traffic=case.count_miss_traffic,
                detect_silent_writes=case.detect_silent_writes,
                entries=case.entries,
            )
            assert divergences == []


class TestFallbacks:
    """Configurations the columnar kernels refuse — and still match."""

    @pytest.mark.parametrize("technique", ("wg", "wg_rb"))
    @pytest.mark.parametrize("entries", (2, 3))
    def test_multi_entry_falls_back(self, technique, entries, tiny_geometry):
        trace = make_random_trace(1_200, seed=36, word_span=256, write_share=0.6)
        assert_runs_equal(
            run_scalar_direct(
                trace, technique, tiny_geometry, entries=entries
            ),
            run_columnar_direct(
                trace, technique, tiny_geometry, entries=entries
            ),
        )

    @pytest.mark.parametrize("replacement", ("fifo", "random", "plru"))
    def test_non_lru_replacement_falls_back(self, replacement, tiny_geometry):
        trace = make_random_trace(1_000, seed=37, word_span=400)
        results = []
        for use_chunks in (False, True):
            cache = SetAssociativeCache(tiny_geometry, replacement=replacement)
            assert not cache.engine_fast_ok
            controller = make_controller("wg", cache)
            if use_chunks:
                for chunk in iter_chunks(trace, tiny_geometry, 128):
                    process_chunk(controller, chunk)
            else:
                for access in trace:
                    controller.process(access)
            controller.finalize()
            results.append((controller.events, controller.counts, cache.stats))
        assert results[0] == results[1]

    def test_telemetry_forces_fallback_same_results(self, tiny_geometry):
        from repro.obs.registry import MetricsRegistry
        from repro.obs.telemetry import Telemetry

        trace = make_random_trace(1_000, seed=38, word_span=200)
        plain = run_scalar_direct(trace, "wg", tiny_geometry)
        telemetry = Telemetry(registry=MetricsRegistry())
        instrumented = Simulator("wg", tiny_geometry, telemetry=telemetry)
        instrumented.feed(trace)
        result = instrumented.finish()
        instrumented.cache.flush_all_dirty()
        assert result.events == plain[0].events
        assert result.counts == plain[0].counts
        assert instrumented.memory.snapshot() == plain[1].memory.snapshot()
        # The per-access instrumentation really ran (fallback to scalar).
        assert telemetry.registry.value("ctrl.wg.read_requests") > 0


class TestGates:
    def test_finalized_controller_rejected(self, tiny_geometry):
        trace = make_random_trace(4, seed=39)
        cache = SetAssociativeCache(tiny_geometry)
        controller = make_controller("conventional", cache)
        chunk = next(iter_chunks(trace, tiny_geometry))
        controller.finalize()
        with pytest.raises(StateError, match="already finalized"):
            process_chunk(controller, chunk)

    def test_geometry_mismatch_rejected(self, tiny_geometry, small_geometry):
        trace = make_random_trace(10, seed=40)
        cache = SetAssociativeCache(tiny_geometry)
        controller = make_controller("conventional", cache)
        chunk = next(iter_chunks(trace, small_geometry))
        with pytest.raises(ValidationError, match="decoded for"):
            process_chunk(controller, chunk)

    def test_unknown_engine_rejected(self, tiny_geometry):
        """The columnar engine is the only one: ``engine=`` is no
        option of ``Simulator`` and fails loudly."""
        with pytest.raises(TypeError, match="engine"):
            Simulator("conventional", tiny_geometry, engine="vectorised")


class TestChunkRoundTrip:
    def test_batch_chunk_batch_round_trip(self, tiny_geometry):
        trace = make_random_trace(257, seed=41, word_span=120)
        for batch in iter_batches(trace, tiny_geometry, 64):
            again = ColumnarChunk.from_access_batch(batch).to_access_batch()
            assert again == batch

    def test_grouped_projection_is_cached(self, tiny_geometry):
        trace = make_random_trace(100, seed=42)
        chunk = next(iter_chunks(trace, tiny_geometry))
        first = chunk.grouped()
        assert chunk.grouped() is first

    def test_grouped_projection_counts_writes(self, tiny_geometry):
        trace = make_random_trace(500, seed=43, write_share=0.5)
        chunk = next(iter_chunks(trace, tiny_geometry, 4096))
        writes = chunk.grouped()[-1]
        assert writes == sum(1 for access in trace if access.is_write)

    @pytest.mark.parametrize("start, stop", [(0, 257), (0, 100), (37, 257), (37, 37)])
    def test_column_slices_match_decoded_chunks(self, tiny_geometry, start, stop):
        trace = make_random_trace(257, seed=44, word_span=120)
        whole = ColumnarChunk.from_columns(
            tiny_geometry,
            np.array([a.icount for a in trace], dtype=np.uint64),
            np.array([1 if a.is_write else 0 for a in trace], dtype=np.uint8),
            np.array([a.address for a in trace], dtype=np.uint64),
            np.array([a.value for a in trace], dtype=np.uint64),
        )
        sliced = [
            chunk.to_access_batch() for chunk in whole.slices(start, stop, 64)
        ]
        assert sliced == list(iter_batches(trace[start:stop], tiny_geometry, 64))

    def test_column_slices_validate_batch_size(self, tiny_geometry):
        trace = make_random_trace(10, seed=45)
        whole = next(iter_chunks(trace, tiny_geometry))
        with pytest.raises(ValidationError):
            list(whole.slices(batch_size=0))
