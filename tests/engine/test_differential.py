"""Differential suite: scalar vs columnar must be bit-identical.

The columnar engine exists purely for throughput — it must never change
a number.  Every test here replays the *same* randomized trace through
the scalar reference (``CacheController.process`` per record) and
through ``Simulator.feed`` (the columnar engine), and asserts that the
:class:`SRAMEventLog`, :class:`OperationCounts`, :class:`CacheStats`
and the final :class:`FunctionalMemory` contents (after flushing every
dirty line) are equal, across techniques, geometries, controller knobs
and chunk boundaries.
"""

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheGeometry
from repro.cache.memory import FunctionalMemory
from repro.core.registry import ALL_CONTROLLER_NAMES, CONTROLLER_NAMES, make_controller
from repro.engine import columnar
from repro.engine.batch import iter_batches
from repro.engine.columnar import iter_chunks, process_chunk
from repro.sim.simulator import Simulator

from tests.conftest import make_random_trace

GEOMETRIES = {
    "tiny": CacheGeometry(size_bytes=512, associativity=2, block_bytes=32),
    "small": CacheGeometry(size_bytes=4 * 1024, associativity=4, block_bytes=32),
    "wide": CacheGeometry(size_bytes=32 * 1024, associativity=8, block_bytes=64),
}


def run_scalar(trace, technique, geometry, **kwargs):
    """The scalar reference; returns (controller, post-flush memory)."""
    memory = FunctionalMemory()
    cache = SetAssociativeCache(geometry, memory)
    controller = make_controller(technique, cache, **kwargs)
    for access in trace:
        controller.process(access)
    controller.finalize()
    # Flushing every dirty line folds the cache's data arrays and dirty
    # bits into the memory image, so the snapshot comparison also
    # proves the *cache contents* agree, not just the counters.
    cache.flush_all_dirty()
    return controller, memory.snapshot()


def run_columnar(trace, technique, geometry, batch_size=None, **kwargs):
    """One ``Simulator`` run; returns (result, post-flush memory)."""
    simulator = Simulator(technique, geometry, batch_size=batch_size, **kwargs)
    simulator.feed(trace)
    result = simulator.finish()
    simulator.cache.flush_all_dirty()
    return result, simulator.memory.snapshot()


def assert_identical(trace, technique, geometry, batch_size=None, **kwargs):
    scalar, scalar_memory = run_scalar(trace, technique, geometry, **kwargs)
    candidate, candidate_memory = run_columnar(
        trace, technique, geometry, batch_size=batch_size, **kwargs
    )
    assert candidate.requests == len(trace)
    assert candidate.events == scalar.events
    assert candidate.counts == scalar.counts
    assert candidate.cache_stats == scalar.cache.stats
    assert candidate_memory == scalar_memory


class TestAllTechniques:
    @pytest.mark.parametrize("technique", ALL_CONTROLLER_NAMES)
    @pytest.mark.parametrize("geometry", GEOMETRIES.values(), ids=GEOMETRIES)
    def test_bit_identical(self, technique, geometry):
        trace = make_random_trace(3_000, seed=11, word_span=700)
        assert_identical(trace, technique, geometry)

    @pytest.mark.parametrize("technique", CONTROLLER_NAMES)
    def test_with_miss_traffic_accounting(self, technique, tiny_geometry):
        trace = make_random_trace(2_000, seed=12, word_span=400)
        assert_identical(
            trace, technique, tiny_geometry, count_miss_traffic=True
        )

    @pytest.mark.parametrize("technique", CONTROLLER_NAMES)
    def test_read_only_and_write_only(self, technique, tiny_geometry):
        reads = make_random_trace(800, seed=13, write_share=0.0)
        writes = make_random_trace(800, seed=14, write_share=1.0)
        assert_identical(reads, technique, tiny_geometry)
        assert_identical(writes, technique, tiny_geometry)


class TestBatchBoundaries:
    """A same-set write run split across batches must merge identically."""

    @pytest.mark.parametrize("technique", ("conventional", "wg", "wg_rb"))
    @pytest.mark.parametrize("batch_size", (1, 3, 7, 64, 4096))
    def test_write_runs_split_across_batches(
        self, technique, batch_size, tiny_geometry
    ):
        # Write-heavy + compact footprint: long consecutive same-set
        # write runs that every batch size except 4096 will split.
        trace = make_random_trace(
            1_500, seed=15, word_span=64, write_share=0.85
        )
        assert_identical(trace, technique, tiny_geometry, batch_size=batch_size)

    @pytest.mark.parametrize("technique", ("wg", "wg_rb"))
    @pytest.mark.parametrize("batch_size", (2, 3, 4))
    def test_same_set_run_spans_boundary_with_dirty_buffer(
        self, technique, batch_size, tiny_geometry
    ):
        """Pinned corner: a same-set write run crosses a batch boundary
        while the Set-Buffer is dirty from the records before the cut.

        The columnar engine must treat the post-boundary writes as a
        continuation of the buffered run — re-filling (or prematurely
        flushing) at the boundary would change write-back counts and,
        with a lost modification, the final memory image.
        """
        from repro.trace.record import AccessType, MemoryAccess

        g = tiny_geometry
        stride = 1 << (g.offset_bits + g.index_bits)

        def addr(tag, word):
            return tag * stride + word * 8  # set 0 throughout

        trace = []
        icount = 0
        # Ten dirty writes into set 0 across two tags: whatever the
        # batch size in (2, 3, 4), at least one boundary lands inside
        # this run with modifications pending in the Set-Buffer.
        for i in range(10):
            icount += 1
            trace.append(
                MemoryAccess(
                    icount=icount,
                    kind=AccessType.WRITE,
                    address=addr(i % 2, i % g.words_per_block),
                    value=100 + i,
                )
            )
        # Then a read of a buffered word and an eviction-forcing fill.
        icount += 1
        trace.append(
            MemoryAccess(
                icount=icount, kind=AccessType.READ, address=addr(0, 0)
            )
        )
        icount += 1
        trace.append(
            MemoryAccess(
                icount=icount,
                kind=AccessType.WRITE,
                address=addr(5, 0),
                value=999,
            )
        )
        assert_identical(trace, technique, g, batch_size=batch_size)

    def test_single_record_trace(self, tiny_geometry):
        trace = make_random_trace(1, seed=16)
        for technique in CONTROLLER_NAMES:
            assert_identical(trace, technique, tiny_geometry)

    def test_empty_trace(self, tiny_geometry):
        for technique in CONTROLLER_NAMES:
            assert_identical([], technique, tiny_geometry)


class TestControllerKnobs:
    @pytest.mark.parametrize("technique", ("wg", "wg_rb"))
    @pytest.mark.parametrize("entries", (2, 3))
    def test_multi_entry_tag_buffer(self, technique, entries, tiny_geometry):
        trace = make_random_trace(2_000, seed=17, word_span=256, write_share=0.6)
        assert_identical(trace, technique, tiny_geometry, entries=entries)

    @pytest.mark.parametrize("technique", ("wg", "wg_rb"))
    def test_silent_detection_off(self, technique, tiny_geometry):
        trace = make_random_trace(2_000, seed=18, word_span=256, silent_share=0.6)
        assert_identical(
            trace, technique, tiny_geometry, detect_silent_writes=False
        )


class TestFallbackPaths:
    """Configurations the fast paths must refuse — and still match."""

    @pytest.mark.parametrize("replacement", ("fifo", "random", "plru"))
    def test_non_lru_replacement_falls_back(self, replacement, tiny_geometry):
        trace = make_random_trace(1_500, seed=19, word_span=400)
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

    def test_telemetry_forces_scalar_path_same_results(self, tiny_geometry):
        from repro.obs.registry import MetricsRegistry
        from repro.obs.telemetry import Telemetry

        trace = make_random_trace(1_000, seed=20, word_span=200)
        plain, plain_memory = run_scalar(trace, "wg", tiny_geometry)
        telemetry = Telemetry(registry=MetricsRegistry())
        instrumented = Simulator("wg", tiny_geometry, telemetry=telemetry)
        instrumented.feed(trace)
        result = instrumented.finish()
        instrumented.cache.flush_all_dirty()
        assert result.events == plain.events
        assert result.counts == plain.counts
        assert instrumented.memory.snapshot() == plain_memory
        # The per-access instrumentation really ran.
        assert telemetry.registry.value("ctrl.wg.read_requests") > 0

    @pytest.mark.parametrize("technique", ("wg", "wg_rb"))
    @pytest.mark.parametrize("setup", ("entries", "telemetry"))
    def test_unsupported_chunk_runs_record_by_record(
        self, technique, setup, tiny_geometry, monkeypatch
    ):
        """``process_chunk`` on a multi-entry or telemetry-attached WG
        controller replays every record through ``process()`` and
        matches a direct scalar run exactly."""
        from repro.obs.registry import MetricsRegistry
        from repro.obs.telemetry import Telemetry

        def no_kernel(controller, chunk):
            raise AssertionError("the WG kernel must not run this chunk")

        monkeypatch.setattr(columnar, "_process_chunk_wg", no_kernel)
        kwargs = {"entries": 3} if setup == "entries" else {}
        trace = make_random_trace(1_200, seed=22, word_span=256, write_share=0.6)
        scalar, scalar_memory = run_scalar(
            trace, technique, tiny_geometry, **kwargs
        )

        memory = FunctionalMemory()
        cache = SetAssociativeCache(tiny_geometry, memory)
        telemetry = (
            Telemetry(registry=MetricsRegistry())
            if setup == "telemetry"
            else None
        )
        controller = make_controller(
            technique, cache, telemetry=telemetry, **kwargs
        )
        calls = []
        process = controller.process

        def counting_process(access):
            calls.append(access)
            return process(access)

        controller.process = counting_process
        consumed = sum(
            process_chunk(controller, chunk)
            for chunk in iter_chunks(trace, tiny_geometry, 100)
        )
        controller.finalize()
        cache.flush_all_dirty()

        assert consumed == len(trace)
        assert calls == trace
        assert controller.events == scalar.events
        assert controller.counts == scalar.counts
        assert cache.stats == scalar.cache.stats
        assert memory.snapshot() == scalar_memory

    def test_geometry_mismatch_rejected(self, tiny_geometry, small_geometry):
        trace = make_random_trace(10, seed=21)
        cache = SetAssociativeCache(tiny_geometry)
        controller = make_controller("conventional", cache)
        batch = next(iter_batches(trace, small_geometry))
        with pytest.raises(ValueError, match="batch decoded for"):
            controller.process_batch(batch)
