"""Unit tests for the port-contention timing model (Section 5.5)."""

from dataclasses import asdict

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import BASELINE_GEOMETRY, CacheGeometry
from repro.core.registry import ALL_CONTROLLER_NAMES, make_controller
from repro.engine.columnar import ColumnarChunk, iter_chunks
from repro.obs.telemetry import Telemetry
from repro.perf.timing import PerfResult, TimingSimulator, evaluate_performance
from repro.sram.ports import PortKind, PortTracker
from repro.sram.timing import PhaseTiming
from repro.trace.record import AccessType, MemoryAccess
from repro.workload.generator import generate_columns, generate_trace
from repro.workload.spec2006 import get_profile

from tests.conftest import make_random_trace


def R(icount, address):
    return MemoryAccess(icount=icount, kind=AccessType.READ, address=address)


def W(icount, address, value):
    return MemoryAccess(
        icount=icount, kind=AccessType.WRITE, address=address, value=value
    )


class TestBasicLatency:
    def test_uncontended_read_latency(self, tiny_geometry):
        result = TimingSimulator("rmw", tiny_geometry).run([R(0, 0)])
        assert result.mean_read_latency == PhaseTiming().array_read_cycles

    def test_rmw_write_blocks_following_read(self, tiny_geometry):
        """RMW's read phase occupies the read port: a read arriving
        right behind a write stalls (the paper's 1R/1W complaint)."""
        trace = [W(0, 0x00, 1), R(1, 0x20)]
        rmw = TimingSimulator("rmw", tiny_geometry).run(trace)
        assert rmw.read_port_conflicts >= 1
        assert rmw.mean_read_latency > PhaseTiming().array_read_cycles

    def test_grouped_write_frees_read_port(self, tiny_geometry):
        """Under WG the same pattern leaves the read port alone once the
        set is buffered."""
        trace = [W(0, 0x00, 1), W(2, 0x08, 2), R(3, 0x20)]
        wg = TimingSimulator("wg", tiny_geometry).run(trace)
        rmw = TimingSimulator("rmw", tiny_geometry).run(trace)
        assert wg.read_port_busy < rmw.read_port_busy

    def test_bypassed_read_is_fast(self, tiny_geometry):
        trace = [W(0, 0x00, 1), R(5, 0x00)]
        result = TimingSimulator("wg_rb", tiny_geometry).run(trace)
        assert result.bypassed_reads == 1
        # One array read (none for the bypass) plus the buffer latency.
        assert result.total_read_latency == PhaseTiming().set_buffer_cycles


class TestSuiteLevelDirections:
    @pytest.fixture(scope="class")
    def results(self, ):
        from repro.cache.config import CacheGeometry

        geometry = CacheGeometry(512, 2, 32)
        trace = make_random_trace(800, seed=3, word_span=100, write_share=0.45)
        return evaluate_performance(trace, geometry)

    def test_wg_rb_has_lowest_read_latency(self, results):
        """Section 5.5: WG+RB improves read latency."""
        assert (
            results["wg_rb"].mean_read_latency
            <= results["wg"].mean_read_latency
        )
        assert (
            results["wg_rb"].mean_read_latency
            < results["rmw"].mean_read_latency
        )

    def test_wg_reduces_read_port_pressure(self, results):
        assert results["wg"].read_port_busy < results["rmw"].read_port_busy

    def test_conventional_is_fastest_reference(self, results):
        assert (
            results["conventional"].mean_read_latency
            <= results["rmw"].mean_read_latency
        )

    def test_counts_consistent(self, results):
        for result in results.values():
            assert result.reads + result.writes == 800
            assert result.elapsed_cycles > 0
            assert 0.0 <= result.read_port_utilisation <= 1.0


class TestRejectsIterator:
    def test_one_shot_iterator_rejected(self, tiny_geometry):
        with pytest.raises(TypeError, match="reusable"):
            evaluate_performance(iter([]), tiny_geometry)


# -- the scalar scheduler, kept as the oracle ------------------------------------


def oracle_timing(technique, geometry, trace, timing=None, **controller_kwargs):
    """The per-outcome port scheduler over ``process()``.

    An independent restatement of the model: each request's
    :class:`AccessOutcome` drives :meth:`PortTracker.acquire` calls.
    Returns ``(PerfResult, controller)``.
    """
    timing = PhaseTiming() if timing is None else timing
    cache = SetAssociativeCache(geometry)
    controller = make_controller(technique, cache, **controller_kwargs)
    trackers = [
        PortTracker() for _ in range(getattr(controller, "subarrays", 1))
    ]
    write_cycles = timing.array_write_cycles * getattr(
        controller, "write_cycle_factor", 1
    )
    reads = writes = latency = bypassed = last = 0
    for access in trace:
        arrival = access.icount
        tracker = trackers[0]
        if len(trackers) > 1:
            set_index = cache.mapper.set_index(access.address)
            tracker = trackers[controller.subarray_of(set_index)]
        outcome = controller.process(access)
        start = arrival
        if access.is_read:
            reads += 1
            if outcome.bypassed:
                bypassed += 1
                latency += timing.set_buffer_cycles
            else:
                if outcome.forced_writeback:
                    start = tracker.acquire(PortKind.WRITE, start, write_cycles)
                    start += write_cycles
                start = tracker.acquire(
                    PortKind.READ, start, timing.array_read_cycles
                )
                latency += start + timing.array_read_cycles - arrival
        else:
            writes += 1
            if outcome.forced_writeback:
                start = tracker.acquire(PortKind.WRITE, start, write_cycles)
                start += write_cycles
            if outcome.array_reads:
                start = tracker.acquire(
                    PortKind.READ, start, timing.array_read_cycles
                )
                start += timing.array_read_cycles
            if outcome.array_writes and not outcome.forced_writeback:
                tracker.acquire(PortKind.WRITE, start, write_cycles)
        last = max(
            last,
            tracker.free_at[PortKind.READ],
            tracker.free_at[PortKind.WRITE],
            arrival,
        )
    controller.finalize()

    def total(port, field):
        return sum(getattr(t, field)[port] for t in trackers)

    result = PerfResult(
        technique=controller.name,
        reads=reads,
        writes=writes,
        total_read_latency=latency,
        read_port_conflicts=total(PortKind.READ, "conflicts"),
        write_port_conflicts=total(PortKind.WRITE, "conflicts"),
        read_port_busy=total(PortKind.READ, "busy_cycles"),
        write_port_busy=total(PortKind.WRITE, "busy_cycles"),
        elapsed_cycles=last,
        bypassed_reads=bypassed,
        read_ports=len(trackers),
    )
    return result, controller


def observables(controller):
    return (
        controller.events.to_dict(),
        asdict(controller.counts),
        asdict(controller.cache.stats),
    )


def assert_matches_oracle(technique, geometry, trace, chunk_sizes, **kwargs):
    expected, oracle = oracle_timing(technique, geometry, trace, **kwargs)
    simulator = TimingSimulator(technique, geometry, **kwargs)
    assert simulator.run(trace) == expected
    assert observables(simulator.controller) == observables(oracle)
    for size in chunk_sizes:
        simulator = TimingSimulator(technique, geometry, **kwargs)
        result = simulator.run_chunks(iter_chunks(trace, geometry, size))
        assert result == expected, size
        assert observables(simulator.controller) == observables(oracle), size


PROFILES = ("bwaves", "mcf", "gcc", "gamess", "cactusADM")
GEOMETRIES = {
    "baseline": BASELINE_GEOMETRY,
    "small": CacheGeometry(size_bytes=1024, associativity=2, block_bytes=32),
}


class TestMatchesScalarScheduler:
    """The columnar port-plan scheduler equals the outcome scheduler:
    same :class:`PerfResult`, same controller events/counts/stats."""

    @pytest.fixture(scope="class")
    def traces(self):
        return {
            name: generate_trace(get_profile(name), 1_500, seed=13)
            for name in PROFILES
        }

    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    @pytest.mark.parametrize("technique", ALL_CONTROLLER_NAMES)
    def test_every_technique_and_profile(self, traces, technique, geometry):
        for name in PROFILES:
            assert_matches_oracle(
                technique, GEOMETRIES[geometry], traces[name], (1, 7)
            )

    @pytest.mark.parametrize("technique", ALL_CONTROLLER_NAMES)
    def test_miss_traffic_accounting(self, traces, technique):
        assert_matches_oracle(
            technique,
            GEOMETRIES["small"],
            traces["mcf"],
            (7,),
            count_miss_traffic=True,
        )

    @pytest.mark.parametrize("technique", ("wg", "wg_rb"))
    @pytest.mark.parametrize(
        "kwargs",
        [{"entries": 4}, {"detect_silent_writes": False}],
        ids=["entries4", "no_silent_detection"],
    )
    def test_set_buffer_knobs(self, traces, technique, kwargs):
        for name in ("bwaves", "gcc"):
            assert_matches_oracle(
                technique, GEOMETRIES["small"], traces[name], (7,), **kwargs
            )

    @pytest.mark.parametrize("technique", ("rmw", "wg", "wg_rb", "rmw_local"))
    def test_telemetry_attached_controller(self, traces, technique):
        """Telemetry forces the per-record fallback inside the kernel
        gate; the plan then comes from ``port_plan`` of each outcome."""
        expected, _ = oracle_timing(
            technique, GEOMETRIES["small"], traces["gcc"]
        )
        simulator = TimingSimulator(
            technique, GEOMETRIES["small"], telemetry=Telemetry()
        )
        assert simulator.run(traces["gcc"]) == expected

    def test_non_default_phase_timing(self, traces):
        timing = PhaseTiming(
            array_read_cycles=3, array_write_cycles=5, set_buffer_cycles=2
        )
        for technique in ("rmw", "wg", "wg_rb", "pulse_assist"):
            assert_matches_oracle(
                technique,
                GEOMETRIES["small"],
                traces["bwaves"],
                (),
                timing=timing,
            )


class TestSharedChunks:
    def test_evaluate_performance_equals_per_technique_runs(self):
        trace = generate_trace(get_profile("gcc"), 2_000, seed=5)
        geometry = GEOMETRIES["small"]
        techniques = ("conventional", "rmw", "wg", "wg_rb", "rmw_local")
        results = evaluate_performance(trace, geometry, techniques=techniques)
        chunks = list(
            ColumnarChunk.from_columns(
                geometry, *generate_columns(get_profile("gcc"), 2_000, seed=5)
            ).slices()
        )
        for technique in techniques:
            alone = TimingSimulator(technique, geometry).run(trace)
            shared = TimingSimulator(technique, geometry).run_chunks(chunks)
            assert results[technique] == alone == shared


class TestBankedUtilisation:
    def test_local_rmw_reports_per_port_utilisation(self):
        """Eight sub-array read ports share the busy cycles: the
        per-port figure must be a fraction of monolithic RMW's."""
        trace = generate_trace(get_profile("mcf"), 5_000, seed=2012)
        plain = TimingSimulator("rmw", BASELINE_GEOMETRY).run(trace)
        banked = TimingSimulator("rmw_local", BASELINE_GEOMETRY).run(trace)
        assert plain.read_ports == 1
        assert banked.read_ports == 8
        assert plain.read_port_busy == banked.read_port_busy
        assert plain.read_port_utilisation == pytest.approx(
            plain.read_port_busy / plain.elapsed_cycles
        )
        assert banked.read_port_utilisation == pytest.approx(
            banked.read_port_busy / (8 * banked.elapsed_cycles)
        )
        assert banked.read_port_utilisation < plain.read_port_utilisation / 4
