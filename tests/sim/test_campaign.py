"""Unit tests for the campaign runner (kept small and fast)."""

import dataclasses

import pytest

from repro.cache.config import BASELINE_GEOMETRY, CacheGeometry
from repro.obs.spans import phase_timings
from repro.obs.telemetry import Telemetry
from repro.sim.campaign import execute_row, run_campaign, run_geometry_sweep
from repro.sim.experiment import ExperimentConfig
from repro.sim.simulator import Simulator
from repro.workload import generate_trace, get_profile

BENCHMARKS = ("bwaves", "mcf", "gcc")


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig(
        benchmarks=BENCHMARKS,
        accesses_per_benchmark=4000,
        seed=7,
    )


@pytest.fixture(scope="module")
def campaign(config):
    return run_campaign(config)


class TestCampaign:
    def test_one_row_per_benchmark(self, campaign):
        assert [row.benchmark for row in campaign.rows] == list(BENCHMARKS)

    def test_row_lookup(self, campaign):
        assert campaign.row("mcf").benchmark == "mcf"
        with pytest.raises(ValueError):
            campaign.row("nope")

    def test_reductions_sane(self, campaign):
        for row in campaign.rows:
            assert 0.0 <= row.access_reduction("wg") < 1.0
            assert row.access_reduction("wg_rb") >= row.access_reduction("wg")

    def test_mean_and_max(self, campaign):
        reductions = [row.access_reduction("wg") for row in campaign.rows]
        assert campaign.mean_reduction("wg") == pytest.approx(
            sum(reductions) / len(reductions)
        )
        assert campaign.max_reduction("wg") == pytest.approx(max(reductions))

    def test_best_benchmark(self, campaign):
        assert campaign.best_benchmark("wg") == "bwaves"

    def test_rmw_overhead_stats(self, campaign):
        assert 0.0 < campaign.mean_rmw_overhead < 1.0
        assert campaign.max_rmw_overhead >= campaign.mean_rmw_overhead

    def test_warmup_excluded_from_requests(self, campaign, config):
        expected = config.accesses_per_benchmark - config.warmup_accesses
        for row in campaign.rows:
            for result in row.results.values():
                assert result.requests == expected


class TestGeometrySweep:
    def test_sweep_keys(self, config):
        geometries = (
            CacheGeometry(32 * 1024, 4, 32),
            CacheGeometry(128 * 1024, 4, 32),
        )
        sweep = run_geometry_sweep(config, geometries)
        assert set(sweep) == {"32KB/4-way/32B", "128KB/4-way/32B"}
        for result in sweep.values():
            assert len(result.rows) == len(BENCHMARKS)


FIG10_GEOMETRY = CacheGeometry(32 * 1024, 4, 64)
FIG11_GEOMETRIES = (CacheGeometry(32 * 1024, 4, 32), CacheGeometry(128 * 1024, 4, 32))


def scalar_reference_row(benchmark, config):
    """The row as record-at-a-time scalar execution computes it."""
    trace = generate_trace(
        get_profile(benchmark), config.accesses_per_benchmark, seed=config.seed
    )
    warmup = config.warmup_accesses
    results = {}
    for technique in config.techniques:
        simulator = Simulator(technique, config.geometry)
        process = simulator.controller.process  # the scalar reference
        for access in trace[:warmup]:
            process(access)
        simulator.reset_measurements()
        for access in trace[warmup:]:
            process(access)
        results[technique] = dataclasses.replace(
            simulator.finish(), requests=len(trace) - warmup
        )
    return results


def assert_rows_equal(actual, expected):
    assert list(actual) == list(expected)
    for technique, want in expected.items():
        got = actual[technique]
        assert got.events == want.events, technique
        assert got.counts == want.counts, technique
        assert got.cache_stats == want.cache_stats, technique
        assert got.requests == want.requests, technique


class TestColumnarRowDifferential:
    """``execute_row`` (columnar, chunks shared across techniques) is
    bit-identical to scalar replay of the materialised trace."""

    @pytest.mark.parametrize("warmup_fraction", [0.0, 0.1, 0.37])
    @pytest.mark.parametrize(
        "geometry", (FIG10_GEOMETRY,) + FIG11_GEOMETRIES, ids=lambda g: g.describe()
    )
    def test_matches_scalar_reference(self, geometry, warmup_fraction):
        # 4,500 records: the measured slice crosses a 4,096-record chunk
        # boundary without warm-up and ends mid-chunk either way.
        config = ExperimentConfig(
            geometry=geometry,
            benchmarks=BENCHMARKS,
            accesses_per_benchmark=4500,
            warmup_fraction=warmup_fraction,
            seed=2012,
        )
        for benchmark in BENCHMARKS:
            row = execute_row(benchmark, config)
            assert_rows_equal(row.results, scalar_reference_row(benchmark, config))

    def test_both_slices_span_several_chunks(self):
        config = ExperimentConfig(
            geometry=FIG10_GEOMETRY,
            benchmarks=BENCHMARKS,
            accesses_per_benchmark=13_001,
            warmup_fraction=0.37,
            seed=7,
        )
        assert config.warmup_accesses > 4096
        for benchmark in BENCHMARKS:
            row = execute_row(benchmark, config)
            assert_rows_equal(row.results, scalar_reference_row(benchmark, config))

    def test_telemetry_on_matches_off_and_keeps_the_spans(self):
        config = ExperimentConfig(
            geometry=BASELINE_GEOMETRY,
            benchmarks=BENCHMARKS,
            accesses_per_benchmark=4999,
            seed=2012,
        )
        for benchmark in BENCHMARKS:
            telemetry = Telemetry()
            observed = execute_row(benchmark, config, telemetry)
            assert_rows_equal(
                observed.results, execute_row(benchmark, config).results
            )
            calls = {
                name: count for name, count, _, _ in phase_timings(telemetry.registry)
            }
            techniques = len(config.techniques)
            assert calls == {"trace_gen": 1, "warmup": techniques, "measure": techniques}
