"""Smoke tests for the hot-path benchmark harness."""

import pytest

from repro.cache.config import CacheGeometry
from repro.engine.bench import BenchResult, bench_report, run_hotpath_bench


@pytest.fixture(scope="module")
def results():
    geometry = CacheGeometry(size_bytes=4 * 1024, associativity=4, block_bytes=32)
    return run_hotpath_bench(
        techniques=("conventional", "wg"),
        accesses=2_000,
        geometry=geometry,
        repeats=1,
    )


class TestRunHotpathBench:
    def test_measures_both_engines(self, results):
        assert [r.technique for r in results] == ["conventional", "wg"]
        for result in results:
            assert result.accesses == 2_000
            assert result.scalar_seconds > 0
            assert result.batched_seconds > 0
            assert result.scalar_aps > 0
            assert result.batched_aps > 0
            assert result.speedup > 0

    def test_rejects_bad_repeats(self):
        with pytest.raises(ValueError, match="repeats"):
            run_hotpath_bench(repeats=0)

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            run_hotpath_bench(engines=("scalar", "vectorised"))

    def test_columnar_unmeasured_by_default(self, results):
        for result in results:
            assert result.columnar_seconds is None
            assert result.columnar_aps == 0.0
            assert result.columnar_speedup == 0.0
            assert "columnar_seconds" not in result.to_dict()


class TestColumnarTier:
    def test_columnar_engine_measured(self):
        geometry = CacheGeometry(
            size_bytes=4 * 1024, associativity=4, block_bytes=32
        )
        results = run_hotpath_bench(
            techniques=("conventional",),
            accesses=2_000,
            geometry=geometry,
            repeats=1,
            engines=("scalar", "batched", "columnar"),
        )
        (result,) = results
        assert result.columnar_seconds is not None
        assert result.columnar_seconds > 0
        assert result.columnar_aps > 0
        assert result.columnar_speedup > 0
        doc = result.to_dict()
        assert doc["columnar_seconds"] == result.columnar_seconds
        assert doc["columnar_speedup"] == result.columnar_speedup
        # The ledger copies the columnar fields through additively.
        from repro.obs.perf.ledger import run_record

        record = run_record(
            results, "bwaves", geometry.describe(), 2_000, seed=1, repeats=1,
            env={}, timestamp="2026-01-01T00:00:00Z",
        )
        assert "columnar_speedup" in record["results"][0]


class TestBenchReport:
    def test_document_shape(self, results):
        report = bench_report(
            results,
            "bwaves",
            CacheGeometry(size_bytes=4 * 1024, associativity=4, block_bytes=32),
        )
        assert report["benchmark"] == "bwaves"
        assert len(report["results"]) == 2
        for row in report["results"]:
            assert set(row) == {
                "technique",
                "accesses",
                "scalar_seconds",
                "batched_seconds",
                "scalar_accesses_per_second",
                "batched_accesses_per_second",
                "speedup",
            }
        assert report["regressions"] == []

    def test_floor_violations_listed(self):
        fake = BenchResult(
            technique="conventional",
            accesses=100,
            scalar_seconds=1.0,
            batched_seconds=0.9,  # speedup 1.11x
        )
        geometry = CacheGeometry(size_bytes=512, associativity=2, block_bytes=32)
        report = bench_report(
            [fake], "bwaves", geometry, floors={"conventional": 3.0}
        )
        assert report["regressions"] == [
            {
                "technique": "conventional",
                "speedup": pytest.approx(1.0 / 0.9),
                "floor": 3.0,
            }
        ]

    def test_unfloored_techniques_ignored(self):
        fake = BenchResult(
            technique="wg", accesses=100, scalar_seconds=1.0, batched_seconds=1.0
        )
        geometry = CacheGeometry(size_bytes=512, associativity=2, block_bytes=32)
        report = bench_report([fake], "bwaves", geometry, floors={"rmw": 3.0})
        assert report["regressions"] == []
