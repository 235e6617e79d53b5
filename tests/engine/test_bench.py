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
            assert result.columnar_seconds > 0
            assert result.scalar_aps > 0
            assert result.columnar_aps > 0
            assert result.speedup == pytest.approx(
                result.scalar_seconds / result.columnar_seconds
            )

    def test_rejects_bad_repeats(self):
        with pytest.raises(ValueError, match="repeats"):
            run_hotpath_bench(repeats=0)


class TestColumnarTier:
    def test_columnar_engine_measured(self, results):
        from repro.obs.perf.ledger import run_record

        doc = results[0].to_dict()
        assert doc["columnar_seconds"] == results[0].columnar_seconds
        assert doc["speedup"] == results[0].speedup
        # The ledger copies the columnar fields through.
        record = run_record(
            results, "bwaves", "4KB/4-way/32B", 2_000, seed=1, repeats=1,
            env={}, timestamp="2026-01-01T00:00:00Z",
        )
        row = record["results"][0]
        assert row["columnar_seconds"] == results[0].columnar_seconds
        assert row["speedup"] == results[0].speedup


class TestCrossCheck:
    """A kernel that disagrees with scalar must fail the bench."""

    @pytest.mark.parametrize(
        "corrupt, what",
        [
            (lambda c: setattr(c.events, "row_reads", c.events.row_reads + 1),
             "event logs"),
            (lambda c: setattr(c.counts, "grouped_writes",
                               c.counts.grouped_writes + 1),
             "operation counts"),
            (lambda c: setattr(c.cache.stats, "read_hits",
                               c.cache.stats.read_hits + 1),
             "cache statistics"),
        ],
        ids=["events", "counts", "stats"],
    )
    def test_mismatch_raises(self, corrupt, what, monkeypatch):
        from repro.engine import columnar
        from repro.errors import ReproError

        original = columnar._process_chunk_wg

        def buggy(controller, chunk):
            codes = original(controller, chunk)
            corrupt(controller)
            return codes

        monkeypatch.setattr(columnar, "_process_chunk_wg", buggy)
        with pytest.raises(ReproError, match=what):
            run_hotpath_bench(techniques=("wg",), accesses=500, repeats=1)


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
                "columnar_seconds",
                "scalar_accesses_per_second",
                "columnar_accesses_per_second",
                "speedup",
            }
        assert report["regressions"] == []

    def test_floor_violations_listed(self):
        fake = BenchResult(
            technique="conventional",
            accesses=100,
            scalar_seconds=1.0,
            columnar_seconds=0.9,  # speedup 1.11x
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
            technique="wg", accesses=100, scalar_seconds=1.0, columnar_seconds=1.0
        )
        geometry = CacheGeometry(size_bytes=512, associativity=2, block_bytes=32)
        report = bench_report([fake], "bwaves", geometry, floors={"rmw": 3.0})
        assert report["regressions"] == []
