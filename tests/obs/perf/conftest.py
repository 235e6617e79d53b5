"""Shared builders for the performance-observatory tests."""

import pytest

from repro.obs.perf import append_run, run_record

WORKLOAD = {
    "benchmark": "bwaves",
    "geometry": "64KB/4-way/32B",
    "accesses": 200_000,
}

ENV = {
    "commit": "a" * 40,
    "python": "3.11.7",
    "python_impl": "CPython",
    "cpu_count": 1,
    "cpu_model": "test-cpu",
    "hostname": "testhost",
    "platform": "linux",
}


def result_dict(technique, speedup, scalar_seconds=1.0):
    """One ``BenchResult.to_dict()``-shaped result with a given speedup."""
    columnar_seconds = scalar_seconds / speedup
    accesses = WORKLOAD["accesses"]
    return {
        "technique": technique,
        "accesses": accesses,
        "scalar_seconds": scalar_seconds,
        "columnar_seconds": columnar_seconds,
        "scalar_accesses_per_second": accesses / scalar_seconds,
        "columnar_accesses_per_second": accesses / columnar_seconds,
        "speedup": speedup,
    }


def make_record(speedups, timestamp="2026-08-08T10:00:00+00:00", **overrides):
    """A full ledger record for a run with ``technique -> speedup``."""
    workload = dict(WORKLOAD)
    workload.update(overrides)
    return run_record(
        [result_dict(t, s) for t, s in speedups.items()],
        benchmark=workload["benchmark"],
        geometry=workload["geometry"],
        accesses=workload["accesses"],
        seed=2012,
        repeats=3,
        env=ENV,
        timestamp=timestamp,
    )


@pytest.fixture
def ledger_path(tmp_path):
    return tmp_path / "bench_history.jsonl"


@pytest.fixture
def seeded_ledger(ledger_path):
    """A ledger with five quiet runs for conventional/wg."""
    for i, conv in enumerate((8.0, 8.1, 7.9, 8.2, 8.0)):
        append_run(
            ledger_path,
            make_record(
                {"conventional": conv, "wg": 4.0 + 0.05 * i},
                timestamp=f"2026-08-0{i + 1}T10:00:00+00:00",
            ),
        )
    return ledger_path
