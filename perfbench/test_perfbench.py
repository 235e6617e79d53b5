"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench -q``.
They run the workloads at reduced trace lengths, so they take seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from repro.analysis import FIGURE_IDS  # noqa: E402

REDUCED = {"report": 300, "report_warm": 300, "long_trace": 3_000}


def _traced_runs(name, workdir, runs=2):
    workload = workloads.make(name, 5, workdir, REDUCED[name])
    workload.setup()
    out = []
    for _ in range(runs):
        workload.prepare()
        with tracer.installed() as trace:
            with trace.root():
                text = workload.run()
        out.append((trace, workloads.digest(text)))
    return out


def _counts(trace):
    return {
        name: value
        for name, (value, unit) in trace.metrics(FIGURE_IDS).items()
        if unit == "count"
    }


@pytest.mark.parametrize("name", ["report", "long_trace", "report_warm"])
def test_count_metrics_repeat_exactly(name, tmp_path):
    (first, digest_a), (second, digest_b) = _traced_runs(name, tmp_path)
    assert digest_a == digest_b
    assert _counts(first) == _counts(second)
    assert first.count_metrics() == second.count_metrics()
    counts = _counts(first)
    assert counts["core.records.batched"] > 0
    assert counts["engine.records_decoded"] > 0
    assert counts["workload.generate_calls"] > 0
    assert sum(counts[f"core.array_accesses.{t}"] for t in tracer.TECHNIQUES) > 0


def test_layer_self_times_sum_to_traced_wall(tmp_path):
    ((trace, _),) = _traced_runs("long_trace", tmp_path, runs=1)
    # Self times partition the root span, so they sum to the traced wall.
    assert sum(trace.self_s.values()) == pytest.approx(trace.root_s, rel=1e-9)
    metrics = trace.metrics(FIGURE_IDS)
    assert metrics["analysis.figure_s.fig9"][0] > 0
    assert metrics["perf.timing_s"][0] == 0
    assert metrics["workload.trace_reuse"][0] == 1.0


def test_warm_report_serves_every_campaign_row_from_the_store(tmp_path):
    workload = workloads.make("report_warm", 5, tmp_path, REDUCED["report_warm"])
    cold = workload.setup()
    workload.prepare()
    with tracer.installed() as trace:
        with trace.root():
            warm = workload.run()
    assert workloads.digest(warm) == workloads.digest(cold)
    assert worker._health_ok(trace.campaign_health)
    counts = trace.count_metrics()
    assert counts["store.hits"] == counts["sim.rows_cached"] > 0
    assert counts.get("sim.rows_executed", 0) == 0


def test_shims_rebind_every_binding_and_restore_them():
    import repro.sim.campaign as campaign
    from repro.workload import generator

    original = generator.generate_trace
    with tracer.installed():
        still_bound = [
            module.__name__
            for module in tracer._repro_modules()
            if any(value is original for value in vars(module).values())
        ]
        assert still_bound == []
        assert campaign.generate_trace is generator.generate_trace
    assert campaign.generate_trace is original
    assert generator.generate_trace is original


def test_mask_hides_only_the_timing_annotations():
    a = "### fig9  (20.3s)\n\n```\nfig9: measured 27.123 | paper 27.000\n```"
    b = a.replace("20.3s", "3.0s")
    assert workloads.mask(a) == workloads.mask(b)
    assert workloads.digest(a) == workloads.digest(b)
    assert workloads.digest(a) != workloads.digest(a.replace("27.123", "27.124"))
    assert workloads.paper_gap_pp(a) == pytest.approx(0.123)


def test_run_fails_without_the_program(tmp_path):
    root = HERE.parent
    shutil.copy(root / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "report",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
