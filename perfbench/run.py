"""End-to-end benchmark of the reproduction, with per-layer attribution.

Usage (from the repository root)::

    python3 perfbench/run.py --workload report --seed 7 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints the per-layer metrics of one traced iteration.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted`` and
``failed`` count output checks, so ``fail_ratio`` = failed / attempted.

Load comes from one process at a time.  An untraced run starts
:data:`PROCESSES` fresh worker processes one after another; all of them
set up, and ``setup_s`` is the median of their set-up times.  The last
one then measures for ``--seconds`` (at least one iteration) and gives
``peak_rss_mb``, ``wall_s`` and ``cpu_s`` (means over its
iterations), and adds one traced iteration whose exact simulated-access
count is the numerator of ``sim_accesses_per_s``.  A traced run uses one
process that alternates untraced and traced iterations for
``--seconds`` (at least :data:`TRACED_ITERATIONS` pairs); the traced
iteration with the median wall gives the per-layer metrics, every traced
iteration's counts must repeat exactly, and ``trace_overhead`` is that
wall over the untraced median.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

PROCESSES = 3
TRACED_ITERATIONS = 2
#: Wall-clock budget for the whole run, which must end within 180 s.
BUDGET_S = 170.0
#: The share of traced wall the non-``analysis`` layers should cover.
COVERAGE_TARGET = 0.95


class BenchError(RuntimeError):
    pass


def _spawn(config: dict, deadline: float) -> dict:
    config = dict(config, spawned=time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(config)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded the run's time budget") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = out.decode("utf-8").splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def _recorded_digest(key: str, seed: int):
    path = HERE / "digests.json"
    table = json.loads(path.read_text(encoding="utf-8"))
    return table.get(key, {}).get(str(seed))


def _check_outputs(results, reference, checks) -> str:
    """Every rendered output, masked, must equal the reference digest
    (the recorded one, or else the first output of this run)."""
    digests = []
    for result in results:
        if result["setup_digest"] is not None:
            digests.append(result["setup_digest"])
        digests.extend(it["digest"] for it in result["iterations"])
        digests.extend(t["digest"] for t in result["traced"])
    expected = reference or digests[0]
    compared = digests if reference else digests[1:]
    for value in compared:
        checks.append(value == expected)
    return digests[0]


def _check_health(traced, workload, checks) -> None:
    if workload == "report_warm":
        checks.extend(t["health_ok"] for t in traced)


def _end_to_end(results) -> dict:
    # Mean, not median, over the iterations: the host's speed drifts in
    # phases of tens of seconds, and the mean averages over the whole
    # measured stretch where a median picks one phase.
    measured = results[-1]
    wall = statistics.fmean(it["wall_s"] for it in measured["iterations"])
    return {
        "wall_s": wall,
        "cpu_s": statistics.fmean(it["cpu_s"] for it in measured["iterations"]),
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "peak_rss_mb": measured["peak_rss_mb"],
        "sim_accesses_per_s": measured["traced"][0]["accesses"] / wall,
    }


def _per_layer(result, checks) -> dict:
    traced = sorted(result["traced"], key=lambda t: t["wall_s"])
    counts = [t["counts"] for t in traced]
    checks.append(all(c == counts[0] for c in counts))
    middle = traced[(len(traced) - 1) // 2]
    metrics = {name: value for name, (value, _unit) in middle["metrics"].items()}
    metrics["trace_overhead"] = middle["wall_s"] / statistics.median(
        it["wall_s"] for it in result["iterations"]
    )
    metrics["analysis.paper_gap_pp"] = middle["paper_gap_pp"]
    return metrics


def _declared(trace: int):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def run(args) -> dict:
    deadline = time.monotonic() + BUDGET_S
    work = ROOT / ".perfbench_work" / str(os.getpid())
    base = {"workload": args.workload, "seed": args.seed}
    try:
        if args.trace:
            configs = [dict(base, measure_s=args.seconds, traced=TRACED_ITERATIONS,
                            interleave=True, environment=True)]
        else:
            configs = [dict(base, measure_s=None)] * (PROCESSES - 1) + [
                dict(base, measure_s=args.seconds, traced=1, environment=True)
            ]
        results = []
        for i, config in enumerate(configs):
            results.append(_spawn(dict(config, workdir=str(work / str(i))), deadline))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    key = workloads.output_key(args.workload)
    reference = _recorded_digest(key, args.seed)
    checks = []
    first = _check_outputs(results, reference, checks)
    traced = [t for r in results for t in r["traced"]]
    _check_health(traced, args.workload, checks)
    values = _per_layer(results[0], checks) if args.trace else _end_to_end(results)

    print("environment: " + json.dumps(results[-1]["environment"], sort_keys=True))
    status = "matches the recorded digest" if reference else "no digest recorded"
    print(f"output {key} seed {args.seed}: sha256 {first} ({status})")
    metrics = {}
    for spec in _declared(args.trace):
        name, unit = spec["name"], spec["unit"]
        if name not in values:
            raise BenchError(f"declared metric {name!r} was not measured")
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name} = {values[name]:.6g} {unit}")
    if args.trace:
        coverage = values["analysis.layer_coverage"]
        shortfall = max(0.0, COVERAGE_TARGET - coverage)
        print(f"layer coverage {coverage:.4f} against target {COVERAGE_TARGET} "
              f"(shortfall {shortfall:.4f})")
    gap = results[-1]["iterations"][0]["paper_gap_pp"]
    print(f"paper_gap_pp = {gap:.6g} pp (mean |measured - paper|; fixed by the seed)")
    failed = checks.count(False)
    print(f"fail_ratio = {failed / len(checks):.6g} ({failed} of {len(checks)} checks)")
    return {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=2012)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        summary = run(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
