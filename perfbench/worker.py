"""One measuring process of the benchmark (started by ``run.py``).

Usage: ``python perfbench/worker.py '<json config>'``.  The config names
the workload, seed, working directory, how long to measure (null for a
set-up-only process), how many traced iterations to add and whether to
interleave them, and the monotonic time at which the parent spawned this
process, so that ``setup_s`` covers interpreter start, ``import repro``
and the workload's inputs.

The process sets up once, measures (see :func:`_measure`), and prints
one JSON object as the only line of its standard output.  The program's
own output goes to standard error.
"""

from __future__ import annotations

import json
import os
import re
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _health_ok(healths) -> bool:
    """Every campaign served every row from the store, none quarantined."""
    return bool(healths) and all(
        h is not None
        and h.consistent
        and h.cached == h.total
        and h.quarantined == 0
        and h.breaker_skipped == 0
        for h in healths
    )


def _reset_peak_rss() -> None:
    """Reset the process's resident-memory high-water mark (Linux)."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def _peak_rss_mb() -> float:
    status = Path("/proc/self/status").read_text()
    return int(re.search(r"^VmHWM:\s+(\d+) kB$", status, re.MULTILINE)[1]) / 1024.0


def main(argv) -> int:
    config = json.loads(argv[1])
    protocol = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # set-up covers the package import

    if Path(repro.__file__).resolve().parent != (ROOT / "src" / "repro").resolve():
        raise SystemExit(f"repro imported from {repro.__file__}, not this checkout")

    import workloads

    workload = workloads.make(
        config["workload"], config["seed"], Path(config["workdir"])
    )
    setup_output = workload.setup()
    result = {
        "setup_s": time.monotonic() - config["spawned"],
        "setup_digest": (
            workloads.digest(setup_output) if setup_output is not None else None
        ),
        "iterations": [],
        "traced": [],
    }
    if config["measure_s"] is not None:
        _measure(workload, config, result)
    protocol.write(json.dumps(result) + "\n")
    protocol.close()
    return 0


def _timed(workload) -> dict:
    import workloads

    workload.prepare()
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    text = workload.run()
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "digest": workloads.digest(text),
        "paper_gap_pp": workloads.paper_gap_pp(text),
    }


def _traced(workload) -> dict:
    import tracer
    import workloads
    from repro.analysis import FIGURE_IDS

    workload.prepare()
    with tracer.installed() as trace:
        with trace.root():
            text = workload.run()
    return {
        "digest": workloads.digest(text),
        "paper_gap_pp": workloads.paper_gap_pp(text),
        "wall_s": trace.root_s,
        "accesses": trace.simulated_accesses(),
        "counts": trace.count_metrics(),
        "metrics": trace.metrics(FIGURE_IDS),
        "health_ok": _health_ok(trace.campaign_health),
    }


def _measure(workload, config, result) -> None:
    """Timed iterations until ``measure_s`` is spent, then traced ones.

    The memory high-water mark is reset first, so ``peak_rss_mb`` is the
    peak of the timed iterations, not of set-up (``report_warm``'s
    set-up runs a cold report).  With ``interleave`` every timed
    iteration is followed by a traced one, so the two sample the machine
    over the same stretch of time and their ratio is not skewed by the
    host speeding up or slowing down.
    """
    iterations, traced = result["iterations"], result["traced"]
    interleave = config.get("interleave", False)
    _reset_peak_rss()
    deadline = time.perf_counter() + config["measure_s"]
    while (
        not iterations
        or time.perf_counter() < deadline
        or (interleave and len(traced) < config["traced"])
    ):
        iterations.append(_timed(workload))
        if interleave:
            traced.append(_traced(workload))
    result["peak_rss_mb"] = _peak_rss_mb()
    while len(traced) < config["traced"]:
        traced.append(_traced(workload))

    if config.get("environment"):
        from repro.obs.perf.env import environment_fingerprint

        try:
            import numpy

            numpy_version = numpy.__version__
        except ImportError:
            numpy_version = "absent"
        result["environment"] = dict(
            environment_fingerprint(cwd=ROOT), numpy=numpy_version
        )


if __name__ == "__main__":
    sys.exit(main(sys.argv))
