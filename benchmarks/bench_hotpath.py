"""Hot-path throughput benchmark — emits ``BENCH_hotpath.json``.

Standalone script (not a pytest benchmark)::

    PYTHONPATH=src python benchmarks/bench_hotpath.py \
        --out BENCH_hotpath.json

The JSON report carries the per-technique results plus an
``environment`` fingerprint (commit, Python, CPU model/count, hostname)
and a UTC timestamp, so an archived snapshot is interpretable long
after the runner that produced it is gone.

The static floors here are deliberately conservative (shared CI runners
are noisy; the script should only trip on a structural regression — a
technique falling off its fast path — not on scheduler jitter).  The CI
perf-smoke job now gates through ``repro-8t perf compare`` instead,
which ratchets these same floors upward against a rolling bench-history
baseline; this script remains the simple zero-history entry point.
Every run also cross-checks that the scalar and columnar engines
produce identical event logs, operation counts and cache statistics,
so it doubles as an end-to-end equivalence test.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.cache.config import BASELINE_GEOMETRY
from repro.engine.bench import bench_report, run_hotpath_bench
from repro.obs.perf import FALLBACK_SPEEDUP_FLOORS, environment_fingerprint, utc_timestamp

#: Minimum acceptable columnar/scalar speedup per technique.  Structural
#: floors, not performance targets — see the module docstring.  These
#: are the same fallback floors ``repro-8t perf compare`` ratchets up
#: from once the bench-history ledger has enough samples.
SPEEDUP_FLOORS = dict(FALLBACK_SPEEDUP_FLOORS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--benchmark", default="bwaves")
    parser.add_argument("--accesses", type=int, default=200_000)
    parser.add_argument("--seed", type=int, default=2012)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--out", default="BENCH_hotpath.json", help="report output path"
    )
    parser.add_argument(
        "--no-floors",
        action="store_true",
        help="measure only; never fail on a speedup regression",
    )
    args = parser.parse_args(argv)

    results = run_hotpath_bench(
        accesses=args.accesses,
        benchmark=args.benchmark,
        seed=args.seed,
        repeats=args.repeats,
    )
    floors = None if args.no_floors else SPEEDUP_FLOORS
    report = bench_report(
        results,
        args.benchmark,
        BASELINE_GEOMETRY,
        floors=floors,
        environment=environment_fingerprint(),
        timestamp=utc_timestamp(),
    )
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")

    for result in results:
        print(
            f"{result.technique:<14} scalar {result.scalar_aps:>12,.0f}/s   "
            f"columnar {result.columnar_aps:>12,.0f}/s   "
            f"speedup {result.speedup:.2f}x"
        )
    print(f"wrote {args.out}")
    if report["regressions"]:
        for regression in report["regressions"]:
            print(
                f"REGRESSION: {regression['technique']} speedup "
                f"{regression['speedup']:.2f}x is below the "
                f"{regression['floor']:.2f}x floor",
                file=sys.stderr,
            )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
