"""Record the reference digests the benchmark checks outputs against.

Usage (from the repository root)::

    python3 perfbench/record_digests.py --seeds 0-63,2012

Renders the ``report`` and ``long_trace`` outputs at the benchmark's own
settings for every seed given, and merges their masked SHA-256 digests
into ``perfbench/digests.json``.  Run it only at a commit whose output is
known good: a later commit's outputs are checked against these digests.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def _seeds(text: str):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-63,2012")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "src"))
    path = HERE / "digests.json"
    table = json.loads(path.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as scratch:
        # report_warm renders report's bytes, so it shares report's digests.
        for name in ("report", "long_trace"):
            key = workloads.output_key(name)
            recorded = table.setdefault(key, {})
            for seed in _seeds(args.seeds):
                start = time.perf_counter()
                text = workloads.make(name, seed, Path(scratch)).run()
                recorded[str(seed)] = workloads.digest(text)
                print(
                    f"{key} seed {seed}: {recorded[str(seed)]} "
                    f"gap {workloads.paper_gap_pp(text):.4f} pp "
                    f"wall {time.perf_counter() - start:.3f} s",
                    flush=True,
                )
            table[key] = dict(sorted(recorded.items(), key=lambda kv: int(kv[0])))
            path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
