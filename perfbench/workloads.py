"""The benchmark's workloads and the checks on their output.

Every workload drives the program through its public entry points with
the program's defaults; the only option it sets is the result-store
directory ``report_warm`` needs.

* ``report`` — a cold :func:`repro.analysis.generate_report` over every
  figure id at :data:`REPORT_ACCESSES` accesses per benchmark.  This is
  the ``repro-8t report`` path with every layer in its real proportion:
  each of the 25 traces is synthesised about eleven times and the
  scalar timing model is a large share.
* ``long_trace`` — ``reproduce_figure("fig9", benchmarks=...)`` at
  :data:`LONG_TRACE_ACCESSES`, sixty times ``report``'s length.  Each
  trace is synthesised once and the timing model never runs, so decode,
  kernels and the miss path dominate.  bwaves has the longest same-set
  runs, mcf is a pointer chase where most reads miss, gcc sits between.
* ``report_warm`` — the ``report`` run against a result store that
  set-up filled with a cold report, so the campaign rows come from store
  reads while the other figures still compute.  Each measured run gets
  a fresh copy of the filled store: every hit appends an LRU ``touch``
  to the index, and the index compacts after a few warm runs, so a
  shared store would make some runs pay for compaction and others not.
"""

from __future__ import annotations

import hashlib
import re
import shutil
from pathlib import Path
from typing import Callable, Dict, Optional

REPORT_ACCESSES = 500
LONG_TRACE_ACCESSES = 30_000
LONG_TRACE_BENCHMARKS = ("bwaves", "mcf", "gcc")

# The report embeds each figure's wall time, e.g. ``### fig9  (20.3s)``.
_TIMING = re.compile(r"^(### \S+)  \(\d+(?:\.\d+)?s\)$", re.MULTILINE)
# FigureResult.render() prints every summary value that has a paper value.
_PAPER_LINE = re.compile(
    r"^\S+: measured (-?\d+(?:\.\d+)?) \| paper (-?\d+(?:\.\d+)?)$", re.MULTILINE
)


def mask(text: str) -> str:
    """The output with the per-figure timing annotations masked."""
    return _TIMING.sub(r"\1  (-s)", text)


def digest(text: str) -> str:
    """SHA-256 of the masked output."""
    return hashlib.sha256(mask(text).encode("utf-8")).hexdigest()


def paper_gap_pp(text: str) -> float:
    """Mean |measured - paper| over every summary value with a paper value."""
    pairs = [(float(m), float(p)) for m, p in _PAPER_LINE.findall(text)]
    if not pairs:
        raise ValueError("output has no measured-vs-paper lines")
    return sum(abs(m - p) for m, p in pairs) / len(pairs)


def output_key(workload: str) -> str:
    """Names the output a workload renders, with the settings it depends on.

    ``report`` and ``report_warm`` render the same bytes, so they share
    a key; the digests recorded for one key hold only for its settings.
    """
    if workload == "long_trace":
        benchmarks = ",".join(LONG_TRACE_BENCHMARKS)
        return f"fig9[{benchmarks}]@{LONG_TRACE_ACCESSES}"
    if workload in ("report", "report_warm"):
        return f"report@{REPORT_ACCESSES}"
    raise ValueError(f"unknown workload {workload!r}; known: {list(NAMES)}")


class Workload:
    """One workload: untimed ``prepare`` then timed ``run`` per iteration."""

    def __init__(self, seed: int, workdir: Path, accesses: Optional[int]) -> None:
        self.seed = seed
        self.workdir = workdir
        self.accesses = accesses

    def setup(self) -> Optional[str]:
        """Build the workload's inputs; returns any output set-up renders."""
        return None

    def prepare(self) -> None:
        """Untimed per-iteration preparation."""

    def run(self) -> str:
        raise NotImplementedError


class Report(Workload):
    def run(self) -> str:
        from repro.analysis import generate_report

        return generate_report(
            accesses=self.accesses or REPORT_ACCESSES, seed=self.seed
        )


class LongTrace(Workload):
    def run(self) -> str:
        from repro.analysis import reproduce_figure

        result = reproduce_figure(
            "fig9",
            benchmarks=LONG_TRACE_BENCHMARKS,
            accesses=self.accesses or LONG_TRACE_ACCESSES,
            seed=self.seed,
        )
        return result.render()


class ReportWarm(Report):
    def setup(self) -> str:
        self.filled = self.workdir / "store-filled"
        self.store = self.workdir / "store-run"
        return self._with_store(self.filled, super().run)

    def prepare(self) -> None:
        if self.store.exists():
            shutil.rmtree(self.store)
        shutil.copytree(self.filled, self.store)

    def run(self) -> str:
        return self._with_store(self.store, super().run)

    @staticmethod
    def _with_store(root: Path, body: Callable[[], str]) -> str:
        from repro.sim.resilience import ExecutionPolicy, execution_policy

        with execution_policy(ExecutionPolicy(result_cache=str(root))):
            return body()


WORKLOADS: Dict[str, type] = {
    "report": Report,
    "long_trace": LongTrace,
    "report_warm": ReportWarm,
}
NAMES = tuple(WORKLOADS)


def make(
    name: str, seed: int, workdir: Path, accesses: Optional[int] = None
) -> Workload:
    try:
        cls = WORKLOADS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; known: {list(NAMES)}") from None
    return cls(seed, workdir, accesses)
