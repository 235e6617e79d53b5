"""Hot-path throughput benchmark: scalar vs batched vs columnar engine.

Replays one synthetic workload through every requested technique —
once through the scalar ``process()`` loop, once through the batched
``process_batch()`` engine, and (on request) once through the
columnar ``process_chunk()`` engine — and reports
accesses/second for each.  As a side effect every run cross-checks the
engines' event logs, so a benchmark run doubles as an end-to-end
equivalence check on a real workload.

Methodology: every engine is timed on pre-decoded input.  The scalar
engine consumes materialized records, the batched engine pre-built
:class:`AccessBatch` lists, the columnar engine pre-built
:class:`ColumnarChunk` arrays with their grouped projection
pre-computed — the projection is a pure trace transform cached on the
chunk and shared across techniques (see
:meth:`repro.engine.columnar.ColumnarChunk.grouped`), so it belongs to
the decode stage the benchmark deliberately excludes.

Entry points: ``repro-8t bench`` (CLI) and
``benchmarks/bench_hotpath.py`` (writes ``BENCH_hotpath.json`` for the
CI perf-smoke job).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.cache.config import BASELINE_GEOMETRY, CacheGeometry
from repro.core.registry import CONTROLLER_NAMES, make_controller
from repro.engine.batch import iter_batches
from repro.errors import ReproError, ValidationError
from repro.trace.record import MemoryAccess
from repro.workload.generator import generate_trace
from repro.workload.spec2006 import get_profile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cache.cache import SetAssociativeCache
    from repro.sram.events import SRAMEventLog

__all__ = ["BENCH_ENGINES", "BenchResult", "run_hotpath_bench", "bench_report"]


@dataclass(frozen=True)
class BenchResult:
    """Throughput of one technique under the measured engines.

    ``columnar_seconds`` is ``None`` when the columnar engine was not
    measured (not requested); ``to_dict`` omits the
    columnar keys in that case so existing snapshot consumers see the
    exact historical shape.
    """

    technique: str
    accesses: int
    scalar_seconds: float
    batched_seconds: float
    columnar_seconds: Optional[float] = None

    @property
    def scalar_aps(self) -> float:
        """Scalar accesses/second."""
        return self.accesses / self.scalar_seconds if self.scalar_seconds else 0.0

    @property
    def batched_aps(self) -> float:
        """Batched accesses/second."""
        return self.accesses / self.batched_seconds if self.batched_seconds else 0.0

    @property
    def speedup(self) -> float:
        """Batched over scalar throughput."""
        return self.scalar_seconds / self.batched_seconds if self.batched_seconds else 0.0

    @property
    def columnar_aps(self) -> float:
        """Columnar accesses/second (0.0 when not measured)."""
        if not self.columnar_seconds:
            return 0.0
        return self.accesses / self.columnar_seconds

    @property
    def columnar_speedup(self) -> float:
        """Columnar over *batched* throughput (0.0 when not measured)."""
        if not self.columnar_seconds:
            return 0.0
        return self.batched_seconds / self.columnar_seconds

    def to_dict(self) -> dict:
        doc = {
            "technique": self.technique,
            "accesses": self.accesses,
            "scalar_seconds": self.scalar_seconds,
            "batched_seconds": self.batched_seconds,
            "scalar_accesses_per_second": self.scalar_aps,
            "batched_accesses_per_second": self.batched_aps,
            "speedup": self.speedup,
        }
        if self.columnar_seconds is not None:
            doc["columnar_seconds"] = self.columnar_seconds
            doc["columnar_accesses_per_second"] = self.columnar_aps
            doc["columnar_speedup"] = self.columnar_speedup
        return doc


def _time_scalar(
    technique: str, trace: Sequence[MemoryAccess], geometry: CacheGeometry
) -> Tuple[float, "SRAMEventLog"]:
    controller = make_controller(technique, _fresh_cache(geometry))
    process = controller.process
    start = time.perf_counter()
    for access in trace:
        process(access)
    elapsed = time.perf_counter() - start
    controller.finalize()
    return elapsed, controller.events


def _time_batched(
    technique: str,
    trace: Sequence[MemoryAccess],
    geometry: CacheGeometry,
    batch_size: Optional[int],
) -> Tuple[float, "SRAMEventLog"]:
    controller = make_controller(technique, _fresh_cache(geometry))
    batches = list(iter_batches(trace, geometry, batch_size))
    process_batch = controller.process_batch
    start = time.perf_counter()
    for batch in batches:
        process_batch(batch)
    elapsed = time.perf_counter() - start
    controller.finalize()
    return elapsed, controller.events


def _time_columnar(
    technique: str,
    trace: Sequence[MemoryAccess],
    geometry: CacheGeometry,
    batch_size: Optional[int],
) -> Tuple[float, "SRAMEventLog"]:
    from repro.engine.columnar import iter_chunks, process_chunk

    controller = make_controller(technique, _fresh_cache(geometry))
    chunks = list(iter_chunks(trace, geometry, batch_size))
    for chunk in chunks:
        chunk.grouped()  # decode-stage projection (see module docstring)
    start = time.perf_counter()
    for chunk in chunks:
        process_chunk(controller, chunk)
    elapsed = time.perf_counter() - start
    controller.finalize()
    return elapsed, controller.events


def _fresh_cache(geometry: CacheGeometry) -> "SetAssociativeCache":
    from repro.cache.cache import SetAssociativeCache

    return SetAssociativeCache(geometry)


#: Engines ``run_hotpath_bench`` can time; scalar and batched are always
#: measured (they anchor the speedup baselines), columnar is opt-in.
BENCH_ENGINES = ("scalar", "batched", "columnar")


def run_hotpath_bench(
    techniques: Optional[Sequence[str]] = None,
    accesses: int = 200_000,
    geometry: CacheGeometry = BASELINE_GEOMETRY,
    benchmark: str = "bwaves",
    seed: int = 2012,
    batch_size: Optional[int] = None,
    repeats: int = 3,
    engines: Optional[Sequence[str]] = None,
) -> List[BenchResult]:
    """Measure per-engine throughput for each technique.

    ``engines`` selects which engines to time (default scalar +
    batched; add ``"columnar"`` for the second-generation engine).
    Scalar and batched are always measured: they
    anchor the recorded speedup baselines.  ``repeats`` runs of each
    engine are timed and the *fastest* kept (standard microbenchmark
    practice: the minimum is the least noisy estimator of the true
    cost).  Raises :class:`ReproError` if any two engines ever disagree
    on the resulting event log.
    """
    if repeats < 1:
        raise ValidationError(f"repeats must be >= 1, got {repeats}")
    engine_names = set(engines) if engines is not None else {"scalar", "batched"}
    unknown = engine_names.difference(BENCH_ENGINES)
    if unknown:
        raise ValidationError(
            f"unknown engine(s) {sorted(unknown)}; known: {BENCH_ENGINES}"
        )
    want_columnar = "columnar" in engine_names
    names = list(techniques) if techniques is not None else list(CONTROLLER_NAMES)
    trace = generate_trace(get_profile(benchmark), accesses, seed=seed)
    results: List[BenchResult] = []
    for technique in names:
        scalar_best = batched_best = columnar_best = float("inf")
        scalar_events = batched_events = columnar_events = None
        for _ in range(repeats):
            elapsed, events = _time_scalar(technique, trace, geometry)
            if elapsed < scalar_best:
                scalar_best = elapsed
            scalar_events = events
            elapsed, events = _time_batched(technique, trace, geometry, batch_size)
            if elapsed < batched_best:
                batched_best = elapsed
            batched_events = events
            if want_columnar:
                elapsed, events = _time_columnar(
                    technique, trace, geometry, batch_size
                )
                if elapsed < columnar_best:
                    columnar_best = elapsed
                columnar_events = events
        if scalar_events != batched_events:
            raise ReproError(
                f"engine mismatch for {technique!r}: scalar and batched "
                "event logs differ — the batched fast path is broken"
            )
        if want_columnar and scalar_events != columnar_events:
            raise ReproError(
                f"engine mismatch for {technique!r}: scalar and columnar "
                "event logs differ — the columnar fast path is broken"
            )
        results.append(
            BenchResult(
                technique=technique,
                accesses=len(trace),
                scalar_seconds=scalar_best,
                batched_seconds=batched_best,
                columnar_seconds=columnar_best if want_columnar else None,
            )
        )
    return results


def bench_report(
    results: Sequence[BenchResult],
    benchmark: str,
    geometry: CacheGeometry,
    floors: Optional[Dict[str, float]] = None,
    environment: Optional[Dict[str, object]] = None,
    timestamp: Optional[str] = None,
) -> dict:
    """The ``BENCH_hotpath.json`` document.

    ``floors`` maps technique -> minimum acceptable speedup; techniques
    below their floor are listed under ``"regressions"`` (CI fails when
    that list is non-empty).  ``environment`` and ``timestamp`` are
    taken as parameters (this module is determinism-fenced and must not
    read the wall clock itself); callers pass
    ``repro.obs.perf.environment_fingerprint()`` / a UTC timestamp so
    snapshots stay interpretable across machines.
    """
    regressions = []
    if floors:
        for result in results:
            floor = floors.get(result.technique)
            if floor is not None and result.speedup < floor:
                regressions.append(
                    {
                        "technique": result.technique,
                        "speedup": result.speedup,
                        "floor": floor,
                    }
                )
    report: dict = {
        "benchmark": benchmark,
        "geometry": geometry.describe(),
        "results": [result.to_dict() for result in results],
        "regressions": regressions,
    }
    if environment is not None:
        report["environment"] = dict(environment)
    if timestamp is not None:
        report["timestamp_utc"] = timestamp
    return report
