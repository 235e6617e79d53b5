"""Benchmark-suite campaigns — the engine behind Figures 9, 10 and 11.

A campaign synthesises one trace per benchmark, replays it through
every technique (with a warm-up slice excluded from accounting) and
collects the per-benchmark access-reduction numbers plus suite
averages.

Fault tolerance
---------------
Campaigns are the long-running shape of this codebase, so they are
*recoverable*, not merely observable:

* Each benchmark runs under the active :class:`RetryPolicy` —
  transient failures are retried with backoff, and a benchmark that
  exhausts its budget is **quarantined** into
  ``CampaignResult.failed_rows`` instead of aborting the suite
  (``strict=True`` restores fail-fast via
  :class:`CampaignFailedError`).
* With ``checkpoint=...`` every completed row is durably journaled as
  it finishes; re-running the same config resumes from the journal and
  only executes missing benchmarks (see :mod:`repro.sim.checkpoint`).
* With ``result_cache=...`` (or ``--result-cache``) completed rows are
  committed to a durable content-addressed store
  (:class:`repro.store.ResultStore`) keyed on config + workload + code
  version; a later campaign with any overlapping rows serves them from
  the store without invoking the simulator, and corrupt or
  version-skewed entries are quarantined and transparently recomputed.
* With ``RetryPolicy.breaker_threshold`` set, a benchmark that keeps
  failing trips its circuit breaker and is *skipped* (quarantined as
  ``FailedRow.breaker_skipped``) instead of soaking up retries.
* All degradation events flow through ``repro.obs`` counters
  (``retry.attempt``, ``campaign.quarantined``, ``store.hit``,
  ``breaker.open``, ``checkpoint.resumed_rows``, ...).
* Every row is accounted for in ``CampaignResult.health``:
  ``cached + recomputed + quarantined + breaker_skipped == total``.

Per-benchmark *timeouts* need process isolation and therefore live in
:func:`repro.sim.parallel.run_campaign_parallel`; the in-process runner
here honours retries, quarantine and checkpointing with identical
semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.cache.config import CacheGeometry
from repro.engine.columnar import ColumnarChunk
from repro.errors import (
    BreakerOpenError,
    CampaignFailedError,
    ReproError,
    StoreError,
    ValidationError,
)
from repro.faultinject.plan import maybe_inject
from repro.obs.spans import span
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.sim.experiment import ExperimentConfig
from repro.sim.resilience import (
    CircuitBreaker,
    ExecutionPolicy,
    FailedRow,
    RetryPolicy,
    active_policy,
    retry_call,
)
from repro.sim.simulator import SimulationResult, Simulator
from repro.sram.events import SRAMEventLog
from repro.workload.generator import generate_columns
from repro.workload.spec2006 import get_profile

__all__ = [
    "BenchmarkRow",
    "CampaignHealth",
    "CampaignResult",
    "run_campaign",
    "run_geometry_sweep",
]

CheckpointArg = Union[str, Path, None]
#: ``result_cache`` accepts a store root path or an opened
#: :class:`repro.store.ResultStore` (tests share one across runs).
ResultCacheArg = Union[str, Path, object, None]


@dataclass(frozen=True)
class BenchmarkRow:
    """All techniques' results for one benchmark."""

    benchmark: str
    results: Dict[str, SimulationResult]

    def array_accesses(self, technique: str) -> int:
        return self.results[technique].array_accesses

    def access_reduction(self, technique: str, baseline: str = "rmw") -> float:
        baseline_accesses = self.array_accesses(baseline)
        if baseline_accesses == 0:
            return 0.0
        return 1.0 - self.array_accesses(technique) / baseline_accesses

    @property
    def rmw_overhead(self) -> float:
        conventional = self.array_accesses("conventional")
        if conventional == 0:
            return 0.0
        return self.array_accesses("rmw") / conventional - 1.0


@dataclass(frozen=True)
class CampaignHealth:
    """Where every row of a campaign came from (the degradation ledger).

    The four sourcing buckets partition the suite exactly::

        cached + recomputed + quarantined + breaker_skipped == total

    ``cached`` counts rows served without re-simulation — from the
    result store *or* a resumed checkpoint journal
    (``checkpoint_resumed`` breaks out the journal share for
    operators; it is a subset of ``cached``, not a fifth bucket).
    ``healed`` counts store entries that failed validation and were
    quarantined + recomputed this run (those rows sit in
    ``recomputed``).
    """

    total: int
    cached: int
    recomputed: int
    quarantined: int
    breaker_skipped: int
    checkpoint_resumed: int = 0
    healed: int = 0

    @property
    def consistent(self) -> bool:
        """True when the four buckets account for every row exactly."""
        return (
            self.cached
            + self.recomputed
            + self.quarantined
            + self.breaker_skipped
            == self.total
        )

    def describe(self) -> str:
        parts = [
            f"{self.total} row(s): {self.cached} cached",
            f"{self.recomputed} recomputed",
            f"{self.quarantined} quarantined",
            f"{self.breaker_skipped} breaker-skipped",
        ]
        extras = []
        if self.checkpoint_resumed:
            extras.append(f"{self.checkpoint_resumed} from checkpoint")
        if self.healed:
            extras.append(f"{self.healed} healed")
        suffix = f" ({', '.join(extras)})" if extras else ""
        return ", ".join(parts) + suffix


@dataclass(frozen=True)
class CampaignResult:
    """Suite-wide results for one geometry.

    ``rows`` holds the benchmarks that completed; ``failed_rows`` the
    ones quarantined after exhausting their retry budget or skipped by
    an open circuit breaker (empty unless a non-strict campaign hit
    persistent failures).  Aggregates are computed over the completed
    rows only.  ``health`` records how each row was sourced (cache /
    recompute / quarantine / breaker skip).
    """

    config: ExperimentConfig
    rows: List[BenchmarkRow]
    failed_rows: List[FailedRow] = field(default_factory=list)
    health: Optional[CampaignHealth] = None

    @cached_property
    def _rows_by_benchmark(self) -> Dict[str, BenchmarkRow]:
        # Safe to cache on the frozen instance: rows are assembled once
        # at construction and never mutated afterwards.
        return {row.benchmark: row for row in self.rows}

    @property
    def complete(self) -> bool:
        """True when no benchmark was quarantined."""
        return not self.failed_rows

    def row(self, benchmark: str) -> BenchmarkRow:
        try:
            return self._rows_by_benchmark[benchmark]
        except KeyError:
            raise ValidationError(f"benchmark {benchmark!r} not in campaign") from None

    def mean_reduction(self, technique: str, baseline: str = "rmw") -> float:
        """Arithmetic mean of per-benchmark reductions (the paper's avg)."""
        if not self.rows:
            return 0.0
        return sum(
            row.access_reduction(technique, baseline) for row in self.rows
        ) / len(self.rows)

    def max_reduction(self, technique: str, baseline: str = "rmw") -> float:
        return max(
            (row.access_reduction(technique, baseline) for row in self.rows),
            default=0.0,
        )

    def best_benchmark(self, technique: str, baseline: str = "rmw") -> str:
        """Benchmark with the largest reduction for ``technique``."""
        if not self.rows:
            raise ValidationError("empty campaign")
        return max(
            self.rows, key=lambda row: row.access_reduction(technique, baseline)
        ).benchmark

    @property
    def mean_rmw_overhead(self) -> float:
        if not self.rows:
            return 0.0
        return sum(row.rmw_overhead for row in self.rows) / len(self.rows)

    @property
    def max_rmw_overhead(self) -> float:
        return max((row.rmw_overhead for row in self.rows), default=0.0)

    def total_events(self, technique: str) -> SRAMEventLog:
        """Suite-wide event log for one technique (``__add__``-folded)."""
        return sum(
            (row.results[technique].events for row in self.rows),
            SRAMEventLog(),
        )


def execute_row(
    benchmark: str,
    config: ExperimentConfig,
    telemetry: Optional[Telemetry] = None,
    attempt: int = 1,
) -> BenchmarkRow:
    """One benchmark through every technique (the unit of retry).

    Consults the fault-injection hook first, so the harness can crash,
    hang or transiently fail exactly this (benchmark, attempt).

    The trace is generated once, as NumPy columns, and address-split
    for ``config.geometry`` once.  Its warm-up slice ``[0, warmup)``
    and measured slice ``[warmup, n)`` become lists of zero-copy
    :class:`ColumnarChunk` views that every technique replays on the
    columnar engine, so each chunk's grouped projection is computed
    once per row rather than once per technique.  With telemetry
    enabled, :func:`repro.engine.columnar.process_chunk` falls back to
    per-access execution, so samplers and trace sinks still see every
    request and the row stays bit-identical.
    """
    maybe_inject("worker", benchmark=benchmark, attempt=attempt)
    telem = telemetry if telemetry is not None else NULL_TELEMETRY
    profile = get_profile(benchmark)
    with span(telem, "trace_gen", benchmark=benchmark):
        trace = ColumnarChunk.from_columns(
            config.geometry,
            *generate_columns(
                profile, config.accesses_per_benchmark, seed=config.seed
            ),
        )
    warmup = config.warmup_accesses
    warmup_chunks = list(trace.slices(0, warmup))
    measure_chunks = list(trace.slices(warmup))
    results: Dict[str, SimulationResult] = {}
    for technique in config.techniques:
        simulator = Simulator(technique, config.geometry, telemetry=telemetry)
        if warmup:
            with span(telem, "warmup", technique=technique):
                simulator.feed_chunks(warmup_chunks)
            simulator.reset_measurements()
        with span(telem, "measure", technique=technique):
            simulator.feed_chunks(measure_chunks)
        results[technique] = simulator.finish()
        # Free this technique's cache before the next one is built.
        del simulator
    return BenchmarkRow(benchmark=benchmark, results=results)


# -- checkpoint plumbing shared with the parallel runner ----------------------------


def _open_campaign_journal(checkpoint: CheckpointArg, config: ExperimentConfig):
    """(journal, resumed rows) for ``checkpoint`` (None -> (None, {}))."""
    if checkpoint is None:
        return None, {}
    from repro.sim import checkpoint as ckpt

    store = ckpt.as_store(checkpoint)
    journal = store.open_campaign(config)
    resumed: Dict[str, BenchmarkRow] = {}
    for key, payload in journal.rows.items():
        if key in config.benchmarks:
            resumed[key] = ckpt.deserialize_row(payload)
    return journal, resumed


def _journal_row(journal, row: BenchmarkRow) -> None:
    if journal is not None:
        from repro.sim import checkpoint as ckpt

        journal.append(row.benchmark, ckpt.serialize_row(row))


def _report_resume(telem: Telemetry, journal, resumed_count: int) -> None:
    if journal is None or not telem.enabled:
        return
    if resumed_count:
        telem.registry.inc("checkpoint.resumed_rows", resumed_count)
        telem.instant(
            "checkpoint.resumed",
            category="resilience",
            rows=resumed_count,
            path=str(journal.path),
        )
    if journal.skipped_records:
        telem.registry.inc("checkpoint.skipped_records", journal.skipped_records)


def emit_degradation(telem: Telemetry, name: str, **details) -> None:
    """Route one degradation event through counters + trace instants."""
    if not telem.enabled:
        return
    telem.registry.inc(name)
    telem.instant(name, category="resilience", **details)


# -- result-store plumbing shared with the parallel runner --------------------------


def _open_result_store(
    result_cache: ResultCacheArg, policy: ExecutionPolicy, telem: Telemetry
):
    """Open (or pass through) the campaign's result store.

    An unusable store root *degrades* — the campaign runs uncached
    behind a ``warning.store.open_failed`` — rather than failing work
    that does not need the cache to be correct.
    """
    if result_cache is None:
        return None
    from repro.store import ResultStore

    if isinstance(result_cache, ResultStore):
        return result_cache

    def on_event(name: str, **details) -> None:
        emit_degradation(telem, name, **details)

    try:
        return ResultStore(
            result_cache,
            max_bytes=policy.result_cache_max_bytes,
            on_event=on_event,
        )
    except (StoreError, OSError) as exc:
        telem.warn(
            "store.open_failed",
            f"result cache disabled for this campaign: {exc}",
            root=str(result_cache),
        )
        return None


def _store_load_row(
    store, config: ExperimentConfig, benchmark: str, telem: Telemetry
) -> Optional[BenchmarkRow]:
    """Validated store lookup -> row, or None on any miss/degradation."""
    from repro.sim import checkpoint as ckpt

    try:
        payload = store.get_row(config, benchmark)
    except (ReproError, OSError) as exc:
        telem.warn(
            "store.get_failed",
            f"result-store lookup failed for {benchmark}: {exc}",
            benchmark=benchmark,
        )
        return None
    if payload is None:
        return None
    try:
        return ckpt.deserialize_row(payload)
    except (ReproError, KeyError, TypeError, ValueError) as exc:
        # The entry checksummed but does not decode as a row — a
        # serializer drift the CRC cannot see.  Treat as a miss.
        telem.warn(
            "store.decode_failed",
            f"cached row for {benchmark} does not decode: {exc}",
            benchmark=benchmark,
        )
        return None


def _store_save_row(
    store, config: ExperimentConfig, row: BenchmarkRow, telem: Telemetry
) -> None:
    """Commit a completed row; a failed cache write never fails the row."""
    from repro.sim import checkpoint as ckpt

    try:
        store.put_row(config, row.benchmark, ckpt.serialize_row(row))
    except (ReproError, OSError) as exc:
        telem.warn(
            "store.put_failed",
            f"could not cache row {row.benchmark}: {exc}",
            benchmark=row.benchmark,
        )


def _resolve(
    retry: Optional[RetryPolicy],
    strict: Optional[bool],
    checkpoint: CheckpointArg,
    result_cache: ResultCacheArg = None,
) -> Tuple[RetryPolicy, bool, CheckpointArg, ResultCacheArg, ExecutionPolicy]:
    policy = active_policy()
    return (
        retry if retry is not None else policy.retry,
        strict if strict is not None else policy.strict,
        checkpoint if checkpoint is not None else policy.checkpoint,
        result_cache if result_cache is not None else policy.result_cache,
        policy,
    )


def run_campaign(
    config: ExperimentConfig,
    telemetry: Optional[Telemetry] = None,
    *,
    retry: Optional[RetryPolicy] = None,
    strict: Optional[bool] = None,
    checkpoint: CheckpointArg = None,
    result_cache: ResultCacheArg = None,
) -> CampaignResult:
    """Run every benchmark through every technique, in process.

    Parameters left as None fall back to the ambient
    :class:`ExecutionPolicy` (see :func:`execution_policy`); if that
    policy requests multiple processes, execution is delegated to
    :func:`repro.sim.parallel.run_campaign_parallel`.

    With ``result_cache``, rows whose exact (config, workload, code
    version) are already in the store are served from it — zero
    simulator invocations — and newly computed rows are committed
    back.  ``CampaignResult.health`` accounts for every row's
    provenance either way.

    With ``telemetry``, each campaign phase (trace-gen, warm-up,
    measure) runs under a span and the controllers are instrumented.
    """
    retry, strict, checkpoint, result_cache, policy = _resolve(
        retry, strict, checkpoint, result_cache
    )
    if policy.processes is not None and policy.processes > 1:
        from repro.sim.parallel import run_campaign_parallel

        return run_campaign_parallel(
            config,
            processes=policy.processes,
            telemetry=telemetry,
            retry=retry,
            strict=strict,
            checkpoint=checkpoint,
            result_cache=result_cache,
        )
    telem = telemetry if telemetry is not None else NULL_TELEMETRY
    store = _open_result_store(result_cache, policy, telem)
    journal, resumed = _open_campaign_journal(checkpoint, config)
    cached: Dict[str, BenchmarkRow] = {}
    healed = 0
    try:
        _report_resume(telem, journal, len(resumed))
        pending = [b for b in config.benchmarks if b not in resumed]
        if store is not None:
            still_pending = []
            for benchmark in pending:
                corrupt_before = store.counters["corrupt"]
                row = _store_load_row(store, config, benchmark, telem)
                healed += store.counters["corrupt"] - corrupt_before
                if row is not None:
                    cached[benchmark] = row
                    _journal_row(journal, row)
                else:
                    still_pending.append(benchmark)
            pending = still_pending
        breaker = (
            CircuitBreaker(retry.breaker_threshold)
            if retry.breaker_threshold is not None
            else None
        )
        executed, failed = _run_rows_resilient(
            pending,
            config,
            telemetry,
            retry,
            strict,
            journal,
            telem,
            breaker=breaker,
            store=store,
        )
    finally:
        if journal is not None:
            journal.close()
    completed: Dict[str, BenchmarkRow] = {}
    completed.update(resumed)
    completed.update(cached)
    completed.update(executed)
    rows = [
        completed[benchmark]
        for benchmark in config.benchmarks
        if benchmark in completed
    ]
    health = CampaignHealth(
        total=len(config.benchmarks),
        cached=len(resumed) + len(cached),
        recomputed=len(executed),
        quarantined=sum(1 for f in failed if not f.breaker_skipped),
        breaker_skipped=sum(1 for f in failed if f.breaker_skipped),
        checkpoint_resumed=len(resumed),
        healed=healed,
    )
    return CampaignResult(
        config=config, rows=rows, failed_rows=failed, health=health
    )


def _run_rows_resilient(
    benchmarks: Sequence[str],
    config: ExperimentConfig,
    telemetry: Optional[Telemetry],
    retry: RetryPolicy,
    strict: bool,
    journal,
    telem: Telemetry,
    breaker: Optional[CircuitBreaker] = None,
    store=None,
) -> Tuple[Dict[str, BenchmarkRow], List[FailedRow]]:
    """Sequential resilient execution of ``benchmarks`` (shared with
    the parallel runner's ``processes=1`` path)."""
    completed: Dict[str, BenchmarkRow] = {}
    failed: List[FailedRow] = []

    def on_event(name: str, **details) -> None:
        emit_degradation(telem, name, **details)

    for benchmark in benchmarks:
        try:
            row = retry_call(
                lambda attempt, _b=benchmark: execute_row(
                    _b, config, telemetry, attempt
                ),
                policy=retry,
                seed=config.seed,
                name=benchmark,
                on_event=on_event,
                breaker=breaker,
            )
        except ReproError as exc:
            skipped = isinstance(exc, BreakerOpenError)
            failure = FailedRow(
                benchmark=benchmark,
                attempts=(
                    breaker.failures(benchmark)
                    if skipped and breaker is not None
                    else retry.max_attempts
                ),
                error_type=type(exc).__name__,
                error=str(exc),
                breaker_skipped=skipped,
            )
            if strict:
                raise CampaignFailedError(
                    f"campaign failed (strict): {failure.describe()}",
                    failed_rows=[failure],
                ) from exc
            failed.append(failure)
            if skipped:
                emit_degradation(
                    telem, "breaker.skip", benchmark=benchmark
                )
            else:
                emit_degradation(
                    telem,
                    "campaign.quarantined",
                    benchmark=benchmark,
                    error=failure.error_type,
                )
            continue
        completed[benchmark] = row
        _journal_row(journal, row)
        if store is not None:
            _store_save_row(store, config, row, telem)
    return completed, failed


def run_geometry_sweep(
    config: ExperimentConfig, geometries: Sequence[CacheGeometry]
) -> Dict[str, CampaignResult]:
    """Run the campaign once per geometry (Figures 10/11).

    Returns results keyed by ``geometry.describe()``.  Each geometry's
    campaign is an independent config, so under a directory-mode
    checkpoint every geometry journals (and resumes) separately.
    """
    return {
        geometry.describe(): run_campaign(config.with_geometry(geometry))
        for geometry in geometries
    }
