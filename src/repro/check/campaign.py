"""Oracle-differential fuzz campaigns with shrinking and corpus replay.

:func:`run_check_campaign` is the engine behind ``repro-8t check``:
for each iteration it asks the :class:`repro.check.fuzz.TraceFuzzer`
for a deterministic case (scenario, geometry, trace, batch size,
knobs), replays it through oracle / scalar / columnar for every
requested technique, shrinks any failing trace to a 1-minimal repro,
and optionally saves the repro to a corpus directory.
:func:`replay_corpus` re-runs saved repros as a regression gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.cache.config import CacheGeometry
from repro.check.corpus import CorpusEntry, iter_corpus, save_entry
from repro.check.differential import WG_FAMILY, run_differential
from repro.check.fuzz import FuzzCase, TraceFuzzer
from repro.check.shrink import DEFAULT_SHRINK_BUDGET, shrink_trace
from repro.core.registry import CONTROLLER_NAMES
from repro.errors import InvariantViolation, ReproError, ValidationError
from repro.store import ResultStore
from repro.trace.record import MemoryAccess

__all__ = ["CheckFailure", "CheckReport", "run_check_campaign", "replay_corpus"]


@dataclass
class CheckFailure:
    """One confirmed divergence, shrunk to a minimal repro."""

    technique: str
    scenario: str
    seed: int
    iteration: int
    geometry: CacheGeometry
    batch_size: int
    knobs: Dict[str, object]
    divergences: List[str]
    #: the 1-minimal failing trace (the original if shrinking was off).
    trace: Tuple[MemoryAccess, ...]
    original_length: int
    corpus_path: Optional[Path] = None

    def describe(self) -> str:
        lines = [
            f"{self.technique} diverged on scenario {self.scenario!r} "
            f"(seed {self.seed}, iteration {self.iteration}, "
            f"{self.geometry.describe()}, batch_size={self.batch_size}, "
            f"knobs={self.knobs})",
            f"  shrunk to {len(self.trace)} of {self.original_length} "
            "accesses:",
        ]
        lines += [f"    {access.describe()}" for access in self.trace]
        lines += [f"  {divergence}" for divergence in self.divergences[:8]]
        if len(self.divergences) > 8:
            lines.append(
                f"  ... and {len(self.divergences) - 8} more divergence(s)"
            )
        if self.corpus_path is not None:
            lines.append(f"  saved to {self.corpus_path}")
        return "\n".join(lines)


@dataclass
class CheckReport:
    """Outcome of one campaign (or one corpus replay)."""

    seed: int
    iterations: int
    techniques: Tuple[str, ...]
    cases_run: int = 0
    accesses_checked: int = 0
    failures: List[CheckFailure] = field(default_factory=list)
    #: scenario name -> cases run under it.
    scenario_cases: Dict[str, int] = field(default_factory=dict)
    #: replay verdicts served from a result store (see ``replay_corpus``).
    cached_cases: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.failures)} FAILURE(S)"
        return (
            f"check: {status} — {self.cases_run} cases "
            f"({self.accesses_checked} accesses) across "
            f"{len(self.techniques)} technique(s), seed {self.seed}"
        )


def _check_case(
    case_trace: Sequence[MemoryAccess],
    technique: str,
    geometry: CacheGeometry,
    batch_size: int,
    knobs: Dict[str, object],
    invariants: bool,
) -> List[str]:
    """Run one differential; invariant violations become divergences."""
    try:
        return run_differential(
            case_trace,
            technique,
            geometry,
            batch_size=batch_size,
            invariants=invariants,
            **knobs,
        )
    except InvariantViolation as exc:
        return [f"invariant violation: {exc}"]


def run_check_campaign(
    seed: int = 0,
    iterations: int = 100,
    techniques: Sequence[str] = CONTROLLER_NAMES,
    max_accesses: int = 400,
    shrink: bool = True,
    shrink_budget: int = DEFAULT_SHRINK_BUDGET,
    invariants: bool = True,
    corpus_dir: Optional[str] = None,
    geometries: Optional[Tuple[CacheGeometry, ...]] = None,
    progress: Optional[Callable[[int, FuzzCase], None]] = None,
) -> CheckReport:
    """Fuzz ``iterations`` cases through every technique's differential.

    Each iteration is checked under all ``techniques`` — an acceptance
    run like ``--seed 0 --iterations 200`` therefore executes
    ``200 * len(techniques)`` three-way differentials.  Shrinking and
    corpus saving only engage on failure, so a clean campaign costs
    nothing beyond the checks themselves.
    """
    for technique in techniques:
        if technique not in CONTROLLER_NAMES and technique not in WG_FAMILY:
            raise ValidationError(
                f"check campaign cannot model {technique!r}; "
                f"known: {CONTROLLER_NAMES}"
            )
    fuzzer = TraceFuzzer(
        seed=seed, max_accesses=max_accesses, geometries=geometries
    )
    report = CheckReport(
        seed=seed, iterations=iterations, techniques=tuple(techniques)
    )
    for iteration in range(iterations):
        case = fuzzer.case(iteration)
        if progress is not None:
            progress(iteration, case)
        report.scenario_cases[case.scenario] = (
            report.scenario_cases.get(case.scenario, 0) + 1
        )
        knobs = case.knobs()
        for technique in techniques:
            report.cases_run += 1
            report.accesses_checked += len(case.trace)
            divergences = _check_case(
                case.trace,
                technique,
                case.geometry,
                case.batch_size,
                knobs,
                invariants,
            )
            if not divergences:
                continue
            failure = _build_failure(
                case, technique, knobs, divergences,
                seed, iteration, shrink, shrink_budget, invariants,
            )
            if corpus_dir is not None:
                failure.corpus_path = save_entry(
                    corpus_dir, _to_corpus_entry(failure)
                )
            report.failures.append(failure)
    return report


def _build_failure(
    case: FuzzCase,
    technique: str,
    knobs: Dict[str, object],
    divergences: List[str],
    seed: int,
    iteration: int,
    shrink: bool,
    shrink_budget: int,
    invariants: bool,
) -> CheckFailure:
    trace: Sequence[MemoryAccess] = case.trace
    if shrink:
        trace = shrink_trace(
            case.trace,
            lambda candidate: bool(
                _check_case(
                    candidate,
                    technique,
                    case.geometry,
                    case.batch_size,
                    knobs,
                    invariants,
                )
            ),
            budget=shrink_budget,
        )
        # Report the divergences of the *shrunk* trace — that is the
        # repro a human will actually replay.
        divergences = _check_case(
            trace, technique, case.geometry, case.batch_size, knobs, invariants
        )
    return CheckFailure(
        technique=technique,
        scenario=case.scenario,
        seed=seed,
        iteration=iteration,
        geometry=case.geometry,
        batch_size=case.batch_size,
        knobs=dict(knobs),
        divergences=divergences,
        trace=tuple(trace),
        original_length=len(case.trace),
    )


def _to_corpus_entry(failure: CheckFailure) -> CorpusEntry:
    return CorpusEntry(
        technique=failure.technique,
        geometry=failure.geometry,
        trace=failure.trace,
        batch_size=failure.batch_size,
        knobs=failure.knobs,
        scenario=failure.scenario,
        seed=failure.seed,
        iteration=failure.iteration,
        divergences=failure.divergences,
    )


def replay_corpus(
    corpus_dir: str,
    invariants: bool = True,
    result_cache: Optional[Union[str, Path, ResultStore]] = None,
) -> CheckReport:
    """Re-run every saved repro; failures mean a bug has come back.

    With ``result_cache`` pointing at a :class:`repro.store.ResultStore`
    root (or an open store), each case's verdict is keyed on the corpus
    document, the invariant setting, and the current code version —
    replays are served from the store until the checker code changes,
    at which point every key rotates and the corpus is re-checked for
    real.  Store failures degrade to a plain recheck, never an error.
    """
    store: Optional[ResultStore] = None
    if isinstance(result_cache, ResultStore):
        store = result_cache
    elif result_cache is not None:
        try:
            store = ResultStore(Path(result_cache))
        except (ReproError, OSError):
            store = None
    report = CheckReport(seed=0, iterations=0, techniques=())
    techniques = set()
    for entry in iter_corpus(corpus_dir):
        techniques.add(entry.technique)
        report.cases_run += 1
        report.accesses_checked += len(entry.trace)
        report.scenario_cases[entry.scenario] = (
            report.scenario_cases.get(entry.scenario, 0) + 1
        )
        document = entry.to_document()
        divergences: Optional[List[str]] = None
        if store is not None:
            try:
                cached = store.get_verdict(document, invariants)
            except (ReproError, OSError):
                cached = None
            if cached is not None:
                raw = cached.get("divergences", [])
                if isinstance(raw, list):
                    divergences = [str(item) for item in raw]
                    report.cached_cases += 1
        if divergences is None:
            divergences = _check_case(
                entry.trace,
                entry.technique,
                entry.geometry,
                entry.batch_size,
                dict(entry.knobs),
                invariants,
            )
            if store is not None:
                try:
                    store.put_verdict(
                        document, invariants, {"divergences": divergences}
                    )
                except (ReproError, OSError):
                    pass
        if divergences:
            report.failures.append(
                CheckFailure(
                    technique=entry.technique,
                    scenario=entry.scenario,
                    seed=entry.seed,
                    iteration=entry.iteration,
                    geometry=entry.geometry,
                    batch_size=entry.batch_size,
                    knobs=dict(entry.knobs),
                    divergences=divergences,
                    trace=entry.trace,
                    original_length=len(entry.trace),
                )
            )
    report.techniques = tuple(sorted(techniques))
    return report
