"""Three-way differential check: oracle vs scalar vs columnar.

One :func:`run_differential` call replays a single trace through

* the :class:`repro.check.oracle.ReferenceOracle` (independent model),
* the scalar engine (``CacheController.process`` per record), and
* the columnar engine (:func:`repro.engine.columnar.process_chunk` on
  a :class:`repro.sim.simulator.Simulator`'s controller), collecting
  the per-record port-plan column the timing model schedules from,

then compares every observable the models share: per-read values
(oracle vs scalar, access by access), circuit events, operation counts,
hit/miss statistics, the port-plan column (columnar vs
:func:`repro.core.outcomes.port_plan` of each scalar outcome, record by
record), and the final memory image after draining the controller and
flushing every dirty line.  The return value is a flat list of
human-readable divergence strings — empty means the models agree on
everything.
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields
from typing import Dict, Iterable, List, Optional, Sequence

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheGeometry
from repro.cache.memory import FunctionalMemory
from repro.check.oracle import ORACLE_TECHNIQUES, OracleRun, ReferenceOracle
from repro.core.outcomes import port_plan
from repro.core.registry import make_controller
from repro.engine.columnar import iter_chunks, process_chunk
from repro.sim.simulator import Simulator
from repro.trace.record import MemoryAccess

__all__ = ["run_differential", "WG_FAMILY"]

WG_FAMILY = ("wg", "wg_rb")
"""Techniques that accept the Set-Buffer knobs."""


def _controller_kwargs(
    technique: str,
    count_miss_traffic: bool,
    detect_silent_writes: bool,
    entries: int,
) -> Dict[str, object]:
    kwargs: Dict[str, object] = {"count_miss_traffic": count_miss_traffic}
    if technique in WG_FAMILY:
        kwargs["detect_silent_writes"] = detect_silent_writes
        kwargs["entries"] = entries
    return kwargs


def _run_scalar(
    trace: Sequence[MemoryAccess],
    technique: str,
    geometry: CacheGeometry,
    kwargs: Dict[str, object],
    invariants: bool,
):
    """Scalar reference run; returns (controller, cache, outcomes, memory)."""
    memory = FunctionalMemory()
    cache = SetAssociativeCache(geometry, memory)
    controller = make_controller(technique, cache, **kwargs)
    if invariants:
        controller.enable_invariant_checks()
    outcomes = controller.run(list(trace))
    cache.flush_all_dirty()
    return controller, cache, outcomes, memory.snapshot()


def _run_columnar(
    trace: Sequence[MemoryAccess],
    technique: str,
    geometry: CacheGeometry,
    kwargs: Dict[str, object],
    batch_size: Optional[int],
):
    """Columnar run; returns (result, memory, port-plan column)."""
    simulator = Simulator(technique, geometry, batch_size=batch_size, **kwargs)
    plan = bytearray()
    for chunk in iter_chunks(trace, geometry, batch_size):
        process_chunk(simulator.controller, chunk, plan)
    result = simulator.finish()
    simulator.cache.flush_all_dirty()
    return result, simulator.memory.snapshot(), plan


def _diff_mapping(
    label: str, reference: Dict[str, int], candidate: Dict[str, int]
) -> List[str]:
    return [
        f"{label}.{name}: {reference[name]} != {candidate[name]}"
        for name in sorted(reference)
        if reference[name] != candidate.get(name)
    ]


def _as_dict(obj) -> Dict[str, int]:
    return {
        f.name: getattr(obj, f.name) for f in dataclass_fields(type(obj))
    }


def _diff_plan(
    label: str,
    trace: Sequence[MemoryAccess],
    outcomes,
    plan: bytearray,
) -> List[str]:
    """The first record whose port-plan code differs, if any."""
    expected = bytes(port_plan(outcome) for outcome in outcomes)
    if expected == plan:
        return []
    if len(expected) != len(plan):
        return [f"{label} plan: {len(plan)} codes for {len(expected)} records"]
    i = next(i for i, (a, b) in enumerate(zip(expected, plan)) if a != b)
    return [
        f"{label} plan at access {i} ({trace[i].describe()}): "
        f"expected {expected[i]}, got {plan[i]}"
    ]


def _nonzero(memory: Dict[int, int]) -> Dict[int, int]:
    return {word: value for word, value in memory.items() if value != 0}


def run_differential(
    trace: Iterable[MemoryAccess],
    technique: str,
    geometry: CacheGeometry,
    batch_size: Optional[int] = None,
    count_miss_traffic: bool = False,
    detect_silent_writes: bool = True,
    entries: int = 1,
    invariants: bool = False,
) -> List[str]:
    """Replay ``trace`` through all three models; returns divergences.

    ``invariants=True`` additionally runs the scalar engine with the
    inline invariant checker enabled (structural checks after every
    access); an :class:`repro.errors.InvariantViolation` propagates so
    the caller sees the exact broken invariant, not a downstream diff.
    """
    trace = list(trace)
    kwargs = _controller_kwargs(
        technique, count_miss_traffic, detect_silent_writes, entries
    )

    controller, cache, outcomes, scalar_memory = _run_scalar(
        trace, technique, geometry, kwargs, invariants
    )

    divergences: List[str] = []

    # -- scalar vs columnar: must be bit-identical ---------------------------
    candidate, candidate_memory, plan = _run_columnar(
        trace, technique, geometry, kwargs, batch_size
    )
    label = "scalar-vs-columnar"
    divergences += _diff_plan(label, trace, outcomes, plan)
    divergences += _diff_mapping(
        f"{label} events",
        controller.events.to_dict(),
        candidate.events.to_dict(),
    )
    divergences += _diff_mapping(
        f"{label} counts",
        _as_dict(controller.counts),
        _as_dict(candidate.counts),
    )
    divergences += _diff_mapping(
        f"{label} stats",
        _as_dict(cache.stats),
        _as_dict(candidate.cache_stats),
    )
    if scalar_memory != candidate_memory:
        delta = {
            word
            for word in set(scalar_memory) | set(candidate_memory)
            if scalar_memory.get(word, 0) != candidate_memory.get(word, 0)
        }
        divergences.append(
            f"{label} memory: "
            f"{len(delta)} word(s) differ, first at word "
            f"{min(delta)}"
        )

    # -- oracle vs scalar ---------------------------------------------------
    if technique in ORACLE_TECHNIQUES:
        oracle_run = ReferenceOracle(
            technique,
            geometry,
            count_miss_traffic=count_miss_traffic,
            detect_silent_writes=detect_silent_writes,
            entries=entries,
        ).run(trace)
        divergences += _diff_oracle(
            oracle_run, trace, outcomes, controller, cache, scalar_memory
        )
    return divergences


def _diff_oracle(
    oracle_run: OracleRun,
    trace: Sequence[MemoryAccess],
    outcomes,
    controller,
    cache,
    scalar_memory: Dict[int, int],
) -> List[str]:
    divergences: List[str] = []
    for i, (access, outcome, expected) in enumerate(
        zip(trace, outcomes, oracle_run.read_values)
    ):
        if access.is_read and outcome.value != expected:
            divergences.append(
                f"oracle-vs-scalar read value at access {i} "
                f"({access.describe()}): expected {expected}, "
                f"got {outcome.value}"
            )
            break  # one value divergence is enough to localise
    divergences += _diff_mapping(
        "oracle-vs-scalar events",
        oracle_run.events,
        controller.events.to_dict(),
    )
    divergences += _diff_mapping(
        "oracle-vs-scalar counts",
        oracle_run.counts,
        _as_dict(controller.counts),
    )
    divergences += _diff_mapping(
        "oracle-vs-scalar stats", oracle_run.stats, _as_dict(cache.stats)
    )
    scalar_nonzero = _nonzero(scalar_memory)
    if oracle_run.memory != scalar_nonzero:
        delta = {
            word
            for word in set(oracle_run.memory) | set(scalar_nonzero)
            if oracle_run.memory.get(word, 0) != scalar_nonzero.get(word, 0)
        }
        divergences.append(
            "oracle-vs-scalar memory: "
            f"{len(delta)} word(s) differ, first at word {min(delta)}"
        )
    return divergences
