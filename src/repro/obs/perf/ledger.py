"""The bench-history ledger: append-only JSONL of hot-path runs.

One line per ``repro-8t bench --history`` run.  Each record carries the
workload identity (benchmark, geometry, accesses, seed), the
per-technique results (speedup, accesses/sec, raw seconds) and the
:func:`repro.obs.perf.env.environment_fingerprint` of the measuring
machine.  ``BENCH_hotpath.json`` remains the latest-snapshot view; the
ledger is the trajectory that the statistical gates
(:mod:`repro.obs.perf.gates`) and the trend report
(:mod:`repro.obs.perf.trend`) are built on.

Robustness rules, in the spirit of the checkpoint journal
(:mod:`repro.sim.checkpoint`): appends are single ``write()`` calls of
one line, reads skip torn or malformed lines instead of failing (a
half-written record from a killed run must not poison the history), and
unknown future schema versions are skipped, not guessed at.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.errors import ValidationError

__all__ = [
    "LEDGER_SCHEMA_VERSION",
    "DEFAULT_LEDGER_PATH",
    "LedgerEntry",
    "run_record",
    "append_run",
    "read_ledger",
]

#: Bump when the record shape changes incompatibly; readers skip
#: records from the future instead of misinterpreting them.
LEDGER_SCHEMA_VERSION = 1

#: Where ``repro-8t bench --history`` appends by default (repo-relative).
DEFAULT_LEDGER_PATH = Path("benchmarks") / "results" / "bench_history.jsonl"

#: Per-technique result fields copied into each ledger record.
#: Records written before the batched tier was retired also carry
#: ``batched_seconds``/``batched_accesses_per_second``/
#: ``columnar_speedup``, and their ``speedup`` is batched over scalar;
#: readers keep every stored key, and :meth:`LedgerEntry.speedup` maps
#: those records onto today's columnar-over-scalar ratio.
_RESULT_FIELDS = (
    "technique",
    "accesses",
    "scalar_seconds",
    "columnar_seconds",
    "scalar_accesses_per_second",
    "columnar_accesses_per_second",
    "speedup",
)

#: ``on_skip(line_number, reason)`` callback for unreadable records.
SkipCallback = Callable[[int, str], None]


@dataclass(frozen=True)
class LedgerEntry:
    """One parsed ledger record (one benchmark run, all techniques)."""

    schema: int
    timestamp_utc: str
    benchmark: str
    geometry: str
    accesses: int
    seed: int
    repeats: int
    env: Dict[str, Any] = field(default_factory=dict)
    results: Dict[str, Dict[str, float]] = field(default_factory=dict)

    # -- per-technique accessors --------------------------------------------

    @property
    def techniques(self) -> List[str]:
        return list(self.results)

    def speedup(self, technique: str) -> Optional[float]:
        """Columnar-over-scalar speedup; ``None`` when not measured.

        A record from the batched era (it carries ``batched_seconds``)
        stored batched over scalar as ``speedup``; its columnar ratio
        comes from the raw seconds when that run timed the columnar
        tier, and is ``None`` otherwise, so the gates never baseline
        one ratio against the other.
        """
        result = self.results.get(technique)
        if result is None:
            return None
        if "batched_seconds" not in result:
            return float(result.get("speedup", 0.0))
        columnar = result.get("columnar_seconds")
        if not columnar:
            return None
        return float(result["scalar_seconds"]) / float(columnar)

    def columnar_aps(self, technique: str) -> Optional[float]:
        """Columnar accesses/sec; ``None`` when not measured."""
        result = self.results.get(technique)
        if result is None or "columnar_accesses_per_second" not in result:
            return None
        return float(result["columnar_accesses_per_second"])

    # -- provenance shorthands ----------------------------------------------

    @property
    def commit(self) -> str:
        return str(self.env.get("commit", "unknown"))

    @property
    def short_commit(self) -> str:
        commit = self.commit
        dirty = "+dirty" if commit.endswith("+dirty") else ""
        base = commit[: -len("+dirty")] if dirty else commit
        return (base[:10] + dirty) if base != "unknown" else base

    @property
    def hostname(self) -> str:
        return str(self.env.get("hostname", "unknown"))

    @property
    def short_timestamp(self) -> str:
        """``YYYY-MM-DD HH:MM`` — enough to order runs by eye."""
        return self.timestamp_utc.replace("T", " ")[:16]

    def matches_workload(
        self, benchmark: str, geometry: str, accesses: int
    ) -> bool:
        """True when this entry measured the same workload shape.

        Speedups from different benchmarks, geometries or trace lengths
        are not comparable; the gates only baseline against matching
        entries.
        """
        return (
            self.benchmark == benchmark
            and self.geometry == geometry
            and self.accesses == accesses
        )


def _result_dict(result: Any) -> Dict[str, Any]:
    """Accept a ``BenchResult`` (duck-typed via ``to_dict``) or a dict."""
    if hasattr(result, "to_dict"):
        result = result.to_dict()
    if not isinstance(result, dict) or "technique" not in result:
        raise ValidationError(
            "ledger results must be BenchResult objects or to_dict() "
            f"dicts with a 'technique' key, got {type(result).__name__}"
        )
    return {key: result[key] for key in _RESULT_FIELDS if key in result}


def run_record(
    results: Sequence[Any],
    benchmark: str,
    geometry: str,
    accesses: int,
    seed: int,
    repeats: int,
    env: Optional[Dict[str, Any]] = None,
    timestamp: Optional[str] = None,
) -> Dict[str, Any]:
    """Build one ledger record from a hot-path bench run.

    ``results`` are :class:`repro.engine.bench.BenchResult` objects (or
    their ``to_dict`` form); ``env`` defaults to a fresh
    :func:`environment_fingerprint`, ``timestamp`` to UTC now.
    """
    if env is None:
        from repro.obs.perf.env import environment_fingerprint

        env = environment_fingerprint()
    if timestamp is None:
        from repro.obs.perf.env import utc_timestamp

        timestamp = utc_timestamp()
    return {
        "schema": LEDGER_SCHEMA_VERSION,
        "timestamp_utc": timestamp,
        "benchmark": benchmark,
        "geometry": geometry,
        "accesses": accesses,
        "seed": seed,
        "repeats": repeats,
        "env": dict(env),
        "results": [_result_dict(result) for result in results],
    }


def append_run(
    path: Union[str, Path], record: Dict[str, Any]
) -> Path:
    """Append one record as a single JSONL line (creating parents).

    The record is serialised first and written with one ``write()``
    call, so a crash mid-append leaves at most one torn final line —
    which :func:`read_ledger` skips on the next read.
    """
    if "schema" not in record or "results" not in record:
        raise ValidationError(
            "ledger record lacks 'schema'/'results'; build it with "
            "run_record()"
        )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(record, sort_keys=True) + "\n"
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line)
        handle.flush()
        os.fsync(handle.fileno())
    return path


def _parse_entry(payload: Dict[str, Any]) -> LedgerEntry:
    schema = payload["schema"]
    if not isinstance(schema, int) or schema > LEDGER_SCHEMA_VERSION:
        raise ValidationError(f"unsupported ledger schema {schema!r}")
    results: Dict[str, Dict[str, float]] = {}
    for result in payload["results"]:
        results[str(result["technique"])] = {
            key: value
            for key, value in result.items()
            if key != "technique"
        }
    return LedgerEntry(
        schema=schema,
        timestamp_utc=str(payload.get("timestamp_utc", "")),
        benchmark=str(payload["benchmark"]),
        geometry=str(payload["geometry"]),
        accesses=int(payload["accesses"]),
        seed=int(payload.get("seed", 0)),
        repeats=int(payload.get("repeats", 0)),
        env=dict(payload.get("env", {})),
        results=results,
    )


def read_ledger(
    path: Union[str, Path], on_skip: Optional[SkipCallback] = None
) -> List[LedgerEntry]:
    """Parse a ledger file, oldest first; a missing file is empty.

    Malformed lines — torn writes, hand-edits, records from a future
    schema — are skipped, reported through ``on_skip(line_number,
    reason)`` when given, and never abort the read: one bad line must
    not take the whole history offline.
    """
    path = Path(path)
    if not path.exists():
        return []
    entries: List[LedgerEntry] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
                if not isinstance(payload, dict):
                    raise ValidationError("record is not a JSON object")
                entries.append(_parse_entry(payload))
            except (ValueError, KeyError, TypeError) as exc:
                if on_skip is not None:
                    on_skip(line_number, f"{type(exc).__name__}: {exc}")
    return entries
