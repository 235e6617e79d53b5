"""Inline structural invariant checks for cache and controller state.

:class:`InvariantChecker` is the debug-mode companion the fuzzer (and
any worried developer) can attach to a controller via
:meth:`repro.core.controller.CacheController.enable_invariant_checks`.
Once attached, every processed access is followed by a full structural
audit; a broken invariant raises :class:`repro.errors.
InvariantViolation` *at the access that broke it*, instead of
surfacing hundreds of accesses later as a counter diff.

Checked invariants:

* **Cache slots** (:meth:`SetAssociativeCache.check_invariants`) — at
  most one valid way per tag per set, tags within range, dirty bits
  only on valid ways, and (under stamp-LRU) valid ways carry distinct
  stamps strictly below the global tick while untouched ways stay at 0.
* **WG-family buffers** — a valid entry's tag snapshot matches the
  cache's current tags for its set (the flush-before-fill rule's
  guarantee), Set- and Tag-Buffer agree on the buffered set, at most
  one entry per set, modified words imply the Dirty bit (a pending
  write-back), and — with silent-write detection on — the Dirty bit
  implies modified words.
* **Event-log monotonicity** — no circuit-event or operation counter
  ever decreases between checks, and the derived ``array_accesses``
  stays the sum of its parts.

Checks are read-only: enabling them never changes simulation results,
only speed (the columnar kernels disengage so every access is
audited individually).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import InvariantViolation, ValidationError

__all__ = ["InvariantChecker", "check_controller_invariants"]


def check_controller_invariants(controller) -> None:
    """One-shot structural audit of a controller and its cache."""
    controller.cache.check_invariants()
    _check_buffers(controller)


def _check_buffers(controller) -> None:
    entries = getattr(controller, "buffer_entries", None)
    if entries is None:
        return
    cache = controller.cache
    detect = getattr(controller, "detect_silent_writes", False)
    seen_sets = set()
    for position, entry in enumerate(entries):
        tb, sb = entry.tag_buffer, entry.set_buffer
        where = f"buffer entry {position}"
        if not tb.valid:
            if tb.dirty:
                raise InvariantViolation(f"{where}: dirty but invalid")
            continue
        set_index = tb.set_index
        if set_index is None or not 0 <= set_index < cache.geometry.num_sets:
            raise InvariantViolation(
                f"{where}: buffered set {set_index!r} out of range"
            )
        if set_index in seen_sets:
            raise InvariantViolation(
                f"{where}: set {set_index} buffered by two entries"
            )
        seen_sets.add(set_index)
        if not sb.valid or sb.set_index != set_index:
            raise InvariantViolation(
                f"{where}: Set-Buffer holds set {sb.set_index!r}, "
                f"Tag-Buffer says {set_index}"
            )
        snapshot = tuple(tb.tags)
        current = tuple(cache.set_tags(set_index))
        if snapshot != current:
            raise InvariantViolation(
                f"{where}: tag snapshot {snapshot} stale against cache "
                f"tags {current} for set {set_index}"
            )
        if sb.has_modifications and not tb.dirty:
            raise InvariantViolation(
                f"{where}: {sb.modified_words} modified word(s) pending "
                "but the Dirty bit is clear (write-back would be lost)"
            )
        if detect and tb.dirty and not sb.has_modifications:
            raise InvariantViolation(
                f"{where}: Dirty bit set with no modified words while "
                "silent-write detection is on"
            )


class InvariantChecker:
    """Stateful checker: structure each step + monotone counters."""

    def __init__(self, every: int = 1) -> None:
        if every <= 0:
            raise ValidationError(f"every must be positive, got {every}")
        self.every = every
        self.checks_run = 0
        self._since_last = 0
        self._previous: Optional[Dict[str, int]] = None

    def after_access(self, controller) -> None:
        """Hook called by ``CacheController.process`` after each access."""
        self._since_last += 1
        if self._since_last < self.every:
            return
        self._since_last = 0
        self.check(controller)

    def check(self, controller) -> None:
        check_controller_invariants(controller)
        self._check_monotonicity(controller)
        self.checks_run += 1

    def _check_monotonicity(self, controller) -> None:
        events = controller.events
        snapshot = events.to_dict()
        if events.array_accesses != snapshot["row_reads"] + snapshot["row_writes"]:
            raise InvariantViolation(
                "event log: array_accesses is not row_reads + row_writes"
            )
        counts = controller.counts
        for name in ("read_requests", "write_requests", "rmw_operations"):
            snapshot[f"counts.{name}"] = getattr(counts, name)
        for name, value in snapshot.items():
            if value < 0:
                raise InvariantViolation(
                    f"event log: counter {name} went negative ({value})"
                )
        previous = self._previous
        if previous is not None:
            for name, value in snapshot.items():
                if value < previous[name]:
                    raise InvariantViolation(
                        f"event log: counter {name} decreased "
                        f"({previous[name]} -> {value})"
                    )
        self._previous = snapshot
