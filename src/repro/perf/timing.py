"""Port-contention timing model.

A lightweight in-order model: requests arrive at the cache at their
instruction count (1 IPC front end), the 8T array exposes one read port
and one write port (:class:`PortTracker`), and each array operation
holds its port for the :class:`PhaseTiming` durations.

What each technique schedules per request:

===============  ==========================================  =================
technique        read request                                 write request
===============  ==========================================  =================
conventional     R-port, read latency                         W-port
rmw              R-port, read latency                         R-port then W-port (serial)
wg               [W-port premature write-back] then R-port    [W-port evict] + R-port fill on
                                                              Tag-Buffer miss; buffer merge
wg_rb            Set-Buffer hit: buffer latency, no port      same as wg
===============  ==========================================  =================

Reads are on the critical path; the headline metric is mean read
latency (arrival to data), plus read-port conflict counts showing the
1R/1W parallelism RMW destroys and WG restores.

The controller runs on the columnar engine: :func:`repro.engine.
columnar.process_chunk` emits one port-plan code per record (see
:func:`repro.core.outcomes.port_plan`), and the scheduler is a single
loop over the plain-int ``(icount, kind, plan)`` columns.  Sub-array
banked controllers (``rmw_local``) schedule each bank's records on that
bank's :class:`PortTracker`; banks share no port, so the per-bank loops
are independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheGeometry
from repro.core.outcomes import (
    PLAN_ARRAY_READ,
    PLAN_ARRAY_WRITE,
    PLAN_BYPASS,
    PLAN_FORCED_WRITEBACK,
)
from repro.core.registry import make_controller
from repro.engine.columnar import ColumnarChunk, iter_chunks, process_chunk
from repro.errors import TypeContractError
from repro.sram.ports import PortKind, PortTracker
from repro.sram.timing import PhaseTiming
from repro.trace.record import MemoryAccess

__all__ = ["PerfResult", "TimingSimulator", "evaluate_performance"]


@dataclass(frozen=True)
class PerfResult:
    """Timing metrics of one run.

    ``read_port_busy`` sums over ``read_ports`` ports (one per sub-array
    for banked controllers).
    """

    technique: str
    reads: int
    writes: int
    total_read_latency: int
    read_port_conflicts: int
    write_port_conflicts: int
    read_port_busy: int
    write_port_busy: int
    elapsed_cycles: int
    bypassed_reads: int
    read_ports: int = 1

    @property
    def mean_read_latency(self) -> float:
        return self.total_read_latency / self.reads if self.reads else 0.0

    @property
    def read_port_utilisation(self) -> float:
        """Mean busy fraction of one read port over the run."""
        if self.elapsed_cycles <= 0:
            return 0.0
        return min(
            1.0, self.read_port_busy / (self.read_ports * self.elapsed_cycles)
        )


class TimingSimulator:
    """Runs a trace through a controller while scheduling array ports."""

    def __init__(
        self,
        technique: str,
        geometry: CacheGeometry,
        timing: Optional[PhaseTiming] = None,
        **controller_kwargs,
    ) -> None:
        timing = PhaseTiming() if timing is None else timing
        self.cache = SetAssociativeCache(geometry)
        self.controller = make_controller(
            technique, self.cache, **controller_kwargs
        )
        self.timing = timing
        # Park et al.'s local RMW confines port occupancy to one
        # sub-array: give such controllers one tracker per sub-array so
        # requests to other banks proceed concurrently.
        subarrays = getattr(self.controller, "subarrays", 1)
        self._trackers = [PortTracker() for _ in range(subarrays)]
        self.ports = self._trackers[0]
        # Kim et al.'s pulse assist stretches every write pulse.
        self._write_cycles = timing.array_write_cycles * getattr(
            self.controller, "write_cycle_factor", 1
        )
        self._reads = 0
        self._writes = 0
        self._total_read_latency = 0
        self._bypassed = 0
        self._last_arrival = 0

    def run(self, trace: Iterable[MemoryAccess]) -> PerfResult:
        """Decode ``trace`` into columnar chunks and :meth:`run_chunks`."""
        return self.run_chunks(iter_chunks(trace, self.cache.geometry))

    def run_chunks(self, chunks: Iterable[ColumnarChunk]) -> PerfResult:
        """Schedule pre-built chunks (e.g. shared by several techniques),
        then finalize the controller."""
        controller = self.controller
        trackers = self._trackers
        for chunk in chunks:
            plan = bytearray()
            process_chunk(controller, chunk, plan)
            if not len(chunk):
                continue
            self._last_arrival = max(self._last_arrival, int(chunk.icounts.max()))
            if len(trackers) == 1:
                self._schedule(
                    trackers[0], chunk.icounts.tolist(), chunk.kinds.tolist(), plan
                )
                continue
            bank_of = np.array(
                [controller.subarray_of(s) for s in chunk.set_indices.tolist()]
            )
            codes = np.frombuffer(plan, dtype=np.uint8)
            for bank, tracker in enumerate(trackers):
                sel = np.flatnonzero(bank_of == bank)
                if len(sel):
                    self._schedule(
                        tracker,
                        chunk.icounts[sel].tolist(),
                        chunk.kinds[sel].tolist(),
                        codes[sel].tolist(),
                    )
        controller.finalize()
        return PerfResult(
            technique=controller.name,
            reads=self._reads,
            writes=self._writes,
            total_read_latency=self._total_read_latency,
            read_port_conflicts=self._sum(PortKind.READ, "conflicts"),
            write_port_conflicts=self._sum(PortKind.WRITE, "conflicts"),
            read_port_busy=self._sum(PortKind.READ, "busy_cycles"),
            write_port_busy=self._sum(PortKind.WRITE, "busy_cycles"),
            elapsed_cycles=max(
                [self._last_arrival]
                + [max(tracker.free_at.values()) for tracker in trackers]
            ),
            bypassed_reads=self._bypassed,
            read_ports=len(trackers),
        )

    def _sum(self, port: PortKind, field: str) -> int:
        return sum(getattr(tracker, field)[port] for tracker in self._trackers)

    def _schedule(
        self,
        tracker: PortTracker,
        icounts: List[int],
        kinds: List[int],
        plan: Sequence[int],
    ) -> None:
        """Schedule one tracker's records, in trace order.

        The same reservations :meth:`PortTracker.acquire` makes, with the
        tracker's state held in locals: an operation starts when both
        its dependency and its port are ready, and a conflict is counted
        whenever the port made it wait.  Every read-port operation lasts
        ``array_read_cycles`` and every write-port one the (possibly
        pulse-stretched) write time, so busy cycles are operation counts
        times those durations.  Port free times only grow, so the run's
        elapsed time is read off the trackers at the end.
        """
        read_cycles = self.timing.array_read_cycles
        write_cycles = self._write_cycles
        buffer_cycles = self.timing.set_buffer_cycles
        read_free = tracker.free_at[PortKind.READ]
        write_free = tracker.free_at[PortKind.WRITE]
        read_ops = write_ops = read_conflicts = write_conflicts = 0
        reads = latency = bypassed = 0
        for arrival, kind, code in zip(icounts, kinds, plan):
            if not kind:
                reads += 1
                if code & PLAN_BYPASS:
                    # Served from the Set-Buffer: short fixed latency,
                    # no port.
                    bypassed += 1
                    latency += buffer_cycles
                    continue
            start = arrival
            if code & PLAN_FORCED_WRITEBACK:
                # The Set-Buffer write-back must land first.
                if write_free > start:
                    write_conflicts += 1
                    start = write_free
                write_ops += 1
                start += write_cycles
                write_free = start
            if not kind or code & PLAN_ARRAY_READ:
                # The read itself, or a write's RMW read phase /
                # Set-Buffer fill: either way the read port.
                if read_free > start:
                    read_conflicts += 1
                    start = read_free
                read_ops += 1
                start += read_cycles
                read_free = start
                if not kind:
                    latency += start - arrival
                    continue
            if code & PLAN_ARRAY_WRITE:
                # RMW write-back phase (grouped writes never get here).
                if write_free > start:
                    write_conflicts += 1
                    start = write_free
                write_ops += 1
                write_free = start + write_cycles
        tracker.free_at[PortKind.READ] = read_free
        tracker.free_at[PortKind.WRITE] = write_free
        tracker.busy_cycles[PortKind.READ] += read_ops * read_cycles
        tracker.busy_cycles[PortKind.WRITE] += write_ops * write_cycles
        tracker.conflicts[PortKind.READ] += read_conflicts
        tracker.conflicts[PortKind.WRITE] += write_conflicts
        self._reads += reads
        self._writes += len(kinds) - reads
        self._total_read_latency += latency
        self._bypassed += bypassed


def evaluate_performance(
    trace: Sequence[MemoryAccess],
    geometry: CacheGeometry,
    techniques: Sequence[str] = ("conventional", "rmw", "wg", "wg_rb"),
    timing: Optional[PhaseTiming] = None,
) -> dict:
    """Run the timing model for several techniques on one trace.

    The trace is decoded once; every technique replays the same chunks.
    """
    if iter(trace) is trace:
        raise TypeContractError("trace must be a reusable sequence")
    chunks = list(iter_chunks(trace, geometry))
    return {
        technique: TimingSimulator(technique, geometry, timing).run_chunks(chunks)
        for technique in techniques
    }
