"""In-memory layer tracer for the benchmark's traced run.

The tracer times calls into each layer's public functions from outside
the program: :func:`installed` wraps every traced callable and rebinds,
by identity, each ``repro.*`` module attribute that *is* the original
(``generate_trace``, for one, is bound in ``repro.sim.campaign`` and
seven ``repro.analysis`` modules), and patches traced methods on their class.
Moving an import therefore never silently drops a layer.

It deliberately does not use ``repro.obs.Telemetry``: an enabled
telemetry forces every controller onto the scalar path, so it would
trace a different engine from the one the untraced runs time.

Spans live on an in-memory stack.  A span's self time is its duration
minus the time of the spans it encloses, so the per-layer self times
sum exactly to the root span, and everything the shims do not cover
lands in the root's layer (``analysis``) as the named remainder.
Nothing is written until :meth:`Tracer.metrics` is read at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

TECHNIQUES = ("conventional", "rmw", "wg", "wg_rb")
TIERS = ("scalar", "batched", "columnar")
_CACHE_FIELDS = ("read_misses", "write_misses", "evictions", "dirty_evictions")

_now = time.perf_counter


class _Frame:
    __slots__ = ("layer", "start", "child_s", "child_records")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.child_s = 0.0
        self.child_records = 0
        self.start = _now()


class Tracer:
    """Span stack plus the counters the shims record at layer boundaries."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.distinct_traces: Dict[Tuple[Any, int, int], int] = {}
        self.campaign_health: List[Any] = []
        self.root_s = 0.0
        self._stack: List[_Frame] = []

    # -- span bookkeeping ------------------------------------------------

    def _enter(self, layer: str) -> _Frame:
        frame = _Frame(layer)
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, key: Optional[str] = None) -> float:
        duration = _now() - frame.start
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError("tracer spans closed out of order")
        self.self_s[key or frame.layer] += duration - frame.child_s
        if self._stack:
            self._stack[-1].child_s += duration
        return duration

    @contextmanager
    def root(self) -> Iterator[None]:
        """The whole traced iteration, as an ``analysis`` span."""
        if self._stack:
            raise RuntimeError("root span opened inside another span")
        frame = self._enter("analysis")
        try:
            yield
        finally:
            self.root_s += self._exit(frame)

    def _parent_layer(self) -> Optional[str]:
        return self._stack[-1].layer if self._stack else None

    # -- wrappers ----------------------------------------------------------

    def call(
        self,
        fn: Callable,
        layer: str,
        name: str,
        on_return: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """Time every call of ``fn`` as one ``layer`` span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.incl_s[name] += tracer._exit(frame)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced

    def kernel(self, fn: Callable, tier: str) -> Callable:
        """Time a controller entry point; attribute its records to ``tier``.

        A record belongs to the innermost tier that ran it: a
        ``process_chunk`` that falls back to ``process_batch`` hands its
        records to the batched tier, and a ``process_batch`` that replays
        through ``process`` hands them to the scalar tier.
        """
        tracer = self
        per_record = tier == "scalar"

        @functools.wraps(fn)
        def traced(controller, *args, **kwargs):
            frame = tracer._enter("core")
            try:
                result = fn(controller, *args, **kwargs)
            finally:
                tracer._exit(frame, key="core." + controller.name)
            records = 1 if per_record else int(result)
            tracer.counts["core.records." + tier] += records - frame.child_records
            if tracer._stack:
                tracer._stack[-1].child_records += records
            return result

        return traced

    def decoder(self, fn: Callable, layer: str) -> Callable:
        """Time each ``next()`` of a decoding generator as a span.

        Records are counted only by the outermost decode span, so a
        chunk lifted from a decoded batch is not counted twice.
        """
        tracer = self

        def timed(iterator):
            while True:
                frame = tracer._enter(layer)
                try:
                    item = next(iterator)
                except StopIteration:
                    tracer._exit(frame)
                    return
                except BaseException:
                    tracer._exit(frame)
                    raise
                tracer._exit(frame)
                if tracer._parent_layer() != layer:
                    tracer.counts["engine.records_decoded"] += len(item)
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return timed(iter(fn(*args, **kwargs)))

        return traced

    # -- boundary counters --------------------------------------------------

    def _on_generate(self, signature: inspect.Signature):
        def record(args, kwargs, trace) -> None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            key = (
                bound.arguments["profile"],
                bound.arguments["num_accesses"],
                bound.arguments["seed"],
            )
            self.counts["workload.generate_calls"] += 1
            self.distinct_traces[key] = len(trace)

        return record

    def _on_finish(self, args, kwargs, result) -> None:
        stats = result.cache_stats
        for field in _CACHE_FIELDS:
            self.counts["cache." + field] += getattr(stats, field)
        self.counts["cache.accesses"] += stats.accesses
        self.counts["core.array_accesses." + result.technique] += (
            result.array_accesses
        )

    def _on_timing(self, args, kwargs, result) -> None:
        self.counts["perf.timing_accesses"] += result.reads + result.writes

    def _on_get_row(self, args, kwargs, payload) -> None:
        self.counts["store.hits" if payload is not None else "store.misses"] += 1

    def _on_campaign(self, args, kwargs, result) -> None:
        self.campaign_health.append(result.health)

    def _counter(self, name: str) -> Callable[..., None]:
        def record(args, kwargs, result) -> None:
            self.counts[name] += 1

        return record

    # -- results ---------------------------------------------------------------

    def metrics(self, figure_ids) -> Dict[str, Tuple[float, str]]:
        """Per-layer metrics as ``{name: (value, unit)}``."""
        s, c, incl = self.self_s, self.counts, self.incl_s
        kernel = {t: s.get("core." + t, 0.0) for t in TECHNIQUES}
        kernel_total = sum(s[k] for k in s if k.startswith("core."))
        calls = c["workload.generate_calls"]
        distinct_records = sum(self.distinct_traces.values())
        decoded = c["engine.records_decoded"]
        hits, misses = c["store.hits"], c["store.misses"]
        timing_run_s = incl.get("perf.TimingSimulator.run", 0.0)
        m: Dict[str, Tuple[float, str]] = {
            "workload.generate_s": (s["workload"], "s"),
            "workload.generate_calls": (calls, "count"),
            "workload.distinct_traces": (len(self.distinct_traces), "count"),
            "workload.trace_reuse": (_ratio(len(self.distinct_traces), calls), "ratio"),
            "engine.decode_s": (s["engine.decode"], "s"),
            "engine.project_s": (s["engine.project"], "s"),
            "engine.records_decoded": (decoded, "count"),
            "engine.decode_reuse": (_ratio(distinct_records, decoded), "ratio"),
            "core.kernel_s": (kernel_total, "s"),
        }
        for technique in TECHNIQUES:
            m["core.kernel_s." + technique] = (kernel[technique], "s")
        for tier in TIERS:
            m["core.records." + tier] = (c["core.records." + tier], "count")
        for technique in TECHNIQUES:
            name = "core.array_accesses." + technique
            m[name] = (c[name], "count")
        for field in _CACHE_FIELDS:
            m["cache." + field] = (c["cache." + field], "count")
        m["cache.miss_ratio"] = (
            _ratio(c["cache.read_misses"] + c["cache.write_misses"], c["cache.accesses"]),
            "ratio",
        )
        m.update({
            "perf.timing_s": (s["perf"], "s"),
            "perf.timing_accesses": (c["perf.timing_accesses"], "count"),
            "perf.timing_accesses_per_s": (
                _ratio(c["perf.timing_accesses"], timing_run_s), "1/s"
            ),
            "sim.rows_executed": (c["sim.rows_executed"], "count"),
            "sim.rows_cached": (self._rows_cached(), "count"),
            "sim.campaign_self_s": (s["sim"], "s"),
            "store.open_s": (incl.get("store.ResultStore.__init__", 0.0), "s"),
            "store.get_s": (incl.get("store.ResultStore.get_row", 0.0), "s"),
            "store.put_s": (incl.get("store.ResultStore.put_row", 0.0), "s"),
            "store.hits": (hits, "count"),
            "store.misses": (misses, "count"),
            "store.hit_ratio": (_ratio(hits, hits + misses), "ratio"),
            "power.estimate_s": (s["power"], "s"),
            "power.estimate_calls": (c["power.estimate_calls"], "count"),
            "trace.stats_s": (s["trace"], "s"),
            "sram.fault_inject_s": (s["sram"], "s"),
        })
        for figure_id in figure_ids:
            m["analysis.figure_s." + figure_id] = (
                incl.get("analysis.figure." + figure_id, 0.0), "s"
            )
        m["analysis.render_s"] = (s["analysis.render"], "s")
        m["analysis.self_s"] = (s["analysis"], "s")
        m["analysis.traced_wall_s"] = (self.root_s, "s")
        m["analysis.layer_coverage"] = (
            _ratio(self.root_s - s["analysis"], self.root_s), "ratio"
        )
        return m

    def count_metrics(self) -> Dict[str, int]:
        """Every count the shims record, for exact-repeat checks."""
        out = dict(self.counts)
        out["workload.distinct_traces"] = len(self.distinct_traces)
        out["sim.rows_cached"] = self._rows_cached()
        return out

    def _rows_cached(self) -> int:
        return sum(h.cached for h in self.campaign_health if h is not None)

    def simulated_accesses(self) -> int:
        """Records run by any controller tier: the exact access count."""
        return sum(self.counts["core.records." + tier] for tier in TIERS)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- installation ----------------------------------------------------------------


def _import_all_repro() -> None:
    """Import every ``repro`` module so no later import binds an original."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)


def _repro_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class _Patches:
    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def rebind(self, original: Callable, wrapped: Callable) -> None:
        """Point every repro module attribute that *is* ``original`` at
        ``wrapped``."""
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    self._undo.append((module, attr, original))

    def method(self, cls: type, attr: str, wrap: Callable[[Callable], Callable]) -> None:
        descriptor = vars(cls)[attr]
        if isinstance(descriptor, classmethod):
            replacement: Any = classmethod(wrap(descriptor.__func__))
        else:
            replacement = wrap(descriptor)
        setattr(cls, attr, replacement)
        self._undo.append((cls, attr, descriptor))

    def undo(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def _install(tracer: Tracer, patches: _Patches) -> None:
    from repro.analysis import figures
    from repro.analysis.result import FigureResult
    from repro.core.controller import CacheController
    from repro.engine import batch, columnar
    from repro.perf.timing import TimingSimulator, evaluate_performance
    from repro.power.estimator.registry import EstimatorRegistry
    from repro.sim import campaign, comparison, simulator
    from repro.sram.faults import FaultInjector
    from repro.store.store import ResultStore
    from repro.trace.stats import collect_statistics
    from repro.workload.generator import generate_trace

    def func(fn, layer, on_return=None):
        name = f"{layer}.{fn.__name__}"
        patches.rebind(fn, tracer.call(fn, layer, name, on_return))

    def meth(cls, attr, layer, on_return=None):
        name = f"{layer}.{cls.__name__}.{attr}"
        patches.method(cls, attr, lambda fn: tracer.call(fn, layer, name, on_return))

    func(generate_trace, "workload",
         tracer._on_generate(inspect.signature(generate_trace)))

    patches.rebind(batch.iter_batches, tracer.decoder(batch.iter_batches, "engine.decode"))
    patches.rebind(columnar.iter_chunks, tracer.decoder(columnar.iter_chunks, "engine.decode"))
    meth(columnar.ColumnarChunk, "from_access_batch", "engine.decode")
    meth(columnar.ColumnarChunk, "grouped", "engine.project")

    patches.method(CacheController, "process", lambda fn: tracer.kernel(fn, "scalar"))
    patches.method(CacheController, "process_batch", lambda fn: tracer.kernel(fn, "batched"))
    patches.rebind(columnar.process_chunk, tracer.kernel(columnar.process_chunk, "columnar"))

    func(campaign.run_campaign, "sim", tracer._on_campaign)
    func(campaign.execute_row, "sim", tracer._counter("sim.rows_executed"))
    func(campaign.run_geometry_sweep, "sim")
    func(comparison.compare_techniques, "sim")
    func(simulator.run_simulation, "sim")
    for attr in ("__init__", "feed", "feed_batches", "feed_chunks",
                 "reset_measurements"):
        meth(simulator.Simulator, attr, "sim")
    meth(simulator.Simulator, "finish", "sim", tracer._on_finish)

    func(evaluate_performance, "perf")
    meth(TimingSimulator, "__init__", "perf")
    meth(TimingSimulator, "run", "perf", tracer._on_timing)

    meth(ResultStore, "__init__", "store")
    meth(ResultStore, "get_row", "store", tracer._on_get_row)
    meth(ResultStore, "put_row", "store")

    meth(EstimatorRegistry, "estimate", "power", tracer._counter("power.estimate_calls"))
    func(collect_statistics, "trace")
    meth(FaultInjector, "inject", "sram")

    original_reproduce = figures.reproduce_figure

    @functools.wraps(original_reproduce)
    def reproduce_figure(figure_id, *args, **kwargs):
        return tracer.call(
            original_reproduce, "analysis", "analysis.figure." + figure_id
        )(figure_id, *args, **kwargs)

    patches.rebind(original_reproduce, reproduce_figure)
    meth(FigureResult, "render", "analysis.render")


@contextmanager
def installed() -> Iterator[Tracer]:
    """Trace every layer for the duration of the block."""
    _import_all_repro()
    tracer = Tracer()
    patches = _Patches()
    try:
        _install(tracer, patches)
        yield tracer
    finally:
        patches.undo()
