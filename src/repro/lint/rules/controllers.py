"""Controller-contract rules (RPR121, RPR122).

Every controller's scalar ``process()`` path is the semantics of
record; the columnar engine's kernels and any ``process_batch``
shortcut are optimisations that must be *observably identical*.  Two
structural properties keep that true, and both are properties of the
class text — exactly what a static pass can hold forever:

* every concrete controller implements the scalar API
  (``_handle_read``/``_handle_write``) — the oracle, the invariant
  checker, and the differential fuzzer all exercise controllers through
  it;
* any ``process_batch`` override re-states the full fallback gate
  (stamp-LRU via ``engine_fast_ok``, telemetry via ``_obs``, debug mode
  via ``_invariant_checker``) or delegates to ``super().process_batch``
  — a fast path taken with telemetry or invariant checks active changes
  observable output and skips audits silently.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.lint.asthelpers import dotted_name
from repro.lint.engine import FileContext, Rule, register_rule
from repro.lint.finding import Severity

__all__ = ["ScalarApiRule", "FastPathGateRule"]

_BASE_CLASS = "CacheController"
_SCALAR_API = ("_handle_read", "_handle_write")
_GATE_ATTRS = ("engine_fast_ok", "_obs", "_invariant_checker")


def _direct_methods(class_node: ast.ClassDef) -> Set[str]:
    return {
        stmt.name
        for stmt in class_node.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _bases(class_node: ast.ClassDef) -> Iterator[str]:
    for base in class_node.bases:
        name = dotted_name(base)
        if name is not None:
            yield name.rsplit(".", 1)[-1]


def _is_abstract(class_node: ast.ClassDef) -> bool:
    """Heuristic: ABCMeta metaclass or any abstractmethod decorator."""
    for keyword in class_node.keywords:
        if keyword.arg == "metaclass":
            return True
    for stmt in class_node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in stmt.decorator_list:
                name = dotted_name(decorator)
                if name is not None and name.rsplit(".", 1)[-1] == (
                    "abstractmethod"
                ):
                    return True
    return False


@register_rule
class ScalarApiRule(Rule):
    id = "RPR121"
    name = "controller-missing-scalar-api"
    severity = Severity.ERROR
    description = (
        "a concrete CacheController subclass must implement the scalar "
        "API (_handle_read and _handle_write); the oracle, invariant "
        "checker, and scalar fallback all run through it"
    )

    def visit_ClassDef(self, node: ast.ClassDef, ctx: FileContext) -> None:
        if _BASE_CLASS not in set(_bases(node)):
            return
        if _is_abstract(node):
            return
        methods = _direct_methods(node)
        missing = [name for name in _SCALAR_API if name not in methods]
        if missing:
            ctx.report(
                self,
                node,
                f"controller {node.name} subclasses {_BASE_CLASS} but "
                f"does not implement {', '.join(missing)}; every "
                f"concrete technique must define the scalar semantics "
                f"of record",
            )


@register_rule
class FastPathGateRule(Rule):
    id = "RPR122"
    name = "fast-path-missing-gate"
    severity = Severity.ERROR
    description = (
        "a process_batch override must gate on engine_fast_ok, _obs, "
        "and _invariant_checker (or delegate to super().process_batch) "
        "before taking a batched fast path; an ungated fast path skips "
        "telemetry and debug-mode audits silently"
    )

    def visit_ClassDef(self, node: ast.ClassDef, ctx: FileContext) -> None:
        if node.name == _BASE_CLASS:
            # The base definition is the record-by-record replay through
            # process() that overrides must fall back to.
            return
        for stmt in node.body:
            if (
                isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                and stmt.name == "process_batch"
            ):
                self._check_override(stmt, node, ctx)

    def _check_override(
        self,
        method: ast.FunctionDef,
        class_node: ast.ClassDef,
        ctx: FileContext,
    ) -> None:
        seen_attrs: Set[str] = set()
        delegates = False
        for inner in ast.walk(method):
            if isinstance(inner, ast.Attribute):
                if inner.attr in _GATE_ATTRS:
                    seen_attrs.add(inner.attr)
                elif inner.attr == "process_batch" and isinstance(
                    inner.value, ast.Call
                ):
                    # super().process_batch(...) — the base gate runs.
                    func = dotted_name(inner.value.func)
                    if func == "super":
                        delegates = True
        if delegates:
            return
        missing = [name for name in _GATE_ATTRS if name not in seen_attrs]
        if missing:
            ctx.report(
                self,
                method,
                f"{class_node.name}.process_batch overrides the batched "
                f"entry point without consulting {', '.join(missing)}; "
                f"re-state the scalar-fallback gate or call "
                f"super().process_batch()",
            )
