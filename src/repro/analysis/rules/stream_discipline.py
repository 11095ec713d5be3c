"""RA-STREAM — streaming operators must stay cancellable and scoped.

The PR 4 streaming core has a contract: an ``iter_*`` operator yields
incrementally, honours the context budget, and attributes every page it
charges.  Three violations break it silently:

* an outer streaming loop that never calls ``ctx.checkpoint()`` — a
  ``LIMIT`` or budget cancellation cannot interrupt it, so the operator
  runs to completion and the caller pays for pages it asked to skip;
* a ``yield`` inside a ``with ctx.phase(...)`` scope — the generator is
  suspended *while the phase is open*, so pages the consumer charges
  between blocks are mis-attributed to the operator's phase;
* a loop that charges pages outside any ``execution_scope``/``guard``
  wrapper — its I/O bypasses budget enforcement entirely.

The rule applies to generator functions named ``iter_*`` under
``repro.core`` and ``repro.exec``; helpers with other names are free to
use different conventions.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Finding, ModuleContext, Rule
from repro.analysis.program.symbols import is_generator, walk_shallow

_LOOP_NODES = (ast.For, ast.AsyncFor, ast.While)
#: attribute calls that charge simulated-disk pages
_CHARGING_CALLS = {
    "record",
    "scan_records",
    "scan_pages",
    "read_record",
    "read_runs",
    "record_run",
    "scan_with_block_seeks",
}
_GUARD_CALLS = {"execution_scope", "guard"}


def _is_phase_with(node: ast.AST) -> bool:
    if not isinstance(node, (ast.With, ast.AsyncWith)):
        return False
    for item in node.items:
        expr = item.context_expr
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr == "phase"
        ):
            return True
    return False


def _is_guard_with(node: ast.AST) -> bool:
    if not isinstance(node, (ast.With, ast.AsyncWith)):
        return False
    for item in node.items:
        expr = item.context_expr
        if not isinstance(expr, ast.Call):
            continue
        func = expr.func
        name = (
            func.attr
            if isinstance(func, ast.Attribute)
            else func.id if isinstance(func, ast.Name) else ""
        )
        if name in _GUARD_CALLS:
            return True
    return False


def _call_name(node: ast.AST) -> str:
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute):
            return func.attr
        if isinstance(func, ast.Name):
            return func.id
    return ""


def _subtree_has(loop: ast.AST, *, charging: bool = False,
                 checkpoint: bool = False, streaming: bool = False) -> bool:
    """Whether a loop subtree charges pages / checkpoints / streams."""
    for node in walk_shallow(loop):
        name = _call_name(node)
        if charging and name in _CHARGING_CALLS:
            return True
        if checkpoint and name == "checkpoint":
            return True
        if streaming and (
            isinstance(node, (ast.Yield, ast.YieldFrom))
            or _is_phase_with(node)
            or name in _CHARGING_CALLS
        ):
            return True
    return False


def _outermost_loops(func: ast.FunctionDef | ast.AsyncFunctionDef) -> list[ast.stmt]:
    """Loops not nested inside another loop (descending through
    ``if``/``with``/``try``/``match`` bodies, never into nested defs)."""
    found: list[ast.stmt] = []

    def visit(body: list[ast.stmt]) -> None:
        for statement in body:
            if isinstance(statement, _LOOP_NODES):
                found.append(statement)
                continue
            if isinstance(
                statement,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ):
                continue
            for child_body in _statement_bodies(statement):
                visit(child_body)

    visit(func.body)
    return found


def _statement_bodies(statement: ast.stmt) -> list[list[ast.stmt]]:
    bodies: list[list[ast.stmt]] = []
    for attr in ("body", "orelse", "finalbody"):
        value = getattr(statement, attr, None)
        if isinstance(value, list) and value and isinstance(value[0], ast.stmt):
            bodies.append(value)
    for handler in getattr(statement, "handlers", ()):
        bodies.append(handler.body)
    for case in getattr(statement, "cases", ()):
        bodies.append(case.body)
    return bodies


class StreamDisciplineRule(Rule):
    """Flag streaming operators that break the execution-context contract."""

    rule_id = "RA-STREAM"
    summary = (
        "iter_* operators must checkpoint every outer streaming loop, keep "
        "yields out of phase() scopes, and charge pages only under "
        "execution_scope()/guard()"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        """Yield checkpoint/phase/guard violations per ``iter_*`` operator."""
        if not (module.in_package("repro.core") or module.in_package("repro.exec")):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not node.name.startswith("iter_") or not is_generator(node):
                continue
            yield from self._check_operator(module, node)

    def _check_operator(
        self, module: ModuleContext, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        # (a) yields must not be suspended inside an open phase scope
        for node in walk_shallow(func):
            if not _is_phase_with(node):
                continue
            for inner in walk_shallow(node):
                if isinstance(inner, (ast.Yield, ast.YieldFrom)):
                    yield self.finding(
                        module,
                        inner,
                        f"{func.name} yields inside a ctx.phase(...) scope; "
                        "the generator suspends with the phase open and "
                        "consumer-side I/O is mis-attributed to it — emit "
                        "after the phase closes",
                    )
        # (b) every outer streaming loop must checkpoint each iteration
        for loop in _outermost_loops(func):
            if _subtree_has(loop, streaming=True) and not _subtree_has(
                loop, checkpoint=True
            ):
                yield self.finding(
                    module,
                    loop,
                    f"outer streaming loop in {func.name} never calls "
                    "ctx.checkpoint(); budget and LIMIT cancellation cannot "
                    "interrupt it",
                )
        # (c) loops that charge pages must sit under execution_scope/guard
        yield from self._unguarded_charges(module, func, func.body, False)

    def _unguarded_charges(
        self,
        module: ModuleContext,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        body: list[ast.stmt],
        guarded: bool,
    ) -> Iterator[Finding]:
        for statement in body:
            if isinstance(
                statement,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ):
                continue
            if isinstance(statement, _LOOP_NODES):
                if not guarded and _subtree_has(statement, charging=True):
                    yield self.finding(
                        module,
                        statement,
                        f"loop in {func.name} charges pages outside any "
                        "execution_scope()/guard() wrapper; its I/O bypasses "
                        "budget enforcement",
                    )
                    continue
                for child_body in _statement_bodies(statement):
                    yield from self._unguarded_charges(
                        module, func, child_body, guarded
                    )
                continue
            now_guarded = guarded or _is_guard_with(statement)
            for child_body in _statement_bodies(statement):
                yield from self._unguarded_charges(
                    module, func, child_body, now_guarded
                )


__all__ = ["StreamDisciplineRule"]
