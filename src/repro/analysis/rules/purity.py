"""RA-COST-PURITY — the cost layer must stay a pure function library.

Section 5's formulas (``hhs/hhr``, ``hvs/hvr``, ``vvs/vvr``) are
*predictions*; the moment code under ``repro/cost/`` performs I/O,
touches the simulated storage stack, or mutates its inputs, the
measured-vs-model validation loop (``repro validate``) stops being an
independent check.  This rule pins the layering two ways:

* **locally** — cost modules may import only parameter/statistics
  types, and cost functions may not write to their arguments, print, or
  open files;
* **transitively** — a cost function must not *reach*, through any
  chain of statically-resolved calls, a function that performs I/O,
  charges the simulated disk, or constructs the I/O-accounting stack.
  An impure helper parked in an allowed-import module is exactly the
  laundering this closes; the finding carries the full call path.
"""

from __future__ import annotations

import ast
from typing import Iterator, Mapping

from repro.analysis.engine import Finding, ModuleContext, ProgramRule
from repro.analysis.program.model import ProgramModel
from repro.analysis.program.symbols import FunctionInfo, SymbolTable, walk_shallow

#: dotted prefixes of repro modules the cost layer may import
_ALLOWED_IMPORT_PREFIXES = (
    "repro.analysis",
    "repro.constants",
    "repro.cost",
    "repro.errors",
    "repro.index.stats",
)

_IO_BUILTINS = {"open", "print", "input", "exec", "eval"}
_WRITE_METHODS = {
    "write",
    "write_text",
    "write_bytes",
    "unlink",
    "mkdir",
    "rmdir",
    "touch",
}
#: attribute calls that charge the simulated I/O stack
_CHARGING_METHODS = {
    "record",
    "read_record",
    "read_runs",
    "record_run",
    "scan_records",
    "scan_pages",
    "scan_with_block_seeks",
}
#: constructors whose mere instantiation couples code to the I/O stack
_IO_CONSTRUCTORS = {"IOStats", "TracingIOStats", "SimulatedDisk"}
_MUTATING_METHODS = {
    "append",
    "extend",
    "insert",
    "remove",
    "pop",
    "popitem",
    "clear",
    "update",
    "setdefault",
    "add",
    "discard",
    "sort",
    "reverse",
}


def _is_allowed_import(dotted: str) -> bool:
    if not dotted.startswith("repro"):
        return True
    return any(
        dotted == prefix or dotted.startswith(prefix + ".")
        for prefix in _ALLOWED_IMPORT_PREFIXES
    )


def _in_cost_layer(module_name: str) -> bool:
    return module_name == "repro.cost" or module_name.startswith("repro.cost.")


def _direct_impurity(table: SymbolTable, info: FunctionInfo) -> str:
    """Why ``info`` is impure by itself, or '' when it looks pure."""
    symbols = table.modules.get(info.module)
    for node in walk_shallow(info.node):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in _IO_BUILTINS:
            return f"calls {func.id}()"
        if isinstance(func, ast.Attribute):
            if func.attr in _WRITE_METHODS:
                return f"calls .{func.attr}()"
            if func.attr in _CHARGING_METHODS:
                return f"charges I/O via .{func.attr}()"
        if symbols is not None:
            resolved = table.resolve_call(symbols, func, info.class_name)
            if resolved is not None:
                tail = resolved.rsplit(".", 1)[-1]
                if tail in _IO_CONSTRUCTORS:
                    return f"constructs {tail}"
    return ""


class CostPurityRule(ProgramRule):
    """Flag impurity inside ``repro.cost``: I/O, layering leaks, mutation,
    and call chains that reach impure code anywhere in the program."""

    rule_id = "RA-COST-PURITY"
    summary = (
        "repro/cost/ must not import storage/execution layers, perform I/O, "
        "use global state, mutate its arguments, or transitively call "
        "impure code"
    )

    def check_program(self, program: ProgramModel) -> Iterator[Finding]:
        """Yield per-module purity violations, then transitive ones."""
        for context in program.modules:
            if context.in_package("repro.cost"):
                yield from self._module_checks(context)
        yield from self._transitive(program)

    # --- per-module checks (intra-module purity) --------------------------

    def _module_checks(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if not _is_allowed_import(alias.name):
                        yield self._layer_finding(module, node, alias.name)
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module and not _is_allowed_import(node.module):
                    yield self._layer_finding(module, node, node.module)
            elif isinstance(node, ast.Call):
                yield from self._call(module, node)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                yield self.finding(
                    module,
                    node,
                    "cost formulas must not rely on global/nonlocal state",
                )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._argument_mutations(module, node)

    def _layer_finding(
        self, module: ModuleContext, node: ast.AST, dotted: str
    ) -> Finding:
        return self.finding(
            module,
            node,
            f"cost layer imports {dotted}; only parameter/statistics modules "
            "(repro.cost, repro.constants, repro.errors, repro.index.stats) are pure",
        )

    def _call(self, module: ModuleContext, node: ast.Call) -> Iterator[Finding]:
        func = node.func
        if isinstance(func, ast.Name) and func.id in _IO_BUILTINS:
            yield self.finding(
                module,
                node,
                f"cost formulas must not call {func.id}(); return values instead",
            )
        elif isinstance(func, ast.Attribute) and func.attr in _WRITE_METHODS:
            yield self.finding(
                module,
                node,
                f".{func.attr}() writes outside the formula; cost code must be pure",
            )

    def _argument_mutations(
        self, module: ModuleContext, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        params = {
            arg.arg
            for arg in (
                *func.args.posonlyargs,
                *func.args.args,
                *func.args.kwonlyargs,
            )
            if arg.arg not in ("self", "cls")
        }
        if not params:
            return
        for node in ast.walk(func):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in params
                    ):
                        yield self.finding(
                            module,
                            node,
                            f"mutates parameter {target.value.id!r}; cost formulas "
                            "must treat their inputs as immutable",
                        )
            elif isinstance(node, ast.Call):
                func_expr = node.func
                if (
                    isinstance(func_expr, ast.Attribute)
                    and func_expr.attr in _MUTATING_METHODS
                    and isinstance(func_expr.value, ast.Name)
                    and func_expr.value.id in params
                ):
                    yield self.finding(
                        module,
                        node,
                        f"calls {func_expr.value.id}.{func_expr.attr}(); cost "
                        "formulas must treat their inputs as immutable",
                    )

    # --- transitive reach (the whole-program upgrade) ---------------------

    def _transitive(self, program: ProgramModel) -> Iterator[Finding]:
        impure: dict[str, str] = {}
        for qualname, info in program.table.functions.items():
            reason = _direct_impurity(program.table, info)
            if reason:
                impure[qualname] = reason
        if not impure:
            return
        contexts: Mapping[str, ModuleContext] = program.modules_by_name
        for qualname in sorted(program.table.functions):
            info = program.table.functions[qualname]
            if not _in_cost_layer(info.module):
                continue
            targets = set(impure) - {qualname}
            path = program.graph.call_path(qualname, targets)
            if len(path) < 2:
                continue
            context = contexts.get(info.module)
            if context is None:
                continue
            chain = " -> ".join(path)
            yield self.finding(
                context,
                info.node,
                f"cost function reaches impure code: {chain} "
                f"({impure[path[-1]]}); cost formulas must stay pure "
                "along every call path",
            )


__all__ = ["CostPurityRule"]
