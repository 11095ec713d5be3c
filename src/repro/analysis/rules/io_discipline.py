"""RA-CORE-IO — every simulated read in the executors must be charged.

The executors under ``repro/core/`` are only comparable to the Section 5
formulas if every page they touch lands in
:class:`~repro.storage.iostats.IOStats`.  Two ways to cheat are flagged:

* importing the physical layer (``repro.storage.disk`` /
  ``.extents`` / ``.pages``) — executors are supposed to receive a laid
  out :class:`~repro.core.join.JoinEnvironment` and read through the
  charging API of :class:`~repro.storage.disk.SimulatedDisk` (the
  environment module itself is the one sanctioned boundary and carries
  explicit suppressions);
* calling ``<extent>.payload(...)`` — an uncharged in-memory read — in a
  function that never charges I/O.  Chunked executors that account at
  block granularity do both in the same function and pass.

The streaming execution core (``repro/exec/``) sits on the same side of
the boundary: it observes :class:`~repro.storage.iostats.IOStats` but
must never touch the physical layer itself.  So does the workspace
package (``repro/workspace/``): builders and loaders move *serialized*
artifacts through :mod:`repro.text.serialization` and
:mod:`repro.index.btree_io`, and lay extents out only through the
factory — touching the physical layer directly there would let a loaded
dataset charge I/O differently than a built one.  And so does the
kernel layer (``repro/kernels/``): batch kernels reorganise arithmetic
over data the *operators* already paid for, so a kernel that imported
the physical layer or read payloads itself would smuggle uncharged
reads behind the byte-identity contract.  The rule's scope covers all
four packages.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Finding, ModuleContext, Rule

_PHYSICAL_MODULES = (
    "repro.storage.disk",
    "repro.storage.extents",
    "repro.storage.pages",
)

#: attribute calls that charge (or delegate to a charging read path)
_CHARGING_CALLS = {
    "record",
    "scan_records",
    "scan_pages",
    "read_record",
    "read_runs",
    "record_run",
    "scan_with_block_seeks",
}


def _walk_shallow(func: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested ``def``s."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def _is_physical(dotted: str) -> bool:
    return any(
        dotted == name or dotted.startswith(name + ".") for name in _PHYSICAL_MODULES
    )


class CoreIODisciplineRule(Rule):
    """Flag physical-layer imports and uncharged reads in ``repro.core``
    and ``repro.exec``."""

    rule_id = "RA-CORE-IO"
    summary = (
        "repro/core/, repro/exec/, repro/workspace/ and repro/kernels/ must "
        "not import the physical storage layer nor read payloads in a "
        "function that never charges IOStats"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        """Yield layering and uncharged-read violations for execution modules."""
        if not (
            module.in_package("repro.core")
            or module.in_package("repro.exec")
            or module.in_package("repro.workspace")
            or module.in_package("repro.kernels")
        ):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if _is_physical(alias.name):
                        yield self._import_finding(module, node, alias.name)
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module and _is_physical(node.module):
                    yield self._import_finding(module, node, node.module)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._uncharged_reads(module, node)

    def _import_finding(
        self, module: ModuleContext, node: ast.AST, dotted: str
    ) -> Finding:
        return self.finding(
            module,
            node,
            f"core executor imports the physical layer ({dotted}); reads must "
            "go through the JoinEnvironment's charging disk API",
        )

    def _uncharged_reads(
        self, module: ModuleContext, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        payload_calls: list[ast.Call] = []
        charges = False
        for node in _walk_shallow(func):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            name = None
            if isinstance(callee, ast.Attribute):
                name = callee.attr
            elif isinstance(callee, ast.Name):
                name = callee.id
            if name == "payload":
                payload_calls.append(node)
            elif name in _CHARGING_CALLS:
                charges = True
        if charges:
            return
        for call in payload_calls:
            yield self.finding(
                module,
                call,
                "reads a record payload without charging IOStats anywhere in "
                "this function; route the read through the disk's charging API",
            )


__all__ = ["CoreIODisciplineRule"]
