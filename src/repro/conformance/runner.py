"""Orchestrate the conformance checks into one report.

:func:`run_conformance`, behind the ``repro conformance`` CLI and the
pytest suites, runs the selected checks (all eight by default) with one
seed and trial count and folds them into a schema-tagged report
(:mod:`repro.conformance.report`).
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

from repro.conformance.costcheck import CostToleranceSpec, run_costcheck
from repro.conformance.differential import run_differential
from repro.conformance.equivalence import Axis, StreamingAxis, equivalence
from repro.conformance.incrementalcheck import IncrementalAxis
from repro.conformance.kernelcheck import KernelAxis
from repro.conformance.metamorphic import run_metamorphic
from repro.conformance.parallelcheck import ParallelAxis
from repro.conformance.report import CHECK_NAMES, build_report
from repro.conformance.trials import ExecutorFn
from repro.conformance.workspace import WorkspaceAxis
from repro.errors import ConformanceError


def _axis(check: str, axis: Axis) -> Callable[..., Any]:
    """An equivalence check as a table entry."""
    return lambda seed, trials, o: equivalence(
        check, seed, trials, axis, executors=o["executors"]
    )


#: check name -> ``(seed, trials, options) -> outcome``, in report order
_CHECKS: dict[str, Callable[..., Any]] = {
    "differential": lambda seed, trials, o: run_differential(
        seed, trials, executors=o["executors"], include_sql=o["include_sql"],
        tolerance=o["tolerance"],
    ),
    "metamorphic": lambda seed, trials, o: run_metamorphic(
        seed, trials, executors=o["executors"], tolerance=o["tolerance"]
    ),
    "costcheck": lambda seed, trials, o: run_costcheck(
        seed, trials, executors=o["executors"], tolerance=o["cost_tolerance"]
    ),
    "streaming-equivalence": _axis("streaming-equivalence", StreamingAxis()),
    "workspace-roundtrip": _axis("workspace-roundtrip", WorkspaceAxis()),
    "parallel-equivalence": _axis("parallel-equivalence", ParallelAxis()),
    "kernel-equivalence": _axis("kernel-equivalence", KernelAxis()),
    "incremental-equivalence": _axis("incremental-equivalence", IncrementalAxis()),
}


def run_conformance(
    seed: int = 0,
    trials: int = 25,
    *,
    checks: Sequence[str] | None = None,
    executors: Mapping[str, ExecutorFn] | None = None,
    include_sql: bool = True,
    tolerance: float = 1e-9,
    cost_tolerance: CostToleranceSpec | None = None,
) -> dict[str, Any]:
    """Run the selected conformance checks and return the report dict.

    ``checks`` is a subset of :data:`~repro.conformance.report.CHECK_NAMES`
    (order and duplicates are ignored); unknown names raise
    :class:`~repro.errors.ConformanceError` rather than silently passing.
    """
    selected = set(CHECK_NAMES) if checks is None else set(checks)
    unknown = sorted(selected - set(CHECK_NAMES))
    if unknown:
        raise ConformanceError(
            f"unknown conformance checks: {unknown}; "
            f"valid names are {list(CHECK_NAMES)}"
        )
    if trials <= 0:
        raise ConformanceError(f"trials must be positive, got {trials}")

    options = dict(executors=executors, include_sql=include_sql,
                   tolerance=tolerance, cost_tolerance=cost_tolerance)
    sections = {name: _CHECKS[name](seed, trials, options).to_dict()
                for name in CHECK_NAMES if name in selected}
    return build_report(seed, trials, sections)


__all__ = ["run_conformance"]
