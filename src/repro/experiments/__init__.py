"""The paper's simulation study, reproducible end to end.

* :mod:`repro.experiments.engine` — the declarative sweep engine: grids
  as :class:`SweepSpec` values, memoized (optionally process-parallel)
  evaluation, and JSON run manifests,
* :mod:`repro.experiments.groups` — the five simulation groups of
  Section 6, each returning a grid of cost reports,
* :mod:`repro.experiments.summary` — programmatic checks of the five
  summary points of Section 6.1,
* :mod:`repro.experiments.validate` — measured-vs-model validation runs
  on executable synthetic collections,
* :mod:`repro.experiments.tables` — plain-text table rendering for the
  benchmark harness.
"""

from repro.experiments.engine import (
    SweepEngine,
    SweepPoint,
    SweepSpec,
    default_engine,
    load_manifest,
    set_default_engine,
    validate_manifest,
)
from repro.experiments.figures import FigureSeries, extract_series, render_ascii
from repro.experiments.groups import (
    GroupResult,
    SimulationPoint,
    run_all_groups,
    run_group1,
    run_group2,
    run_group3,
    run_group4,
    run_group5,
    statistics_table,
)
from repro.experiments.summary import SummaryFindings, evaluate_summary
from repro.experiments.tables import format_grid, format_table
from repro.experiments.validate import ValidationRow, validate_algorithms

__all__ = [
    "FigureSeries",
    "GroupResult",
    "SimulationPoint",
    "SweepEngine",
    "SweepPoint",
    "SweepSpec",
    "default_engine",
    "set_default_engine",
    "load_manifest",
    "validate_manifest",
    "extract_series",
    "render_ascii",
    "SummaryFindings",
    "ValidationRow",
    "evaluate_summary",
    "format_grid",
    "format_table",
    "run_all_groups",
    "run_group1",
    "run_group2",
    "run_group3",
    "run_group4",
    "run_group5",
    "statistics_table",
    "validate_algorithms",
]
