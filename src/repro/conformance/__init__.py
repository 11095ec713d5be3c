"""Differential, metamorphic, cost and equivalence conformance.

This package cross-examines every execution path of the reproduction —
the three executors (HHNL, HVNL, VVM), the SQL pipeline and the Section
5 cost models — against independent ground truth:

* :mod:`~repro.conformance.oracle` — a brute-force executor that shares
  no code with the production stack;
* :mod:`~repro.conformance.differential` — every path must reproduce the
  oracle's match set on randomized workloads;
* :mod:`~repro.conformance.metamorphic` — invariants between *related*
  runs that catch bugs an oracle sharing the same mistake could not;
* :mod:`~repro.conformance.costcheck` — measured I/O versus the Section
  5 formulas, plus trace-shape assertions;
* :mod:`~repro.conformance.equivalence` — one trial loop for every
  physical variation that must change nothing, each an *axis*:
  streaming (here), a workspace on disk
  (:mod:`~repro.conformance.workspace`), shards
  (:mod:`~repro.conformance.parallelcheck`), kernel backends
  (:mod:`~repro.conformance.kernelcheck`) and delta segments
  (:mod:`~repro.conformance.incrementalcheck`).

:func:`~repro.conformance.runner.run_conformance` drives all eight
checks and emits the schema-tagged JSON report consumed by CI; the
``repro conformance`` CLI subcommand is a thin wrapper around it.
"""

from repro.conformance.costcheck import (
    CostCheckOutcome, CostCheckRow, CostToleranceSpec, run_costcheck,
)
from repro.conformance.differential import (
    SQL_PATH, DifferentialOutcome, Divergence, run_differential, sql_join_matches,
)
from repro.conformance.metamorphic import (
    INVARIANTS, MetamorphicOutcome, run_metamorphic,
)
from repro.conformance.oracle import (
    Matches, compare_matches, oracle_join, oracle_norm, oracle_similarity,
)
from repro.conformance.report import (
    CHECK_NAMES, REPORT_SCHEMA, build_report, load_report, save_report,
    validate_report,
)
from repro.conformance.runner import run_conformance
from repro.conformance.trials import (
    DEFAULT_EXECUTORS, DEFAULT_STREAMERS, ExecutorFn, StreamerFn, TrialConfig,
    random_trial_config,
)

__all__ = [
    "CHECK_NAMES", "CostCheckOutcome", "CostCheckRow", "CostToleranceSpec",
    "DEFAULT_EXECUTORS", "DEFAULT_STREAMERS", "DifferentialOutcome",
    "Divergence", "ExecutorFn", "INVARIANTS", "Matches", "MetamorphicOutcome",
    "REPORT_SCHEMA", "SQL_PATH", "StreamerFn", "TrialConfig",
    "build_report", "compare_matches", "load_report",
    "oracle_join", "oracle_norm", "oracle_similarity", "random_trial_config",
    "run_conformance", "run_costcheck", "run_differential", "run_metamorphic",
    "save_report", "sql_join_matches", "validate_report",
]
