"""Differential testing: every execution path against the oracle.

Each trial computes the ground truth with
:func:`~repro.conformance.oracle.oracle_join`, then runs HHNL, HVNL, VVM
and (when the trial is expressible as a query) the whole :mod:`repro.sql`
pipeline over the same workload and demands the same match set.  Any
disagreement becomes a :class:`Divergence` — the record every check
reports — carrying the trial's reproduction parameters; an executor that
cannot run under the drawn buffer is a skip, never silently dropped.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from typing import Any, Mapping

from repro.conformance.oracle import Matches, compare_matches, oracle_join
from repro.conformance.trials import (
    DEFAULT_EXECUTORS, ExecutorFn, TrialConfig, random_trial_config,
)
from repro.cost.params import SystemParams
from repro.errors import InsufficientMemoryError
from repro.sql.catalog import Catalog, Relation
from repro.sql.executor import execute
from repro.text.collection import DocumentCollection

#: identifier of the SQL pipeline in reports, next to the executor names
SQL_PATH = "SQL"


@dataclass(frozen=True)
class Divergence:
    """One executor disagreeing with the oracle on one trial."""

    check: str
    executor: str
    trial: int
    detail: str
    reproduction: Mapping[str, Any]

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form for the conformance report."""
        return asdict(self)


@dataclass
class DifferentialOutcome:
    """Aggregated result of one differential sweep."""

    seed: int
    trials_requested: int
    trials_run: int = 0
    comparisons: int = 0
    skips: dict[str, int] = field(default_factory=dict)
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True when every comparison agreed with the oracle."""
        return not self.divergences

    @property
    def first_divergence(self) -> Divergence | None:
        """The divergence to reproduce first (None when passing)."""
        return self.divergences[0] if self.divergences else None

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable summary for the conformance report."""
        return {**asdict(self), "passed": self.passed}


def sql_join_matches(
    collection1: DocumentCollection,
    collection2: DocumentCollection,
    lam: int,
    system: SystemParams,
) -> Matches:
    """Run the join through the whole SQL pipeline and collect matches.

    Builds a two-relation catalog whose rows are bare ids, executes
    ``SELECT A.Id, B.Id ... WHERE A.Doc SIMILAR_TO(lam) B.Doc`` through
    the parser, planner, integrated optimizer and executor, and folds the
    projected rows back into the executors' ``{outer: [(inner, sim)]}``
    shape (outer documents with no match get an empty list, matching the
    executor convention).
    """
    catalog = Catalog()
    inner_relation = Relation.from_rows(
        "R1", [{"Id": i} for i in range(collection1.n_documents)]
    ).bind_text("Doc", collection1)
    outer_relation = Relation.from_rows(
        "R2", [{"Id": i} for i in range(collection2.n_documents)]
    ).bind_text("Doc", collection2)
    catalog.register(inner_relation)
    catalog.register(outer_relation)

    result = execute(
        "SELECT A.Id, B.Id FROM R1 A, R2 B "
        f"WHERE A.Doc SIMILAR_TO({lam}) B.Doc",
        catalog,
        system,
    )
    matches: Matches = {i: [] for i in range(collection2.n_documents)}
    for row in result.as_dicts():
        matches[row["B.Id"]].append((row["A.Id"], row["_similarity"]))
    return matches


def _sql_applicable(config: TrialConfig) -> bool:
    """True when the trial is expressible as a plain SIMILAR_TO query.

    The SQL surface has no cosine flag and selections there are
    predicates, not explicit id lists; the SQL path is cross-checked on
    the trials whose parameters it can express.  A self-join still runs —
    the two relations simply bind the same collection.
    """
    return (
        not config.normalized
        and config.outer_selection is None
        and config.inner_selection is None
    )


def run_differential(
    seed: int,
    trials: int,
    *,
    executors: Mapping[str, ExecutorFn] | None = None,
    include_sql: bool = True,
    tolerance: float = 1e-9,
    fail_fast: bool = False,
) -> DifferentialOutcome:
    """Sweep ``trials`` randomized workloads, comparing all paths to the oracle.

    ``executors`` defaults to the real HHNL/HVNL/VVM registry; passing a
    mapping with a mutated entry is how the test suite certifies that the
    harness *detects* injected bugs.  With ``fail_fast`` the sweep stops
    at the first divergence (useful interactively); the default runs all
    trials so a report shows every affected configuration.
    """
    executors = DEFAULT_EXECUTORS if executors is None else executors
    rng = random.Random(seed)
    outcome = DifferentialOutcome(seed=seed, trials_requested=trials)

    for trial in range(trials):
        config = random_trial_config(rng, trial)
        c1, c2 = config.build_collections()
        expected = oracle_join(
            c1, c2, lam=config.lam, normalized=config.normalized,
            outer_ids=config.outer_selection, inner_ids=config.inner_selection,
        )
        environment = config.build_environment()
        outcome.trials_run += 1

        def compare(path: str, matches: Matches) -> None:
            outcome.comparisons += 1
            detail = compare_matches(expected, matches, tolerance=tolerance)
            if detail is not None:
                outcome.divergences.append(Divergence(
                    "differential", path, trial, detail, config.reproduction()
                ))

        for name, executor in executors.items():
            try:
                result = executor(environment, config)
            except InsufficientMemoryError:
                outcome.skips[name] = outcome.skips.get(name, 0) + 1
                continue
            compare(name, result.matches)
        if include_sql and _sql_applicable(config):
            compare(SQL_PATH, sql_join_matches(c1, c2, config.lam, config.system()))

        if fail_fast and outcome.divergences:
            break
    return outcome


__all__ = [
    "Divergence", "DifferentialOutcome", "SQL_PATH", "run_differential",
    "sql_join_matches",
]
