"""Differential testing: every execution path against the oracle.

Each trial draws a random :class:`~repro.conformance.trials.TrialConfig`,
computes the ground truth with :func:`~repro.conformance.oracle.oracle_join`,
then runs HHNL, HVNL, VVM and (when the trial is expressible as a query)
the whole :mod:`repro.sql` pipeline over the *same* workload and demands
match-set equality — same outer documents, same ranked inner documents,
same similarities.

Any disagreement becomes a :class:`Divergence` carrying the executor
name, the first differing pair and the trial's full reproduction
parameters; an executor that cannot run under the drawn buffer size is
recorded as a skip, never silently dropped.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.conformance.oracle import Matches, compare_matches, oracle_join
from repro.conformance.trials import (
    DEFAULT_EXECUTORS,
    DEFAULT_STREAMERS,
    ExecutorFn,
    StreamerFn,
    TrialConfig,
    random_cost_trial_config,
    random_trial_config,
)
from repro.cost.params import SystemParams
from repro.errors import InsufficientMemoryError
from repro.storage.iostats import IOStats
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
        return {
            "check": self.check,
            "executor": self.executor,
            "trial": self.trial,
            "detail": self.detail,
            "reproduction": dict(self.reproduction),
        }


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
        return {
            "seed": self.seed,
            "trials_requested": self.trials_requested,
            "trials_run": self.trials_run,
            "comparisons": self.comparisons,
            "skips": dict(self.skips),
            "passed": self.passed,
            "divergences": [d.to_dict() for d in self.divergences],
        }


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
            c1,
            c2,
            lam=config.lam,
            normalized=config.normalized,
            outer_ids=config.outer_selection,
            inner_ids=config.inner_selection,
        )
        environment = config.build_environment()
        outcome.trials_run += 1

        for name, executor in executors.items():
            try:
                result = executor(environment, config)
            except InsufficientMemoryError:
                outcome.skips[name] = outcome.skips.get(name, 0) + 1
                continue
            outcome.comparisons += 1
            detail = compare_matches(expected, result.matches, tolerance=tolerance)
            if detail is not None:
                outcome.divergences.append(
                    Divergence(
                        check="differential",
                        executor=name,
                        trial=trial,
                        detail=detail,
                        reproduction=config.reproduction(),
                    )
                )

        if include_sql and _sql_applicable(config):
            sql_matches = sql_join_matches(c1, c2, config.lam, config.system())
            outcome.comparisons += 1
            detail = compare_matches(expected, sql_matches, tolerance=tolerance)
            if detail is not None:
                outcome.divergences.append(
                    Divergence(
                        check="differential",
                        executor=SQL_PATH,
                        trial=trial,
                        detail=detail,
                        reproduction=config.reproduction(),
                    )
                )

        if fail_fast and outcome.divergences:
            break
    return outcome


def _io_mismatch(materialized: IOStats, streamed: IOStats) -> str | None:
    """Describe the first I/O-counter disagreement, or None when equal."""
    if materialized.sequential_reads != streamed.sequential_reads:
        return (
            f"sequential reads differ: run={materialized.sequential_reads} "
            f"iter={streamed.sequential_reads}"
        )
    if materialized.random_reads != streamed.random_reads:
        return (
            f"random reads differ: run={materialized.random_reads} "
            f"iter={streamed.random_reads}"
        )
    if dict(materialized.by_extent) != dict(streamed.by_extent):
        return (
            f"per-extent reads differ: run={dict(materialized.by_extent)} "
            f"iter={dict(streamed.by_extent)}"
        )
    return None


def matches_mismatch(reference: Matches, candidate: Matches) -> str | None:
    """First disagreement between two results' matches, or None.

    Exact equality, floats included: every equivalence check compares
    two runs over the same integer d-cell weights.
    """
    if reference != candidate:
        missing = set(reference) ^ set(candidate)
        if missing:
            return (
                f"outer documents differ (symmetric difference {sorted(missing)})"
            )
        for outer_doc, hits in reference.items():
            if candidate[outer_doc] != hits:
                return (
                    f"matches for outer {outer_doc} differ: "
                    f"reference={hits} candidate={candidate[outer_doc]}"
                )
        return "matches dicts differ"
    for outer_doc, hits in reference.items():
        for (_, ref_sim), (_, cand_sim) in zip(hits, candidate[outer_doc]):
            # == alone would bless int 22 against float 22.0; rendered
            # output (sql --rows-only) exposes the type, so pin it too.
            if type(cand_sim) is not type(ref_sim):
                return (
                    f"similarity type for outer {outer_doc} differs: "
                    f"reference {type(ref_sim).__name__}({ref_sim}) "
                    f"candidate {type(cand_sim).__name__}({cand_sim})"
                )
    return None


def result_mismatch(reference: "Any", candidate: "Any") -> str | None:
    """First disagreement between two full join results, or None:
    matches, similarity types, per-extent I/O, then extras."""
    detail = matches_mismatch(reference.matches, candidate.matches)
    if detail is None:
        detail = _io_mismatch(reference.io, candidate.io)
    if detail is None and reference.extras != candidate.extras:
        detail = (
            f"extras differ: reference={reference.extras} "
            f"candidate={candidate.extras}"
        )
    return detail


def _stream_mismatch(
    result: "Any", blocks: list, summary: "Any"
) -> str | None:
    """Compare one materialized run against its streamed twin.

    Byte-identity is demanded, not tolerance-based equality: ``run_*``
    *is* ``collect(iter_*)``, so the streamed blocks must flatten to the
    exact matches dict (same floats, same ranked order, same outer-id
    iteration order) and charge the exact same I/O.
    """
    outer_seen = [block.outer_doc for block in blocks]
    if len(set(outer_seen)) != len(outer_seen):
        return f"an outer document was emitted twice: {outer_seen}"
    if outer_seen != sorted(outer_seen):
        return f"blocks not in ascending outer order: {outer_seen}"
    flattened = {block.outer_doc: list(block.matches) for block in blocks}
    detail = matches_mismatch(result.matches, flattened)
    if detail is not None:
        return detail
    if list(flattened) != list(result.matches):
        return "outer-document emission order differs from materialized order"
    detail = _io_mismatch(result.io, summary.io)
    if detail is not None:
        return detail
    if summary.algorithm != result.algorithm:
        return f"algorithm differs: run={result.algorithm} iter={summary.algorithm}"
    if summary.extras != result.extras:
        return f"extras differ: run={result.extras} iter={summary.extras}"
    return None


def run_streaming_equivalence(
    seed: int,
    trials: int,
    *,
    executors: Mapping[str, ExecutorFn] | None = None,
    streamers: Mapping[str, StreamerFn] | None = None,
    fail_fast: bool = False,
) -> DifferentialOutcome:
    """Prove ``list(iter_*)`` flattens to exactly the ``run_*`` result.

    Each trial draws a cost-scale workload (large enough for multi-page
    layouts and multi-pass VVM), runs every algorithm twice on *fresh*
    environments — once materialized, once consumed block-by-block via
    the raw generator protocol — and demands byte-identical matches,
    identical :class:`~repro.storage.iostats.IOStats` deltas and the
    block-stream invariants (each participating outer document emitted
    exactly once, in ascending order).  A mutated ``streamers`` mapping
    is the harness-detects-bugs hook, mirroring ``run_differential``.
    """
    executors = DEFAULT_EXECUTORS if executors is None else executors
    streamers = DEFAULT_STREAMERS if streamers is None else streamers
    rng = random.Random(seed)
    outcome = DifferentialOutcome(seed=seed, trials_requested=trials)

    for trial in range(trials):
        config = random_cost_trial_config(rng, trial)
        outcome.trials_run += 1
        for name, streamer in streamers.items():
            executor = executors[name]
            try:
                result = executor(config.build_environment(), config)
            except InsufficientMemoryError:
                outcome.skips[name] = outcome.skips.get(name, 0) + 1
                continue

            blocks = []
            stream = streamer(config.build_environment(), config)
            while True:
                try:
                    blocks.append(next(stream))
                except StopIteration as stop:
                    summary = stop.value
                    break

            outcome.comparisons += 1
            detail = _stream_mismatch(result, blocks, summary)
            if detail is not None:
                outcome.divergences.append(
                    Divergence(
                        check="streaming-equivalence",
                        executor=name,
                        trial=trial,
                        detail=detail,
                        reproduction=config.reproduction(),
                    )
                )
        if fail_fast and outcome.divergences:
            break
    return outcome


__all__ = [
    "Divergence",
    "DifferentialOutcome",
    "SQL_PATH",
    "run_differential",
    "run_streaming_equivalence",
    "sql_join_matches",
]
