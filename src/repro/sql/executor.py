"""Execute planned queries.

A :class:`~repro.sql.planner.TextJoinPlan` assembles a
:class:`~repro.core.join.JoinEnvironment` over the (possibly filtered)
collections — through the plan's pre-built
:class:`~repro.core.environment.EnvironmentFactory` when the catalog
registered one (workspace-backed catalogs do), through a one-shot
factory otherwise — lets :class:`~repro.core.integrated.IntegratedJoin`
choose the algorithm, and stitches the matched document pairs back to
relation rows for projection.  ``extras["dataset_build_events"]`` counts
the expensive derivations (inversion, bulk loads) this particular query
paid for: zero on the warm path.  Every result row additionally carries the
similarity and the match rank, which the paper's motivating example
needs to present "the lambda most similar applicants per position".

The text join is consumed as a **stream**: match blocks arrive in
ascending outer-document order straight from the chosen ``iter_*``
operator, rows are projected per block, and a ``LIMIT`` abandons the
stream the moment enough rows are final — the generator's cleanup closes
the execution scope and no further join I/O is issued.  Unbounded
queries drain the stream and reconstruct the same
:class:`~repro.core.join.TextJoinResult` the materialized path returns.

Two consumption shapes share one implementation: :func:`iter_execute` is
the generator — it yields a :class:`ProjectedHeader` (columns and the
chosen algorithm) the moment planning and the cost-based decision are
done, then one :class:`ProjectedBlock` of projected rows per finalised
outer document, and returns the assembled :class:`QueryResult`;
:func:`execute` simply drains it.  Long-lived consumers (the
:mod:`repro.service` query server) forward the blocks to clients as they
arrive, so the rows a service streams are, by construction, the rows a
direct :func:`execute` call returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator

from repro.core.environment import EnvironmentFactory
from repro.core.integrated import IntegratedJoin
from repro.core.join import TextJoinResult, TextJoinSpec
from repro.cost.params import SystemParams
from repro.exec.context import ExecutionContext, ensure_context
from repro.sql.ast_nodes import SelectQuery
from repro.sql.catalog import Catalog
from repro.sql.parser import parse
from repro.sql.planner import SelectionPlan, TextJoinPlan, plan


@dataclass
class QueryResult:
    """Projected rows plus execution introspection."""

    columns: list[str]
    rows: list[tuple[Any, ...]]
    algorithm: str | None = None
    #: the full join result — None when a LIMIT abandoned the stream
    #: before the join ran to completion (the rows are still exact)
    join: TextJoinResult | None = None
    extras: dict[str, Any] = field(default_factory=dict)

    def as_dicts(self) -> list[dict[str, Any]]:
        """Rows as ``{column: value}`` dicts."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class ProjectedHeader:
    """First item of an :func:`iter_execute` stream: the result shape.

    Emitted after parsing, planning and the cost-based algorithm
    decision but before any join I/O, so a streaming consumer can send
    its response preamble while the join runs.
    """

    #: projected column names, ``_rank``/``_similarity`` included for joins
    columns: tuple[str, ...]
    #: the chosen operator (None for a plain selection query)
    algorithm: str | None


@dataclass(frozen=True)
class ProjectedBlock:
    """One streamed group of projected result rows.

    For a text join this is one outer document's rows, emitted the
    moment that document's top-``lambda`` set is final; a selection
    query emits a single block with ``outer_doc`` ``None``.  The
    concatenation of every block's rows equals :attr:`QueryResult.rows`
    exactly — a ``LIMIT`` trims the final block rather than overshooting.
    """

    #: outer document id the rows belong to (None for selections)
    outer_doc: int | None
    #: projected rows, same tuples :attr:`QueryResult.rows` holds
    rows: tuple[tuple[Any, ...], ...]


#: what :func:`iter_execute` yields: the header, then row blocks
StreamItem = ProjectedHeader | ProjectedBlock


def _effective_limit(plan_limit: int | None, max_rows: int | None) -> int | None:
    """The stricter of the SQL ``LIMIT`` and a caller-supplied row cap."""
    if plan_limit is None:
        return max_rows
    if max_rows is None:
        return plan_limit
    return min(plan_limit, max_rows)


def execute(
    query: str | SelectQuery,
    catalog: Catalog,
    system: SystemParams | None = None,
    *,
    scenario: str = "sequential",
    inner_strategy: str = "materialize",
    context: ExecutionContext | None = None,
    shards: int | None = None,
    jobs: int = 0,
    codec: str | None = None,
    kernel: str | None = None,
) -> QueryResult:
    """Parse (if needed), plan and run a query against the catalog.

    ``inner_strategy`` is forwarded to :func:`repro.sql.planner.plan`.
    ``context`` scopes the join execution (budgets, cancellation, metric
    hooks); a fresh unlimited one is created when omitted.  ``shards``
    switches a text join to partitioned execution
    (:func:`repro.parallel.run_sharded`) over that many shards, with
    ``jobs`` pool workers (``<= 1`` runs the shards in-process); the
    rows are byte-identical to the sequential path by the parallel
    package's exactness contract.  ``codec`` selects the postings codec
    of a one-shot environment (a warm factory whose workspace stores a
    different codec is bypassed — the physical layout cannot be changed
    after the fact); ``kernel`` selects the scoring-kernel backend —
    both leave the result rows untouched by the kernel layer's
    byte-identity contract.
    """
    stream = iter_execute(
        query,
        catalog,
        system,
        scenario=scenario,
        inner_strategy=inner_strategy,
        context=context,
        shards=shards,
        jobs=jobs,
        codec=codec,
        kernel=kernel,
    )
    while True:
        try:
            next(stream)
        except StopIteration as stop:
            return stop.value


def iter_execute(
    query: str | SelectQuery,
    catalog: Catalog,
    system: SystemParams | None = None,
    *,
    scenario: str = "sequential",
    inner_strategy: str = "materialize",
    context: ExecutionContext | None = None,
    shards: int | None = None,
    jobs: int = 0,
    max_rows: int | None = None,
    codec: str | None = None,
    kernel: str | None = None,
) -> Generator[StreamItem, None, QueryResult]:
    """Streaming twin of :func:`execute`: header, row blocks, result.

    Yields one :class:`ProjectedHeader` (after planning and the
    algorithm decision, before any join I/O), then a
    :class:`ProjectedBlock` per finalised outer document, and returns
    the same :class:`QueryResult` :func:`execute` would — the blocks'
    rows concatenate to exactly its ``rows``.  ``max_rows`` is an extra
    row cap with ``LIMIT`` semantics (the stricter of the two wins), so
    transport-level caps get the same early-exit I/O savings as a SQL
    ``LIMIT``.  Abandoning the generator (``close()``) unwinds the
    operator's execution scope; no further join I/O is charged.
    """
    if isinstance(query, str):
        query = parse(query)
    system = system or SystemParams()
    the_plan = plan(query, catalog, inner_strategy=inner_strategy)
    if isinstance(the_plan, SelectionPlan):
        return (yield from _iter_selection(the_plan, max_rows))
    return (
        yield from _iter_text_join(
            the_plan, system, scenario, context, shards, jobs, max_rows,
            codec=codec, kernel=kernel,
        )
    )


def _iter_selection(
    the_plan: SelectionPlan, max_rows: int | None
) -> Generator[StreamItem, None, QueryResult]:
    columns = [f"{p.binding}.{p.attribute}" for p in the_plan.projections]
    row_ids = the_plan.row_ids
    limit = _effective_limit(the_plan.limit, max_rows)
    if limit is not None:
        row_ids = row_ids[:limit]
    rows = [
        tuple(
            the_plan.relation.value(row_id, p.attribute) for p in the_plan.projections
        )
        for row_id in row_ids
    ]
    yield ProjectedHeader(columns=tuple(columns), algorithm=None)
    yield ProjectedBlock(outer_doc=None, rows=tuple(rows))
    return QueryResult(columns=columns, rows=rows, extras={"plan": the_plan})


def _project_block_rows(
    the_plan: TextJoinPlan, outer_doc: int, matches: tuple[tuple[int, float], ...]
) -> list[tuple[Any, ...]]:
    """Stitch one match block back to projected relation rows."""
    rows: list[tuple[Any, ...]] = []
    for rank, (inner_doc, similarity) in enumerate(matches, 1):
        inner_row = the_plan.inner_row_of_doc[inner_doc]
        values: list[Any] = []
        for projection in the_plan.projections:
            if projection.binding == the_plan.inner_binding:
                values.append(projection.relation.value(inner_row, projection.attribute))
            elif projection.binding == the_plan.outer_binding:
                values.append(projection.relation.value(outer_doc, projection.attribute))
            else:  # pragma: no cover — planner enforces two bindings
                values.append(None)
        values.append(rank)
        values.append(similarity)
        rows.append(tuple(values))
    return rows


def _plan_factory(
    the_plan: TextJoinPlan,
    codec: str | None = None,
    kernel: str | None = None,
) -> EnvironmentFactory:
    """The plan's factory, or a one-shot one over its collections.

    A requested ``codec`` that differs from a catalog factory's stored
    one forces a fresh one-shot factory: the codec is physical layout,
    and a warm workspace cannot be re-encoded in place.  ``kernel`` is
    arithmetic only, so it is simply set on whichever factory runs.
    """
    factory = the_plan.environment_factory
    if factory is not None and codec is not None and codec != factory.spec.codec:
        factory = None
    if factory is None:
        from repro.core.environment import EnvironmentSpec

        factory = EnvironmentFactory(
            the_plan.inner_collection,
            None
            if the_plan.outer_collection is the_plan.inner_collection
            else the_plan.outer_collection,
            EnvironmentSpec(codec=codec) if codec is not None else None,
        )
    if kernel is not None:
        factory.kernel = kernel
    return factory


def _iter_text_join(
    the_plan: TextJoinPlan,
    system: SystemParams,
    scenario: str,
    context: ExecutionContext | None,
    shards: int | None,
    jobs: int,
    max_rows: int | None,
    *,
    codec: str | None = None,
    kernel: str | None = None,
) -> Generator[StreamItem, None, QueryResult]:
    """The one text-join consumer: decide, pull a block stream, project.

    Sequential and sharded execution differ only in the stream pulled:
    the chosen operator's own, or — with ``shards`` — the exact merge of
    :func:`repro.parallel.run_sharded` replayed block by block.  The
    decision always uses the full (unsharded) statistics, so ``shards``
    never changes which operator runs, and the rows are identical.  A
    sharded stream is complete before its first block, so there a
    ``LIMIT`` trims rows but saves no I/O.
    """
    factory = _plan_factory(the_plan, codec, kernel)
    # Derivation events charged to *this* query: zero when the catalog
    # supplied a warm (e.g. workspace-backed) factory.
    events_before = len(factory.derivation_events())
    environment = factory.create()
    dataset_build_events = len(factory.derivation_events()) - events_before
    joiner = IntegratedJoin(environment, system, scenario=scenario)
    spec = TextJoinSpec(lam=the_plan.lam)
    ctx = ensure_context(context)
    # Decide up front so the chosen algorithm is known even when LIMIT
    # abandons the stream before the operator finishes.
    decision = joiner.decide(spec, the_plan.outer_ids, the_plan.inner_ids)

    columns = [f"{p.binding}.{p.attribute}" for p in the_plan.projections]
    columns += ["_rank", "_similarity"]
    yield ProjectedHeader(columns=tuple(columns), algorithm=decision.chosen)

    sharded_extras: dict[str, Any] = {}
    if shards is None:
        stream = joiner.stream(
            spec,
            the_plan.outer_ids,
            inner_ids=the_plan.inner_ids,
            context=ctx,
            decision=decision,
        )
    else:
        from repro.parallel.runner import run_sharded

        sharded = run_sharded(
            decision.chosen,
            spec,
            system,
            factory=factory,
            shards=shards,
            jobs=jobs,
            outer_ids=the_plan.outer_ids,
            inner_ids=the_plan.inner_ids,
            delta=joiner.delta,
            context=ctx,
        )
        stream = sharded.stream()
        sharded_extras = {
            # shard workers charge their own contexts, not the caller's
            "pages_read": sharded.io.total_reads,
            "sharding": {
                key: sharded.extras[key]
                for key in ("shards", "jobs", "axis", "per_shard")
            },
        }

    limit = _effective_limit(the_plan.limit, max_rows)
    rows: list[tuple[Any, ...]] = []
    matches: dict[int, list[tuple[int, float]]] = {}
    summary = None
    truncated = False
    try:
        while True:
            try:
                block = next(stream)
            except StopIteration as stop:
                summary = stop.value
                break
            matches[block.outer_doc] = list(block.matches)
            block_rows = _project_block_rows(
                the_plan, block.outer_doc, block.matches
            )
            rows.extend(block_rows)
            if limit is not None and len(rows) >= limit:
                overshoot = len(rows) - limit
                kept = block_rows[: len(block_rows) - overshoot]
                if kept:
                    yield ProjectedBlock(
                        outer_doc=block.outer_doc, rows=tuple(kept)
                    )
                truncated = True
                break
            yield ProjectedBlock(outer_doc=block.outer_doc, rows=tuple(block_rows))
    finally:
        # Closing an abandoned stream unwinds the operator's execution
        # scope (guard + phases), so no further join I/O can be charged.
        stream.close()

    if limit is not None:
        rows = rows[:limit]

    join: TextJoinResult | None = None
    if summary is not None:
        # Drained to the end: reconstruct exactly what collect() returns.
        join = TextJoinResult(
            algorithm=summary.algorithm,
            spec=summary.spec,
            matches=matches,
            io=summary.io,
            extras=summary.extras,
        )

    return QueryResult(
        columns=columns,
        rows=rows,
        # The decision, not the executor that ran: an inner-sliced
        # HHNL-BWD runs in forward order, but the logical choice (and
        # the rows) are the same at every shard count.
        algorithm=decision.chosen,
        join=join,
        extras={
            "plan": the_plan,
            "decision": decision,
            "pages_read": ctx.pages_used,
            "blocks_emitted": ctx.blocks_emitted,
            "truncated": truncated,
            "dataset_build_events": dataset_build_events,
            **sharded_extras,
        },
    )
