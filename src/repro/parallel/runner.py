"""Partitioned join execution over a process pool.

:func:`run_sharded` is the orchestration entry point: plan the shards
(:func:`~repro.core.shards.shard_specs`), split the caller's page budget
across them (:meth:`~repro.exec.context.ExecutionBudget.split`), run one
:class:`~repro.parallel.tasks.ShardTask` per shard — in-process when
``jobs <= 1``, on a :class:`~concurrent.futures.ProcessPoolExecutor`
otherwise, reusing the sweep engine's fan-out idiom — and merge the
outcomes exactly (:mod:`repro.parallel.merge`).

The two execution modes are **byte-identical**: the worker is the same
module-level function either way, every shard owns a fresh environment
and context in both modes, and the merge is associative and commutative,
so ``jobs`` changes wall-clock only, never results.  A failed shard
propagates its original exception (budget errors, infeasible memory) and
contributes nothing to the merged counters — the parent only merges
outcomes that completed.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

from repro.core.environment import EnvironmentFactory
from repro.core.join import TextJoinSpec
from repro.core.shards import shard_specs
from repro.cost.params import SystemParams
from repro.errors import ParallelExecutionError
from repro.exec.context import ExecutionContext, ensure_context
from repro.exec.stream import MatchBlock, StreamSummary
from repro.parallel.merge import (
    check_outcomes,
    merge_io,
    merge_matches,
    merge_phase_stats,
)
from repro.parallel.tasks import ShardOutcome, ShardTask
from repro.parallel.worker import run_shard_task
from repro.storage.iostats import IOStats
from repro.workspace.loader import load_workspace


@dataclass
class ShardedJoinResult:
    """The exact global result plus per-shard provenance.

    ``matches`` and ``io`` are the merged globals; ``shard_outcomes``
    keeps each shard's private matches, counters and operator extras
    (for a single pass-through shard, ``shard_outcomes[0].extras`` *is*
    the sequential run's extras, verbatim).  ``extras`` describes the
    sharding itself.
    """

    algorithm: str
    spec: TextJoinSpec
    matches: dict[int, list[tuple[int, float]]]
    io: IOStats
    phase_stats: dict[str, IOStats]
    shard_outcomes: tuple[ShardOutcome, ...]
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def shards(self) -> int:
        return len(self.shard_outcomes)

    def shard_pages(self) -> list[int]:
        """Total pages each shard read (the measured-cost inputs)."""
        return [outcome.io.total_reads for outcome in self.shard_outcomes]

    def stream(self) -> Iterator[MatchBlock]:
        """The merged result in the operator stream protocol.

        One block per outer document in merged order, then a
        :class:`~repro.exec.stream.StreamSummary` — so whatever consumes
        an ``iter_*`` operator (:func:`~repro.exec.stream.collect`, the
        SQL executor) consumes a sharded run unchanged.
        """
        for outer_doc, hits in self.matches.items():
            yield MatchBlock(outer_doc=outer_doc, matches=tuple(hits))
        return StreamSummary(
            algorithm=self.algorithm,
            spec=self.spec,
            io=self.io,
            extras=dict(self.extras),
        )


def run_sharded(
    algorithm: str,
    spec: TextJoinSpec,
    system: SystemParams,
    *,
    factory: EnvironmentFactory | None = None,
    workspace: str | None = None,
    shards: int = 1,
    jobs: int = 0,
    outer_ids: Sequence[int] | None = None,
    inner_ids: Sequence[int] | None = None,
    interference: bool = False,
    delta: float = 0.1,
    context: ExecutionContext | None = None,
) -> ShardedJoinResult:
    """Run one algorithm over ``shards`` partitions and merge exactly.

    Exactly one of ``factory`` / ``workspace`` supplies the dataset.
    With a workspace, each pool child warm-loads its own factory from
    disk (zero derivation, small pickles); with a factory, the factory
    itself is shipped by value.  ``jobs <= 1`` runs the same workers
    in-process, sequentially — the conformance baseline the pool mode
    must match byte-for-byte.

    The parent context's page budget is split across shards and each
    worker enforces its slice locally; the merged blocks are emitted
    through the parent context so hooks and ``blocks_emitted`` see the
    global result.
    """
    if shards < 1:
        raise ParallelExecutionError(
            f"shard count must be >= 1, got {shards}"
        )
    if (workspace is None) == (factory is None):
        raise ParallelExecutionError(
            "run_sharded needs exactly one dataset source: "
            "a workspace directory or an environment factory"
        )
    planning_factory = factory if factory is not None else load_workspace(workspace)
    specs = shard_specs(
        algorithm,
        planning_factory,
        shards,
        outer_ids=outer_ids,
        inner_ids=inner_ids,
    )
    if not specs:
        raise ParallelExecutionError(
            "the sharded axis has no participating documents"
        )
    ctx = ensure_context(context)
    budgets = ctx.budget.split(len(specs))
    tasks = [
        ShardTask(
            algorithm=algorithm,
            spec=spec,
            system=system,
            shard=shard,
            outer_ids=None if outer_ids is None else tuple(outer_ids),
            inner_ids=None if inner_ids is None else tuple(inner_ids),
            interference=interference,
            delta=delta,
            budget_pages=budgets[shard.index].pages,
            budget_seconds=budgets[shard.index].seconds,
            workspace=workspace,
            factory=factory,
        )
        for shard in specs
    ]

    outcomes: list[ShardOutcome]
    if jobs <= 1 or len(tasks) == 1:
        outcomes = []
        for task in tasks:
            ctx.checkpoint()
            outcomes.append(run_shard_task(task))
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            outcomes = list(pool.map(run_shard_task, tasks))
    check_outcomes(outcomes)

    matches = merge_matches(outcomes, spec)
    merged_io = merge_io(outcomes)
    for outer_doc in matches:
        ctx.emit(MatchBlock(outer_doc=outer_doc, matches=tuple(matches[outer_doc])))

    extras: dict[str, Any] = {
        "sharded": True,
        "shards": len(outcomes),
        "jobs": jobs,
        "axis": specs[0].axis,
        "per_shard": [
            {
                "index": outcome.index,
                "documents": (
                    None
                    if specs[outcome.index].doc_ids is None
                    else len(specs[outcome.index].doc_ids)
                ),
                "pages": outcome.io.total_reads,
                "pages_used": outcome.pages_used,
                "blocks_emitted": outcome.blocks_emitted,
                "derivation_events": outcome.derivation_events,
            }
            for outcome in outcomes
        ],
    }
    return ShardedJoinResult(
        algorithm=outcomes[0].algorithm,
        spec=spec,
        matches=matches,
        io=merged_io,
        phase_stats=merge_phase_stats(outcomes),
        shard_outcomes=tuple(outcomes),
        extras=extras,
    )


__all__ = ["ShardedJoinResult", "run_sharded"]
