"""The shard worker: a pure function of its task.

:func:`run_shard_task` is the function handed to the process pool, and
it is written to the RA-PAR-SAFE contract the whole-program analysis
enforces (:mod:`repro.analysis.rules.parallel_safety`):

* it is a **module-level function** of one picklable argument;
* it **builds all execution state locally** — the environment (fresh
  simulated disk and root :class:`~repro.storage.iostats.IOStats` per
  :meth:`~repro.core.environment.EnvironmentFactory.create`) and a
  private :class:`~repro.exec.context.ExecutionContext` holding the
  shard's slice of the page budget;
* it **returns** everything the parent needs — it never writes module
  state, keeps no cache, and the I/O counters it ships back are
  observer-free snapshots.

Workspace-backed tasks warm-load their factory inside the child
(:func:`~repro.workspace.loader.load_workspace`), so a worker over a
persisted dataset performs **zero** derivation work — the
``derivation_events`` field of the outcome proves it per shard.
"""

from __future__ import annotations

from repro.core.shards import iter_shard
from repro.exec.context import ExecutionBudget, ExecutionContext
from repro.exec.stream import collect
from repro.parallel.tasks import ShardOutcome, ShardTask
from repro.workspace.loader import load_workspace


def run_shard_task(task: ShardTask) -> ShardOutcome:
    """Execute one shard against its own environment and context."""
    factory = task.factory
    if factory is None:
        factory = load_workspace(task.workspace)
    derivations_before = len(factory.derivation_events())
    environment = factory.create()
    context = ExecutionContext(
        budget=ExecutionBudget(
            pages=task.budget_pages, seconds=task.budget_seconds
        )
    )
    result = collect(
        iter_shard(
            task.algorithm,
            environment,
            task.spec,
            task.system,
            task.shard,
            outer_ids=task.outer_ids,
            inner_ids=task.inner_ids,
            interference=task.interference,
            delta=task.delta,
            context=context,
        )
    )
    return ShardOutcome(
        index=task.shard.index,
        algorithm=result.algorithm,
        matches=result.matches,
        io=result.io.snapshot(),
        phase_stats={
            name: stats.snapshot()
            for name, stats in context.phase_stats.items()
        },
        extras=dict(result.extras),
        pages_used=context.pages_used,
        blocks_emitted=context.blocks_emitted,
        derivation_events=len(factory.derivation_events()) - derivations_before,
    )


__all__ = ["run_shard_task"]
