"""Parallel-equivalence conformance: sharding changes nothing.

The sharded execution contract (:mod:`repro.parallel`) is *exact*
equivalence: partitioning a join across shards and merging the partial
top-``lambda`` trackers must reproduce the sequential run byte for byte
— the same match sets, the same similarity values, the same ordering,
with no extras and no omissions.  Each trial draws a random
:class:`~repro.conformance.trials.TrialConfig` and cross-examines every
executor against sharded runs at several shard counts, checking on top:

* **single-shard identity** — ``shards=1`` is a pass-through, so even
  the per-extent I/O counters and the operator extras must equal the
  sequential run exactly;
* **I/O additivity** — the merged counter must be the key-wise sum of
  the per-shard counters (the merge itself reads nothing).

The ``runner`` hook is the injection point for mutation tests — a
corrupting runner (e.g. one that drops a shard's matches) must surface
as a divergence, proving the harness can actually catch a broken merge.

Infeasibility policy: a trial whose sequential run raises
:class:`~repro.errors.InsufficientMemoryError` is a skip — sharding
shrinks per-run working sets (VVM shards may fit where the sequential
accumulator does not), so sharded feasibility under sequential
infeasibility is a feature, not a divergence.  The reverse — a shard
failing where the sequential run fits — *is* a divergence.
"""

from __future__ import annotations

import random
from typing import Callable, Mapping, Sequence

from repro.conformance.differential import (
    DifferentialOutcome,
    Divergence,
    _io_mismatch,
    matches_mismatch,
    result_mismatch,
)
from repro.conformance.trials import (
    DEFAULT_EXECUTORS,
    ExecutorFn,
    TrialConfig,
    random_trial_config,
)
from repro.core.environment import EnvironmentFactory, EnvironmentSpec
from repro.errors import InsufficientMemoryError
from repro.parallel.runner import ShardedJoinResult, run_sharded
from repro.storage.iostats import IOStats

#: shard counts every trial exercises (1 = the pass-through identity)
SHARD_COUNTS = (1, 2, 3)

#: how a trial runs one sharded join; the mutation-test injection point
ShardedRunnerFn = Callable[
    [str, TrialConfig, EnvironmentFactory, int], ShardedJoinResult
]


def _default_runner(
    algorithm: str,
    config: TrialConfig,
    factory: EnvironmentFactory,
    shards: int,
) -> ShardedJoinResult:
    """Run one sharded join with the trial's full parameter set."""
    return run_sharded(
        algorithm,
        config.join_spec(),
        config.system(),
        factory=factory,
        shards=shards,
        outer_ids=config.outer_selection,
        inner_ids=config.inner_selection,
        interference=config.interference,
        delta=config.delta,
    )


def _additivity_mismatch(sharded: ShardedJoinResult) -> str | None:
    """The merged counter must be the key-wise sum of the shard counters."""
    summed = IOStats()
    for outcome in sharded.shard_outcomes:
        summed.merge(outcome.io)
    detail = _io_mismatch(summed, sharded.io)
    if detail is None:
        return None
    return f"merged I/O is not the sum of per-shard I/O: {detail}"


def run_parallel_equivalence(
    seed: int,
    trials: int,
    *,
    executors: Mapping[str, ExecutorFn] | None = None,
    runner: ShardedRunnerFn | None = None,
    shard_counts: Sequence[int] = SHARD_COUNTS,
    fail_fast: bool = False,
) -> DifferentialOutcome:
    """Prove sharded execution equals sequential execution exactly."""
    executors = DEFAULT_EXECUTORS if executors is None else executors
    runner = _default_runner if runner is None else runner
    rng = random.Random(seed)
    outcome = DifferentialOutcome(seed=seed, trials_requested=trials)

    for trial in range(trials):
        config = random_trial_config(rng, trial)
        c1, c2 = config.build_collections()
        factory = EnvironmentFactory(
            c1,
            None if config.self_join else c2,
            spec=EnvironmentSpec(page_bytes=config.page_bytes),
        )
        outcome.trials_run += 1

        for name, executor in executors.items():
            try:
                sequential = executor(config.build_environment(), config)
            except InsufficientMemoryError:
                outcome.skips[name] = outcome.skips.get(name, 0) + 1
                continue

            for shards in shard_counts:
                outcome.comparisons += 1
                detail: str | None
                try:
                    sharded = runner(name, config, factory, shards)
                except InsufficientMemoryError:
                    detail = (
                        f"insufficient memory at shards={shards} although "
                        "the sequential run fits"
                    )
                else:
                    detail = matches_mismatch(sequential.matches, sharded.matches)
                    if detail is None:
                        detail = _additivity_mismatch(sharded)
                    if detail is None and shards == 1:
                        # the pass-through shard is the sequential run
                        detail = result_mismatch(
                            sequential, sharded.shard_outcomes[0]
                        )
                if detail is not None:
                    outcome.divergences.append(
                        Divergence(
                            check="parallel-equivalence",
                            executor=name,
                            trial=trial,
                            detail=f"shards={shards}: {detail}",
                            reproduction=config.reproduction(),
                        )
                    )
        if fail_fast and outcome.divergences:
            break
    return outcome


__all__ = [
    "SHARD_COUNTS",
    "ShardedRunnerFn",
    "run_parallel_equivalence",
]
