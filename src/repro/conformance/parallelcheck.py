"""The ``parallel-equivalence`` axis: shards change nothing."""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterator, Mapping

from repro.conformance.equivalence import (
    Case, Drawn, Variant, execute, io_mismatch, matches_mismatch, result_mismatch,
)
from repro.conformance.trials import ExecutorFn, TrialConfig, random_trial_config
from repro.core.environment import EnvironmentFactory
from repro.parallel.runner import ShardedJoinResult, run_sharded
from repro.storage.iostats import IOStats


def sharded_run(
    algorithm: str,
    config: TrialConfig,
    factory: EnvironmentFactory | None,
    shards: int,
    workspace: str | None = None,
) -> ShardedJoinResult:
    """One sharded join over ``factory`` (or ``workspace``) with the
    trial's full parameter set."""
    return run_sharded(
        algorithm, config.join_spec(), config.system(), factory=factory,
        workspace=workspace, shards=shards, **config.run_keywords(),
    )


def _sharded_mismatch(shards: int, sequential: Any, sharded: Any) -> str | None:
    """Matches, then I/O additivity, then the pass-through identity."""
    detail = matches_mismatch(sequential.matches, sharded.matches)
    if detail is None:
        summed = IOStats()
        for shard in sharded.shard_outcomes:
            summed.merge(shard.io)
        detail = io_mismatch(summed, sharded.io)
        detail = detail and f"merged I/O is not the sum of per-shard I/O: {detail}"
    if detail is None and shards == 1:
        detail = result_mismatch(sequential, sharded.shard_outcomes[0])
    return detail


@dataclass(frozen=True)
class ParallelAxis:
    """Sharded execution equals sequential execution exactly.

    The merged top-``lambda`` matches equal the sequential ones, the
    merged I/O is the sum of the shards' (the merge reads nothing), and
    ``shards=1`` is a pass-through equal to the sequential run in full.
    Shards may fit where the sequential run does not (a skip), never the
    other way round.  ``runner(algorithm, config, factory, shards)`` is
    the mutant injection point.
    """

    runner: Callable[..., ShardedJoinResult] = sharded_run

    @contextmanager
    def trial(
        self, rng: random.Random, trial: int, executors: Mapping[str, ExecutorFn]
    ) -> Iterator[Drawn]:
        """One configuration; each executor against every shard count."""
        config = random_trial_config(rng, trial)
        factory = config.build_factory()
        yield config.reproduction(), [
            Case(name, partial(execute, executor, config, config.build_environment),
                 [Variant(f"shards={shards}",
                          partial(self.runner, name, config, factory, shards),
                          partial(_sharded_mismatch, shards))
                  for shards in (1, 2, 3)])
            for name, executor in executors.items()
        ]


__all__ = ["ParallelAxis", "sharded_run"]
