"""The ``kernel-equivalence`` axis: a kernel backend changes nothing."""

from __future__ import annotations

import random
from contextlib import contextmanager
from functools import partial
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.conformance.equivalence import (
    DIVERGE, IGNORE, Case, Drawn, Variant, result_mismatch, same_matches,
)
from repro.conformance.parallelcheck import sharded_run
from repro.conformance.trials import ExecutorFn, TrialConfig, random_trial_config
from repro.kernels import numpy_available

#: the kernel backend every other backend is held to
REFERENCE_KERNEL = "scalar"

#: shard counts of the matches-only sharded re-runs (1 is the pass-through)
RERUN_SHARDS = (1, 4)


def candidate_kernels() -> tuple[str, ...]:
    """Non-reference backends this interpreter can run."""
    return ("stdlib", "numpy") if numpy_available() else ("stdlib",)


def kernel_variants(
    run: Callable[[str], Any],
    infeasible: str = DIVERGE,
    then: Callable[[str], Sequence[Variant]] = lambda kernel: (),
) -> list[Variant]:
    """Each candidate backend's sequential re-run ``run(kernel)``, held to
    the base byte for byte, with ``then(kernel)`` as its follow-ups."""
    return [
        Variant(f"kernel={kernel}", partial(run, kernel), result_mismatch,
                infeasible, tuple(then(kernel)))
        for kernel in candidate_kernels()
    ]


def _sharded(name: str, config: TrialConfig, kernel: str, shards: int) -> Any:
    """A sharded run over a factory with ``kernel`` pinned."""
    return sharded_run(name, config, config.build_factory(kernel), shards)


class KernelAxis:
    """Every kernel backend reproduces the scalar loops exactly.

    A backend only reorganises exact arithmetic, so matches (types
    included), per-extent I/O and extras must not move.  On top of an
    agreeing sequential run, the backend is re-run sharded (pinned on the
    shipped factory) and over the ``vbyte`` codec, matches only.
    """

    @contextmanager
    def trial(
        self, rng: random.Random, trial: int, executors: Mapping[str, ExecutorFn]
    ) -> Iterator[Drawn]:
        """One configuration; each executor's scalar run against the rest."""
        config = random_trial_config(rng, trial)

        def case(name: str, executor: ExecutorFn) -> Case:
            def run(kernel: str, codec: str = "raw") -> Any:
                return executor(config.build_environment(kernel, codec), config)

            def reruns(kernel: str) -> list[Variant]:
                # matches only; a re-run that runs out proves nothing
                return [
                    *(Variant(f"kernel={kernel} shards={shards}",
                              partial(_sharded, name, config, kernel, shards),
                              same_matches, IGNORE)
                      for shards in RERUN_SHARDS),
                    Variant(f"kernel={kernel} codec=vbyte",
                            partial(run, kernel, "vbyte"), same_matches, IGNORE),
                ]

            return Case(name, partial(run, REFERENCE_KERNEL),
                        kernel_variants(run, then=reruns))

        yield config.reproduction(), [
            case(name, executor) for name, executor in executors.items()
        ]


__all__ = ["KernelAxis", "REFERENCE_KERNEL", "RERUN_SHARDS", "candidate_kernels",
           "kernel_variants"]
