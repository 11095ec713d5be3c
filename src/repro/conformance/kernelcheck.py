"""Kernel-equivalence conformance: the scoring backend changes nothing.

The kernel layer (:mod:`repro.kernels`) promises *byte identity*: every
backend — the scalar reference loops, the stdlib batch kernels, the
numpy bulk kernels — must produce the same match sets, the same
similarity values (bit-for-bit, not within tolerance), the same
per-extent I/O counters and the same operator extras, because a kernel
only reorganises arithmetic whose result is exact either way.

Each trial draws a random :class:`~repro.conformance.trials.TrialConfig`
and runs every executor once per backend against the ``scalar``
reference, then re-runs the reference comparison through the sharded
path (:func:`repro.parallel.run_sharded`) at the configured shard
counts with the backend pinned on the factory — proving the kernel
choice survives the shard workers' pickled factories.  On top, every
trial replays the join over a ``vbyte``-codec environment per backend:
the codec moves physical pages, never matches, so the match sets must
equal the scalar/raw reference exactly while the I/O is allowed (and
expected) to differ.

Backends that need an unavailable accelerator (``numpy`` without numpy
installed) are skipped, not failed: the contract is over the backends
this interpreter can actually run.
"""

from __future__ import annotations

import random
from typing import Mapping, Sequence

from repro.conformance.differential import (
    DifferentialOutcome,
    Divergence,
    result_mismatch,
)
from repro.conformance.trials import (
    DEFAULT_EXECUTORS,
    ExecutorFn,
    TrialConfig,
    random_trial_config,
)
from repro.core.environment import EnvironmentFactory, EnvironmentSpec
from repro.core.join import JoinEnvironment
from repro.errors import InsufficientMemoryError
from repro.kernels import numpy_available
from repro.parallel.runner import run_sharded
from repro.storage.pages import PageGeometry

#: the reference backend every other backend is held to
REFERENCE_KERNEL = "scalar"

#: shard counts the sharded re-run exercises (1 = pass-through)
KERNEL_SHARD_COUNTS = (1, 4)


def _candidate_kernels() -> tuple[str, ...]:
    """Non-reference backends this interpreter can run."""
    names = ["stdlib"]
    if numpy_available():
        names.append("numpy")
    return tuple(names)


def _kernel_environment(
    config: TrialConfig, kernel: str, codec: str = "raw"
) -> JoinEnvironment:
    """The trial's environment with an explicit kernel (and codec)."""
    c1, c2 = config.build_collections()
    return JoinEnvironment(
        c1, c2, PageGeometry(config.page_bytes), kernel=kernel, codec=codec
    )


def run_kernel_equivalence(
    seed: int,
    trials: int,
    *,
    executors: Mapping[str, ExecutorFn] | None = None,
    kernels: Sequence[str] | None = None,
    shard_counts: Sequence[int] = KERNEL_SHARD_COUNTS,
    fail_fast: bool = False,
) -> DifferentialOutcome:
    """Prove every kernel backend reproduces the scalar loops exactly."""
    executors = DEFAULT_EXECUTORS if executors is None else executors
    kernels = _candidate_kernels() if kernels is None else tuple(kernels)
    rng = random.Random(seed)
    outcome = DifferentialOutcome(seed=seed, trials_requested=trials)

    for trial in range(trials):
        config = random_trial_config(rng, trial)
        outcome.trials_run += 1

        for name, executor in executors.items():
            try:
                reference = executor(
                    _kernel_environment(config, REFERENCE_KERNEL), config
                )
            except InsufficientMemoryError:
                outcome.skips[name] = outcome.skips.get(name, 0) + 1
                continue

            def diverge(detail: str) -> None:
                outcome.divergences.append(
                    Divergence(
                        check="kernel-equivalence",
                        executor=name,
                        trial=trial,
                        detail=detail,
                        reproduction=config.reproduction(),
                    )
                )

            for kernel in kernels:
                # Sequential: full byte identity — matches, I/O, extras.
                outcome.comparisons += 1
                try:
                    candidate = executor(
                        _kernel_environment(config, kernel), config
                    )
                except InsufficientMemoryError:
                    diverge(
                        f"kernel={kernel}: insufficient memory although the "
                        "scalar run fits"
                    )
                    continue
                detail = result_mismatch(reference, candidate)
                if detail is not None:
                    diverge(f"kernel={kernel}: {detail}")

                # Sharded: the backend must survive pickled factories.
                for shards in shard_counts:
                    outcome.comparisons += 1
                    c1, c2 = config.build_collections()
                    factory = EnvironmentFactory(
                        c1,
                        None if config.self_join else c2,
                        spec=EnvironmentSpec(page_bytes=config.page_bytes),
                        kernel=kernel,
                    )
                    try:
                        sharded = run_sharded(
                            name,
                            config.join_spec(),
                            config.system(),
                            factory=factory,
                            shards=shards,
                            outer_ids=config.outer_selection,
                            inner_ids=config.inner_selection,
                            interference=config.interference,
                            delta=config.delta,
                        )
                    except InsufficientMemoryError:
                        continue  # sharding may shrink working sets; fine
                    if sharded.matches != reference.matches:
                        diverge(
                            f"kernel={kernel} shards={shards}: sharded "
                            "matches differ from the scalar sequential run"
                        )

                # Compressed codec: matches are codec-invariant.
                outcome.comparisons += 1
                try:
                    compressed = executor(
                        _kernel_environment(config, kernel, codec="vbyte"),
                        config,
                    )
                except InsufficientMemoryError:
                    continue
                if compressed.matches != reference.matches:
                    diverge(
                        f"kernel={kernel} codec=vbyte: matches differ from "
                        "the raw reference"
                    )
        if fail_fast and outcome.divergences:
            break
    return outcome


__all__ = [
    "KERNEL_SHARD_COUNTS",
    "REFERENCE_KERNEL",
    "run_kernel_equivalence",
]
