"""Workspace round-trip conformance: persisted datasets change nothing.

The workspace contract (:mod:`repro.workspace`) is *exact* equivalence:
an environment assembled from artifacts that went through disk must be
indistinguishable from one derived in memory — identical matches,
identical similarities, identical :class:`~repro.storage.iostats.IOStats`
down to the per-extent counters, identical executor extras.  Anything
less would make workspace-backed experiments incomparable with the
published in-memory numbers.

Each trial draws a random :class:`~repro.conformance.trials.TrialConfig`,
persists its collections with :func:`~repro.workspace.build_workspace`
into a temporary directory, reloads them through the ``loader`` hook
(:func:`~repro.workspace.load_workspace` by default — tests inject a
corrupting loader to prove the harness catches, e.g., a dropped inverted
entry), and runs every executor twice on fresh environments.
"""

from __future__ import annotations

import random
import tempfile
from typing import Callable, Mapping

from repro.conformance.differential import (
    Divergence,
    DifferentialOutcome,
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
from repro.workspace.builder import build_workspace
from repro.workspace.loader import load_workspace

#: how a trial turns a workspace directory back into a factory; the
#: injection point for corruption-detection tests
LoaderFn = Callable[[str], EnvironmentFactory]


def run_workspace_roundtrip(
    seed: int,
    trials: int,
    *,
    executors: Mapping[str, ExecutorFn] | None = None,
    loader: LoaderFn | None = None,
    fail_fast: bool = False,
) -> DifferentialOutcome:
    """Prove save → load → join equals the all-in-memory join exactly.

    Every trial builds one workspace and every executor runs once over a
    fresh in-memory environment and once over a fresh environment from
    the loaded factory; any difference in matches, I/O counters or
    extras is a :class:`~repro.conformance.differential.Divergence`.  An
    executor may be infeasible under the drawn buffer — but then it must
    be infeasible on *both* environments (counted as a skip); raising on
    only one side is itself a divergence.
    """
    executors = DEFAULT_EXECUTORS if executors is None else executors
    loader = load_workspace if loader is None else loader
    rng = random.Random(seed)
    outcome = DifferentialOutcome(seed=seed, trials_requested=trials)

    for trial in range(trials):
        config = random_trial_config(rng, trial)
        c1, c2 = config.build_collections()
        spec = EnvironmentSpec(page_bytes=config.page_bytes)
        with tempfile.TemporaryDirectory(prefix="repro-ws-") as tmp:
            build_workspace(tmp, c1, None if config.self_join else c2, spec=spec)
            factory = loader(tmp)
            outcome.trials_run += 1

            for name, executor in executors.items():
                try:
                    memory_result = executor(config.build_environment(), config)
                except InsufficientMemoryError:
                    memory_result = None
                try:
                    loaded_result = executor(factory.create(), config)
                except InsufficientMemoryError:
                    loaded_result = None
                if memory_result is None and loaded_result is None:
                    outcome.skips[name] = outcome.skips.get(name, 0) + 1
                    continue
                outcome.comparisons += 1
                if memory_result is None or loaded_result is None:
                    side = "in-memory" if memory_result is None else "workspace"
                    detail = f"insufficient memory on the {side} side only"
                else:
                    detail = result_mismatch(memory_result, loaded_result)
                if detail is not None:
                    outcome.divergences.append(
                        Divergence(
                            check="workspace-roundtrip",
                            executor=name,
                            trial=trial,
                            detail=detail,
                            reproduction=config.reproduction(),
                        )
                    )
        if fail_fast and outcome.divergences:
            break
    return outcome


__all__ = ["LoaderFn", "run_workspace_roundtrip"]
