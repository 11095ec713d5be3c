"""The ``workspace-roundtrip`` axis: a workspace on disk changes nothing."""

from __future__ import annotations

import random
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Mapping

from repro.conformance.equivalence import (
    AGREE, Case, Drawn, Variant, execute, result_mismatch,
)
from repro.conformance.trials import ExecutorFn, random_trial_config
from repro.core.environment import EnvironmentFactory, EnvironmentSpec
from repro.workspace.builder import build_workspace
from repro.workspace.loader import load_workspace


@dataclass(frozen=True)
class WorkspaceAxis:
    """save → load → join equals the all-in-memory join exactly.

    Anything less would make workspace-backed experiments incomparable
    with in-memory ones.  ``loader`` turns the trial's directory back into
    a factory; it is the mutant injection point.
    """

    loader: Callable[[str], EnvironmentFactory] = load_workspace

    @contextmanager
    def trial(
        self, rng: random.Random, trial: int, executors: Mapping[str, ExecutorFn]
    ) -> Iterator[Drawn]:
        """Build and reload one workspace; each executor runs on both."""
        config = random_trial_config(rng, trial)
        c1, c2 = config.build_collections()
        spec = EnvironmentSpec(page_bytes=config.page_bytes)
        with tempfile.TemporaryDirectory(prefix="repro-ws-") as tmp:
            build_workspace(tmp, c1, None if config.self_join else c2, spec=spec)
            factory = self.loader(tmp)
            yield config.reproduction(), [
                Case(name, partial(execute, executor, config, config.build_environment),
                     (Variant("workspace", partial(execute, executor, config,
                                                   factory.create),
                              result_mismatch, AGREE),))
                for name, executor in executors.items()
            ]


__all__ = ["WorkspaceAxis"]
