"""Randomized trial workloads shared by every conformance check.

One :class:`TrialConfig` captures *everything* a trial depends on —
collection recipes, query, system parameters, selections, the I/O
scenario — as a frozen value object, so any reported divergence can be
replayed exactly from the parameters embedded in the report
(:meth:`TrialConfig.reproduction`).

Collections come from :mod:`repro.workloads.synthetic`, sized so that a
trial costs milliseconds.  The executor registry maps algorithm names to
one uniform adapter over a trial; a mutated entry is how the suites
prove a check catches an injected bug.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterator, Mapping

from repro.core.environment import EnvironmentFactory, EnvironmentSpec
from repro.core.hhnl import run_hhnl
from repro.core.hvnl import run_hvnl
from repro.core.join import JoinEnvironment, TextJoinResult, TextJoinSpec
from repro.core.operators import OPERATORS
from repro.core.vvm import run_vvm
from repro.cost.params import SystemParams
from repro.errors import ConformanceError
from repro.exec.stream import MatchBlock
from repro.storage.pages import PageGeometry
from repro.text.collection import DocumentCollection
from repro.workloads.synthetic import SyntheticSpec, generate_collection

#: uniform executor signature over one trial
ExecutorFn = Callable[[JoinEnvironment, "TrialConfig"], TextJoinResult]

#: uniform streaming-executor signature over one trial
StreamerFn = Callable[[JoinEnvironment, "TrialConfig"], Iterator[MatchBlock]]


@dataclass(frozen=True)
class TrialConfig:
    """Full reproduction parameters for one randomized trial.

    ``spec2 is None`` means a self-join (C2 *is* C1, sharing storage and
    indexes, as in Group 1 of the paper's simulations).
    """

    trial: int
    spec1: SyntheticSpec
    spec2: SyntheticSpec | None
    lam: int
    normalized: bool
    buffer_pages: int
    page_bytes: int
    alpha: float
    delta: float = 0.25
    interference: bool = False
    outer_selection: tuple[int, ...] | None = None
    inner_selection: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.lam <= 0:
            raise ConformanceError(f"lambda must be positive, got {self.lam}")

    @property
    def self_join(self) -> bool:
        """True when C2 is the same collection (and storage) as C1."""
        return self.spec2 is None

    def build_collections(self) -> tuple[DocumentCollection, DocumentCollection]:
        """Materialise (C1, C2); a self-join returns the same object twice."""
        c1 = generate_collection(self.spec1)
        c2 = c1 if self.spec2 is None else generate_collection(self.spec2)
        return c1, c2

    def build_environment(
        self, kernel: str = "auto", codec: str = "raw"
    ) -> JoinEnvironment:
        """Both collections laid out on a fresh simulated disk."""
        c1, c2 = self.build_collections()
        return JoinEnvironment(
            c1, c2, PageGeometry(self.page_bytes), kernel=kernel, codec=codec
        )

    def build_factory(self, kernel: str = "auto") -> EnvironmentFactory:
        """A factory over fresh collections, shared storage on a self-join."""
        c1, c2 = self.build_collections()
        spec = EnvironmentSpec(page_bytes=self.page_bytes)
        return EnvironmentFactory(
            c1, None if self.self_join else c2, spec, kernel=kernel
        )

    def system(self) -> SystemParams:
        """The trial's ``B``/``P``/``alpha``."""
        return SystemParams(
            buffer_pages=self.buffer_pages,
            page_bytes=self.page_bytes,
            alpha=self.alpha,
        )

    def join_spec(self) -> TextJoinSpec:
        """The trial's SIMILAR_TO specification."""
        return TextJoinSpec(lam=self.lam, normalized=self.normalized)

    def run_keywords(self) -> dict[str, Any]:
        """Selections and I/O scenario, as every operator entry takes them."""
        return {
            "outer_ids": self.outer_selection,
            "inner_ids": self.inner_selection,
            "interference": self.interference,
            "delta": self.delta,
        }

    def reproduction(self) -> dict[str, Any]:
        """JSON-serialisable parameters that replay this trial exactly."""
        record = asdict(self)
        for key in ("outer_selection", "inner_selection"):
            if record[key] is not None:
                record[key] = list(record[key])
        return record


def _spec(
    rng: random.Random, name: str, n: int, avg: int, vocabulary: int, skew: float
) -> SyntheticSpec:
    """A synthetic collection recipe whose generator seed is drawn last."""
    return SyntheticSpec(name=name, n_documents=n, avg_terms_per_doc=avg,
                         vocabulary_size=vocabulary, skew=skew,
                         seed=rng.randrange(2**20))


def random_selection(
    rng: random.Random, n: int, probability: float
) -> tuple[int, ...] | None:
    """With ``probability``, a sorted proper subset of ``range(n)``
    (at least one id); None when drawn otherwise or when ``n < 2``."""
    if n > 1 and rng.random() < probability:
        return tuple(sorted(rng.sample(range(n), rng.randint(1, n - 1))))
    return None


def random_trial_config(rng: random.Random, trial: int) -> TrialConfig:
    """Draw one randomized configuration.

    Sizes are kept small (tens of documents, hundreds of terms) so a
    sweep of dozens of trials finishes in seconds, while still covering
    multi-page layouts, buffer eviction, multi-pass VVM, self-joins,
    selections on both sides, normalisation and the worst-case scenario.
    """
    n1 = rng.randint(6, 36)
    avg1 = rng.randint(4, 10)
    vocabulary = rng.randint(max(40, avg1 + 1), 140)
    skew = rng.choice((0.0, 0.7, 1.0, 1.3))
    spec1 = _spec(rng, f"conf{trial}-c1", n1, avg1, vocabulary, skew)
    if rng.random() < 0.15:
        spec2 = None
        n2 = n1
    else:
        n2 = rng.randint(4, 28)
        spec2 = _spec(rng, f"conf{trial}-c2", n2, rng.randint(4, 10), vocabulary, skew)
    outer_selection = random_selection(rng, n2, 0.25)
    inner_selection = random_selection(rng, n1, 0.2)
    return TrialConfig(
        trial=trial,
        spec1=spec1,
        spec2=spec2,
        lam=rng.randint(1, 8),
        normalized=rng.random() < 0.3,
        buffer_pages=rng.randint(18, 72),
        page_bytes=rng.choice((256, 512, 1024)),
        alpha=rng.choice((2.0, 5.0, 10.0)),
        delta=rng.choice((0.15, 0.25, 0.5)),
        interference=rng.random() < 0.25,
        outer_selection=outer_selection,
        inner_selection=inner_selection,
    )


def random_cost_trial_config(rng: random.Random, trial: int) -> TrialConfig:
    """Draw one randomized configuration for measured-vs-model checks.

    Cost conformance needs *larger* collections than match conformance:
    the Section 5 formulas work with fractional average sizes while the
    simulated disk charges whole pages, so on a three-page workload the
    rounding alone can exceed the prediction.  These trials span tens of
    pages per collection, which keeps the discretization error a small
    fraction of the total while still finishing in milliseconds.
    """
    vocabulary = rng.randint(200, 600)
    skew = rng.choice((0.0, 0.7, 1.0))
    spec1 = _spec(rng, f"cost{trial}-c1", rng.randint(50, 110), rng.randint(10, 18),
                  vocabulary, skew)
    spec2: SyntheticSpec | None = None
    if rng.random() >= 0.15:
        spec2 = _spec(rng, f"cost{trial}-c2", rng.randint(40, 90),
                      rng.randint(10, 18), vocabulary, skew)
    return TrialConfig(
        trial=trial,
        spec1=spec1,
        spec2=spec2,
        lam=rng.randint(2, 6),
        normalized=False,
        buffer_pages=rng.randint(10, 48),
        page_bytes=rng.choice((512, 1024)),
        alpha=rng.choice((2.0, 5.0, 10.0)),
        delta=rng.choice((0.25, 0.5)),
    )


def _over_trial(operator: Callable[..., Any]) -> Callable[..., Any]:
    """Adapt ``operator(environment, spec, system, **keywords)`` — a
    public ``run_*`` wrapper or an operator-table stream — to a trial."""

    def adapter(environment: JoinEnvironment, config: TrialConfig) -> Any:
        return operator(
            environment, config.join_spec(), config.system(), **config.run_keywords()
        )

    return adapter


#: name -> adapter; the default set every check cross-examines.  Tests
#: inject mutated entries here (via the ``executors=`` parameters, never
#: by mutating this mapping) to prove divergences are caught.
DEFAULT_EXECUTORS: Mapping[str, ExecutorFn] = {
    "HHNL": _over_trial(run_hhnl),
    "HVNL": _over_trial(run_hvnl),
    "VVM": _over_trial(run_vvm),
}

#: name -> streaming adapter, aligned with :data:`DEFAULT_EXECUTORS` so
#: the streaming-equivalence check can pair each operator-table stream
#: with its public materializing ``run_*`` twin on the same trial.
DEFAULT_STREAMERS: Mapping[str, StreamerFn] = {
    name: _over_trial(OPERATORS[name].stream) for name in DEFAULT_EXECUTORS
}


__all__ = [
    "DEFAULT_EXECUTORS", "DEFAULT_STREAMERS", "ExecutorFn", "StreamerFn",
    "TrialConfig", "random_cost_trial_config", "random_selection",
    "random_trial_config",
]
