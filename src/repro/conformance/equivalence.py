"""One trial loop for every equivalence check.

Each physical variation of a join — streaming, a workspace on disk,
shards, a kernel backend, delta segments — must leave its matches, pages
and extras exactly as they were.  A check is an *axis*: per trial it
draws a configuration and yields its reproduction record and, per
executor, a :class:`Case`: the base run and the :class:`Variant` runs
held to it.  :func:`equivalence` owns the seeded rng, the counters, the
skips, the divergences and ``fail_fast``; the axis's ``trial`` context
owns the trial's temporary state.

A variant's ``infeasible`` rule says what its
:class:`~repro.errors.InsufficientMemoryError` means: :data:`AGREE` —
both out is a skip, one out a divergence; :data:`DIVERGE` — out where
the base fits is a divergence; :data:`IGNORE` — proves nothing.  A base
that runs out is a skip unless an :data:`AGREE` variant fits.  Follow-up
variants (``then``) run only once their variant agreed with the base.
:class:`StreamingAxis` lives here; the other axes live in
:mod:`~repro.conformance.workspace`, :mod:`~repro.conformance.parallelcheck`,
:mod:`~repro.conformance.kernelcheck` and
:mod:`~repro.conformance.incrementalcheck`.
"""

from __future__ import annotations

import random
from contextlib import AbstractContextManager, contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterable, Iterator, Mapping, Protocol, Sequence

from repro.conformance.differential import DifferentialOutcome, Divergence
from repro.conformance.oracle import Matches
from repro.conformance.trials import (
    DEFAULT_STREAMERS, DEFAULT_EXECUTORS, ExecutorFn, StreamerFn, TrialConfig,
    random_cost_trial_config,
)
from repro.errors import InsufficientMemoryError
from repro.exec.stream import StreamSummary
from repro.storage.iostats import IOStats

AGREE = "agree"
DIVERGE = "diverge"
IGNORE = "ignore"


def io_mismatch(reference: IOStats, candidate: IOStats) -> str | None:
    """Describe the first I/O-counter disagreement, or None when equal."""
    for label, ours, theirs in (
        ("sequential reads", reference.sequential_reads, candidate.sequential_reads),
        ("random reads", reference.random_reads, candidate.random_reads),
        ("per-extent reads", dict(reference.by_extent), dict(candidate.by_extent)),
    ):
        if ours != theirs:
            return f"{label} differ: reference={ours} candidate={theirs}"
    return None


def matches_mismatch(reference: Matches, candidate: Matches) -> str | None:
    """First disagreement between two results' matches, or None.

    Exact equality, floats included: every equivalence check compares
    two runs over the same integer d-cell weights.
    """
    if reference != candidate:
        missing = set(reference) ^ set(candidate)
        if missing:
            return f"outer documents differ (symmetric difference {sorted(missing)})"
        for outer_doc, hits in reference.items():
            if candidate[outer_doc] != hits:
                return (
                    f"matches for outer {outer_doc} differ: "
                    f"reference={hits} candidate={candidate[outer_doc]}"
                )
    for outer_doc, hits in reference.items():
        for (_, ref_sim), (_, cand_sim) in zip(hits, candidate[outer_doc]):
            # == alone would bless int 22 against float 22.0; rendered
            # output (sql --rows-only) exposes the type, so pin it too.
            if type(cand_sim) is not type(ref_sim):
                return (
                    f"similarity type for outer {outer_doc} differs: "
                    f"reference {type(ref_sim).__name__}({ref_sim}) "
                    f"candidate {type(cand_sim).__name__}({cand_sim})"
                )
    return None


def result_mismatch(reference: Any, candidate: Any) -> str | None:
    """First disagreement between two full join results, or None:
    matches, similarity types, per-extent I/O, then extras."""
    detail = matches_mismatch(reference.matches, candidate.matches)
    if detail is None:
        detail = io_mismatch(reference.io, candidate.io)
    if detail is None and reference.extras != candidate.extras:
        detail = (
            f"extras differ: reference={reference.extras} "
            f"candidate={candidate.extras}"
        )
    return detail


def same_matches(reference: Any, candidate: Any) -> str | None:
    """Compare two results' matches only (pages may legitimately differ)."""
    return matches_mismatch(reference.matches, candidate.matches)


@dataclass(frozen=True)
class Variant:
    """One operator over a base run: run it another way, then compare.

    ``compare(base, result)`` returns the first disagreement or None;
    the harness prefixes ``label`` to it.  The ``then`` variants are
    held to the same base, but only once this one has agreed with it.
    """

    label: str
    run: Callable[[], Any]
    compare: Callable[[Any, Any], str | None]
    infeasible: str = DIVERGE
    then: Sequence["Variant"] = ()


@dataclass(frozen=True)
class Case:
    """One executor's base run and the variants held to it."""

    executor: str
    base: Callable[[], Any]
    variants: Sequence[Variant]


#: what an axis yields per trial: the reproduction record and the cases
Drawn = tuple[Mapping[str, Any], Iterable[Case]]


class Axis(Protocol):
    """Draws trials; each trial's context owns its temporary state."""

    def trial(
        self, rng: random.Random, trial: int, executors: Mapping[str, ExecutorFn]
    ) -> AbstractContextManager[Drawn]:
        """Draw trial ``trial`` from ``rng`` and yield what it compares."""


def execute(
    executor: ExecutorFn, config: TrialConfig, fresh: Callable[[], JoinEnvironment]
) -> Any:
    """Run ``executor`` over a fresh environment from ``fresh()``."""
    return executor(fresh(), config)


def _attempt(run: Callable[[], Any]) -> Any:
    """``run()``, or None when it runs out of memory."""
    try:
        return run()
    except InsufficientMemoryError:
        return None


def _held(
    variants: Sequence[Variant], base: Any, outcome: DifferentialOutcome
) -> Iterator[str]:
    """Hold each variant to ``base``; yield the divergences."""
    for variant in variants:
        outcome.comparisons += 1
        result = _attempt(variant.run)
        if result is not None:
            detail = variant.compare(base, result)
        elif variant.infeasible != IGNORE:
            detail = "insufficient memory although the base run fits"
        else:
            continue
        if detail is None:
            yield from _held(variant.then, base, outcome)
        else:
            yield f"{variant.label}: {detail}"


def _details(case: Case, outcome: DifferentialOutcome) -> Iterator[str]:
    """Run one case, count it into ``outcome`` and yield its divergences."""
    base = _attempt(case.base)
    if base is not None:
        yield from _held(case.variants, base, outcome)
        return
    fits = [v for v in case.variants
            if v.infeasible == AGREE and _attempt(v.run) is not None]
    if not fits:
        outcome.skips[case.executor] = outcome.skips.get(case.executor, 0) + 1
    for variant in fits:
        outcome.comparisons += 1
        yield f"{variant.label}: insufficient memory on the base run only"


def equivalence(
    check: str,
    seed: int,
    trials: int,
    axis: Axis,
    *,
    executors: Mapping[str, ExecutorFn] | None = None,
    fail_fast: bool = False,
) -> DifferentialOutcome:
    """Sweep ``trials`` draws of ``axis``; every variant must equal its base.

    ``executors`` defaults to the real HHNL/HVNL/VVM registry; a mapping
    with a mutated entry is how the suites prove a check has teeth.  With
    ``fail_fast`` the sweep stops after the first trial that diverges.
    """
    executors = DEFAULT_EXECUTORS if executors is None else executors
    rng = random.Random(seed)
    outcome = DifferentialOutcome(seed=seed, trials_requested=trials)
    for trial in range(trials):
        with axis.trial(rng, trial, executors) as (reproduction, cases):
            outcome.trials_run += 1
            for case in cases:
                outcome.divergences.extend(
                    Divergence(check, case.executor, trial, detail, reproduction)
                    for detail in _details(case, outcome)
                )
        if fail_fast and outcome.divergences:
            break
    return outcome


def _drain(streamer: StreamerFn, config: TrialConfig) -> tuple[list, Any]:
    """Consume a stream block by block; return its blocks and summary."""
    blocks = []
    stream = streamer(config.build_environment(), config)
    while True:
        try:
            blocks.append(next(stream))
        except StopIteration as stop:
            return blocks, stop.value


def _stream_mismatch(result: Any, streamed: tuple[list, Any]) -> str | None:
    """Each outer document once, in ascending order, flattening to the
    exact materialized matches (``run_*`` *is* ``collect(iter_*)``)."""
    blocks, summary = streamed
    outer_seen = [block.outer_doc for block in blocks]
    if len(set(outer_seen)) != len(outer_seen):
        return f"an outer document was emitted twice: {outer_seen}"
    if outer_seen != sorted(outer_seen):
        return f"blocks not in ascending outer order: {outer_seen}"
    flattened = {block.outer_doc: list(block.matches) for block in blocks}
    detail = matches_mismatch(result.matches, flattened)
    if detail is None and list(flattened) != list(result.matches):
        detail = "outer-document emission order differs from materialized order"
    if detail is None and not isinstance(summary, StreamSummary):
        detail = f"the stream returned {summary!r}, not a StreamSummary"
    if detail is None:
        detail = io_mismatch(result.io, summary.io)
    if detail is None and summary.algorithm != result.algorithm:
        detail = f"algorithm differs: run={result.algorithm} iter={summary.algorithm}"
    if detail is None and summary.extras != result.extras:
        detail = f"extras differ: run={result.extras} iter={summary.extras}"
    return detail


@dataclass(frozen=True)
class StreamingAxis:
    """``list(iter_*)`` flattens to exactly the ``run_*`` result.

    Cost-scale trials (multi-page layouts, multi-pass VVM); each algorithm
    runs materialized, then block by block through the raw generator
    protocol.  ``streamers`` is the mutant injection point.
    """

    streamers: Mapping[str, StreamerFn] = field(default_factory=DEFAULT_STREAMERS.copy)

    @contextmanager
    def trial(
        self, rng: random.Random, trial: int, executors: Mapping[str, ExecutorFn]
    ) -> Iterator[Drawn]:
        """One cost-scale configuration, one case per streamer."""
        config = random_cost_trial_config(rng, trial)
        yield config.reproduction(), [
            Case(name,
                 partial(execute, executors[name], config, config.build_environment),
                 (Variant("stream", partial(_drain, streamer, config),
                          _stream_mismatch),))
            for name, streamer in self.streamers.items()
        ]


__all__ = [
    "AGREE", "Axis", "Case", "DIVERGE", "IGNORE", "StreamingAxis", "Variant",
    "equivalence", "execute", "io_mismatch", "matches_mismatch",
    "result_mismatch", "same_matches",
]
