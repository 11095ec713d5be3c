"""Metamorphic invariants: relations between runs that must always hold.

Differential testing (:mod:`repro.conformance.differential`) checks each
executor against an oracle on *one* input; metamorphic testing checks
relations between executor runs on *related* inputs, which catches bugs
a single ground-truth comparison cannot (and would survive an oracle
that shared the same mistake).  The catalogue:

``lambda-monotonicity``
    ``SIMILAR_TO(lam)`` must be rank-for-rank the first ``lam`` entries
    of ``SIMILAR_TO(2*lam)``: the total order (similarity desc, inner id
    asc) is fixed, so top-``k`` lists are prefix-nested.

``buffer-monotonicity``
    Doubling the buffer must never increase the measured weighted I/O
    cost — more memory means fewer scans/passes/evictions, never more.

``term-permutation``
    Renumbering the vocabulary by a random permutation (both collections
    consistently) must leave the match set bit-identical: similarity is
    a sum over *matching* terms, whatever their numbers.

``document-duplication``
    Duplicating every inner document and doubling ``lambda`` must yield,
    per outer document, each original similarity exactly twice (compared
    as multisets — tie *ranks* may legally shuffle across equal scores).

``normalized-consistency``
    With ``lambda`` large enough to keep every positive match, the raw
    and cosine runs must match the same document *set*, and each cosine
    similarity must equal the raw one divided by the two norms.

Every violation is reported as a
:class:`~repro.conformance.differential.Divergence` with the trial's
full reproduction parameters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator, Mapping

from repro.conformance.differential import Divergence
from repro.conformance.trials import (
    DEFAULT_EXECUTORS, ExecutorFn, TrialConfig, random_trial_config,
)
from repro.core.join import JoinEnvironment
from repro.errors import InsufficientMemoryError
from repro.storage.pages import PageGeometry
from repro.text.collection import DocumentCollection
from repro.text.document import Document

#: (invariant name, executor name) -> human-readable failure, or None
InvariantFn = Callable[
    [TrialConfig, Mapping[str, ExecutorFn], float], list[tuple[str, str]]
]


def _environment(
    config: TrialConfig,
    collection1: DocumentCollection,
    collection2: DocumentCollection,
) -> JoinEnvironment:
    return JoinEnvironment(
        collection1, collection2, PageGeometry(config.page_bytes)
    )


def _pairs(
    executors: Mapping[str, ExecutorFn],
    first: tuple[JoinEnvironment, TrialConfig],
    second: tuple[JoinEnvironment, TrialConfig],
) -> Iterator[tuple[str, Any, Any]]:
    """Each executor's ``first`` and ``second`` runs; an executor that
    runs out of memory on either proves nothing and is passed over."""
    for name, executor in executors.items():
        try:
            runs = executor(*first), executor(*second)
        except InsufficientMemoryError:
            continue
        yield name, *runs


def check_lambda_monotonicity(
    config: TrialConfig, executors: Mapping[str, ExecutorFn], tolerance: float
) -> list[tuple[str, str]]:
    """Top-``lam`` must be a rank-exact prefix of top-``2*lam``."""
    failures: list[tuple[str, str]] = []
    environment = config.build_environment()
    wide = replace(config, lam=config.lam * 2)
    for name, narrow_run, wide_run in _pairs(
        executors, (environment, config), (environment, wide)
    ):
        for outer_id, narrow_hits in narrow_run.matches.items():
            prefix = wide_run.matches.get(outer_id, [])[: config.lam]
            if len(narrow_hits) != len(prefix) or any(
                d_n != d_w or abs(s_n - s_w) > tolerance
                for (d_n, s_n), (d_w, s_w) in zip(narrow_hits, prefix)
            ):
                failures.append((name, f"outer doc {outer_id}: top-{config.lam} is "
                                 f"not a prefix of top-{wide.lam}: {narrow_hits} "
                                 f"vs {prefix}"))
                break
    return failures


def check_buffer_monotonicity(
    config: TrialConfig, executors: Mapping[str, ExecutorFn], tolerance: float
) -> list[tuple[str, str]]:
    """Doubling ``B`` must not increase the measured weighted cost."""
    failures: list[tuple[str, str]] = []
    environment = config.build_environment()
    bigger = replace(config, buffer_pages=config.buffer_pages * 2)
    for name, small_run, big_run in _pairs(
        executors, (environment, config), (environment, bigger)
    ):
        cost_small = small_run.weighted_cost(config.alpha)
        cost_big = big_run.weighted_cost(config.alpha)
        if cost_big > cost_small * (1.0 + tolerance) + tolerance:
            failures.append((name, f"weighted cost rose from {cost_small:.1f} at "
                             f"B={config.buffer_pages} to {cost_big:.1f} at "
                             f"B={bigger.buffer_pages}"))
    return failures


def _permute_collection(
    collection: DocumentCollection, permutation: list[int], name: str
) -> DocumentCollection:
    documents = [
        Document.from_counts(
            doc.doc_id, {permutation[term]: weight for term, weight in doc.cells}
        )
        for doc in collection
    ]
    return DocumentCollection(name, documents)


def check_term_permutation(
    config: TrialConfig, executors: Mapping[str, ExecutorFn], tolerance: float
) -> list[tuple[str, str]]:
    """A consistent vocabulary renumbering must not change any match."""
    failures: list[tuple[str, str]] = []
    c1, c2 = config.build_collections()
    highest_term = max(
        (term for doc in list(c1) + list(c2) for term, _ in doc.cells),
        default=-1,
    )
    permutation = list(range(highest_term + 1))
    random.Random(config.spec1.seed ^ 0x5EED).shuffle(permutation)
    p1 = _permute_collection(c1, permutation, f"{c1.name}-perm")
    p2 = p1 if config.self_join else _permute_collection(
        c2, permutation, f"{c2.name}-perm"
    )
    for name, original, permuted in _pairs(
        executors, (_environment(config, c1, c2), config),
        (_environment(config, p1, p2), config),
    ):
        if not original.same_matches_as(permuted, tolerance=tolerance):
            failures.append((name, "match set changed under a term-id permutation"))
    return failures


def check_document_duplication(
    config: TrialConfig, executors: Mapping[str, ExecutorFn], tolerance: float
) -> list[tuple[str, str]]:
    """Duplicated inner documents double every similarity's multiplicity.

    Selections are dropped for this invariant (id lists would have to be
    re-derived for the duplicated collection, which would test the
    harness rather than the executors).
    """
    base = replace(config, outer_selection=None, inner_selection=None)
    failures: list[tuple[str, str]] = []
    c1, c2 = base.build_collections()
    n1 = c1.n_documents
    duplicated = DocumentCollection(
        f"{c1.name}-dup",
        list(c1.documents)
        + [Document(n1 + doc.doc_id, doc.cells) for doc in c1.documents],
    )
    doubled = replace(base, lam=base.lam * 2)

    for name, original, doubled_run in _pairs(
        executors, (_environment(base, c1, c2), base),
        (_environment(base, duplicated, c2), doubled),
    ):
        for outer_id, hits in original.matches.items():
            expected = sorted(
                similarity for _, similarity in hits for _ in range(2)
            )
            got = sorted(
                similarity
                for _, similarity in doubled_run.matches.get(outer_id, [])
            )
            if len(expected) != len(got) or any(
                abs(a - b) > tolerance for a, b in zip(expected, got)
            ):
                failures.append((name, f"outer doc {outer_id}: duplicated-inner "
                                 f"similarity multiset {got} != doubled original "
                                 f"{expected}"))
                break
    return failures


def check_normalized_consistency(
    config: TrialConfig, executors: Mapping[str, ExecutorFn], tolerance: float
) -> list[tuple[str, str]]:
    """Cosine = raw / (norm1 * norm2), and the match *set* is unchanged.

    Run with ``lambda >= N1`` so no candidate is cut: normalisation
    reorders positive similarities but never creates or destroys one.
    """
    failures: list[tuple[str, str]] = []
    environment = config.build_environment()
    n1 = environment.collection1.n_documents
    raw_config = replace(config, lam=n1, normalized=False)
    cosine_config = replace(config, lam=n1, normalized=True)
    norms1 = environment.norms1()
    norms2 = environment.norms2()
    for name, raw_run, cosine_run in _pairs(
        executors, (environment, raw_config), (environment, cosine_config)
    ):
        for outer_id, raw_hits in raw_run.matches.items():
            raw_by_doc = dict(raw_hits)
            cosine_by_doc = dict(cosine_run.matches.get(outer_id, []))
            if set(raw_by_doc) != set(cosine_by_doc):
                failures.append((name, f"outer doc {outer_id}: normalisation changed "
                                 f"the matched set: {sorted(raw_by_doc)} vs "
                                 f"{sorted(cosine_by_doc)}"))
                break
            bad = next(
                (
                    inner_id
                    for inner_id, raw_sim in raw_by_doc.items()
                    if abs(
                        cosine_by_doc[inner_id]
                        - raw_sim / (norms1[inner_id] * norms2[outer_id])
                    )
                    > tolerance
                ),
                None,
            )
            if bad is not None:
                failures.append((name, f"outer doc {outer_id}, inner doc {bad}: "
                                 "cosine similarity is not raw / (norm1 * norm2)"))
                break
    return failures


#: the catalogue, in documentation order
INVARIANTS: Mapping[str, InvariantFn] = {
    "lambda-monotonicity": check_lambda_monotonicity,
    "buffer-monotonicity": check_buffer_monotonicity,
    "term-permutation": check_term_permutation,
    "document-duplication": check_document_duplication,
    "normalized-consistency": check_normalized_consistency,
}


@dataclass
class MetamorphicOutcome:
    """Aggregated result of one metamorphic sweep."""

    seed: int
    trials_requested: int
    trials_run: int = 0
    checks_run: dict[str, int] = field(default_factory=dict)
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True when every invariant held on every trial."""
        return not self.divergences

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable summary for the conformance report."""
        return {
            "seed": self.seed,
            "trials_requested": self.trials_requested,
            "trials_run": self.trials_run,
            "checks_run": dict(self.checks_run),
            "passed": self.passed,
            "divergences": [d.to_dict() for d in self.divergences],
        }


def run_metamorphic(
    seed: int,
    trials: int,
    *,
    executors: Mapping[str, ExecutorFn] | None = None,
    invariants: Mapping[str, InvariantFn] | None = None,
    tolerance: float = 1e-9,
) -> MetamorphicOutcome:
    """Check every invariant of the catalogue on ``trials`` random workloads.

    Uses a different stream than the differential sweep for the same
    seed (the trial configurations are drawn identically — divergences
    reproduce from the same parameters — but invariants derive their own
    modified runs from each)."""
    executors = DEFAULT_EXECUTORS if executors is None else executors
    invariants = INVARIANTS if invariants is None else invariants
    rng = random.Random(seed)
    outcome = MetamorphicOutcome(seed=seed, trials_requested=trials)

    for trial in range(trials):
        config = random_trial_config(rng, trial)
        outcome.trials_run += 1
        for invariant_name, invariant in invariants.items():
            outcome.checks_run[invariant_name] = (
                outcome.checks_run.get(invariant_name, 0) + 1
            )
            for executor_name, detail in invariant(config, executors, tolerance):
                outcome.divergences.append(Divergence(
                    f"metamorphic:{invariant_name}", executor_name, trial, detail,
                    config.reproduction(),
                ))
    return outcome


__all__ = [
    "INVARIANTS", "InvariantFn", "MetamorphicOutcome", "check_buffer_monotonicity",
    "check_document_duplication", "check_lambda_monotonicity",
    "check_normalized_consistency", "check_term_permutation", "run_metamorphic",
]
