"""Parameter dataclasses shared by every cost formula.

Three groups, mirroring the paper's integrated-algorithm inputs
(Section 6): collection statistics (carried by
:class:`~repro.index.stats.CollectionStats` inside a :class:`JoinSide`),
system parameters ``B``, ``P``, ``alpha`` (:class:`SystemParams`) and
query parameters ``lambda``, ``delta`` plus selection effects
(:class:`QueryParams` / :class:`JoinSide.participating`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.constants import (
    DEFAULT_ALPHA,
    DEFAULT_BUFFER_PAGES,
    DEFAULT_DELTA,
    DEFAULT_LAMBDA,
    DEFAULT_PAGE_BYTES,
)
from repro.errors import CostModelError
from repro.index.stats import CollectionStats


@dataclass(frozen=True)
class SystemParams:
    """``B`` (buffer pages), ``P`` (page bytes) and ``alpha``."""

    buffer_pages: int = DEFAULT_BUFFER_PAGES
    page_bytes: int = DEFAULT_PAGE_BYTES
    alpha: float = DEFAULT_ALPHA

    def __post_init__(self) -> None:
        if self.buffer_pages <= 0:
            raise CostModelError(f"B must be positive, got {self.buffer_pages}")
        if self.page_bytes <= 0:
            raise CostModelError(f"P must be positive, got {self.page_bytes}")
        if self.alpha < 1:
            raise CostModelError(f"alpha must be >= 1, got {self.alpha}")

    def with_buffer(self, buffer_pages: int) -> "SystemParams":
        """A copy with a different buffer size (for B sweeps)."""
        return replace(self, buffer_pages=buffer_pages)

    def with_alpha(self, alpha: float) -> "SystemParams":
        """A copy with a different cost ratio (for alpha sweeps)."""
        return replace(self, alpha=alpha)


@dataclass(frozen=True)
class QueryParams:
    """``lambda`` of SIMILAR_TO(lambda) and ``delta``, the non-zero fraction."""

    lam: int = DEFAULT_LAMBDA
    delta: float = DEFAULT_DELTA

    def __post_init__(self) -> None:
        if self.lam <= 0:
            raise CostModelError(f"lambda must be positive, got {self.lam}")
        if not 0.0 <= self.delta <= 1.0:
            raise CostModelError(f"delta must be in [0, 1], got {self.delta}")


@dataclass(frozen=True)
class JoinSide:
    """One collection's role in the join, including selection effects.

    ``participating`` is the number of documents that survive selections
    on the non-textual attributes of the same relation (Section 2's
    ``P.Title LIKE '%Engineer%'`` example); ``None`` means every
    document participates.

    A *selected* side keeps the statistics of the original collection —
    the inverted file and B+-tree do not shrink (Section 5.4), and the
    surviving documents are scattered so they must be fetched with random
    I/O (Group 3).  Contrast with an *originally small* collection
    (Group 4), which is simply a ``JoinSide`` over small stats with
    ``participating=None``.
    """

    stats: CollectionStats
    participating: int | None = None

    def __post_init__(self) -> None:
        if self.participating is not None:
            if self.participating < 0:
                raise CostModelError(
                    f"participating must be non-negative, got {self.participating}"
                )
            if self.participating > self.stats.n_documents:
                raise CostModelError(
                    f"participating ({self.participating}) exceeds collection size "
                    f"({self.stats.n_documents})"
                )

    @property
    def is_selected(self) -> bool:
        """True when a selection reduced the participating documents."""
        return (
            self.participating is not None
            and self.participating < self.stats.n_documents
        )

    @property
    def n_participating(self) -> int:
        """Documents actually joined (``N`` when unselected)."""
        if self.participating is None:
            return self.stats.n_documents
        return self.participating

    def random_fetch_cost(self, alpha: float) -> float:
        """Weighted cost of fetching every participating document at random:
        ``ceil(S) * alpha`` each, the paper's random-read approximation."""
        per_doc = math.ceil(self.stats.S) if self.stats.S > 0 else 0
        return self.n_participating * per_doc * alpha

    def fetch_at_random(self, alpha: float) -> bool:
        """The read policy for this side, shared by model and operators.

        True when a selection left few enough survivors that fetching
        them at random from their scattered locations beats scanning the
        whole collection and filtering; an unselected side always scans.
        """
        return self.is_selected and self.random_fetch_cost(alpha) < self.stats.D

    def document_read_cost(self, alpha: float) -> float:
        """Weighted cost of bringing every participating document in once:
        the random fetches when :meth:`fetch_at_random` says so, else one
        sequential scan of ``D`` pages."""
        if self.fetch_at_random(alpha):
            return self.random_fetch_cost(alpha)
        return self.stats.D

    def selected(self, participating: int) -> "JoinSide":
        """A copy with a selection leaving ``participating`` documents."""
        return replace(self, participating=participating)
