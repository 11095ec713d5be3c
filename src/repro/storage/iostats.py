"""Sequential/random I/O accounting.

The single performance metric of the paper is

    cost = sequential_page_reads + alpha * random_page_reads

(Section 3: a random read pays the extra seek and rotation delay, modelled
as the cost ratio ``alpha``).  :class:`IOStats` is the one mutable counter
threaded through the simulated disk and the join executors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import InvalidParameterError

#: observer signature: ``(extent_name, sequential, random)`` per record call
IOObserver = Callable[[str, int, int], None]


@dataclass
class IOStats:  # repro: ignore[RA-FROZEN] -- the one mutable I/O counter, by design
    """Mutable counter of page reads, split by access pattern.

    The counter does not know ``alpha`` itself; :meth:`weighted_cost`
    takes it as an argument so one measured run can be re-priced under
    several cost ratios (used by the alpha-sweep experiments).

    Observers subscribed via :meth:`subscribe` see every ``record`` call
    *after* the counters are updated; an
    :class:`~repro.exec.context.ExecutionContext` uses this to enforce
    page budgets at the exact read that crosses the line.  Observers are
    live-run state: :meth:`snapshot` and :meth:`delta` copies never carry
    them.
    """

    sequential_reads: int = 0
    random_reads: int = 0
    #: per-extent breakdown, ``{extent_name: (sequential, random)}``
    by_extent: dict[str, tuple[int, int]] = field(default_factory=dict)
    _observers: list[IOObserver] = field(
        default_factory=list, repr=False, compare=False
    )
    #: total reads past which the execution guard watching this counter
    #: raises; the guard publishes it and restores it on detach
    page_ceiling: float = field(default=math.inf, repr=False, compare=False)

    def record(self, extent_name: str, *, sequential: int = 0, random: int = 0) -> None:
        """Add page reads attributed to one extent."""
        if sequential < 0 or random < 0:
            raise InvalidParameterError("I/O counts cannot be negative")
        self.sequential_reads += sequential
        self.random_reads += random
        seq0, rnd0 = self.by_extent.get(extent_name, (0, 0))
        self.by_extent[extent_name] = (seq0 + sequential, rnd0 + random)
        for observer in self._observers:
            observer(extent_name, sequential, random)

    def record_run(self, run: Sequence[tuple[str, int, int]]) -> None:
        """One :meth:`record` per ``(extent, sequential, random)``, in order;
        folded into one per extent, in first-touch order (observers see the
        sums), when every count is non-negative and the run stays within
        :attr:`page_ceiling`, so a budget still raises at the exact element."""
        totals: dict[str, tuple[int, int]] = {}
        pages = self.sequential_reads + self.random_reads
        for name, sequential, random in run:
            if sequential < 0 or random < 0:
                break
            seq0, rnd0 = totals.get(name, (0, 0))
            totals[name] = (seq0 + sequential, rnd0 + random)
            pages += sequential + random
        else:
            if pages <= self.page_ceiling:
                run = [(name, seq, rnd) for name, (seq, rnd) in totals.items()]
        for name, sequential, random in run:
            self.record(name, sequential=sequential, random=random)

    def subscribe(self, observer: IOObserver) -> None:
        """Register an observer called after every :meth:`record`."""
        self._observers.append(observer)

    def unsubscribe(self, observer: IOObserver) -> None:
        """Remove a previously subscribed observer (no-op if absent)."""
        try:
            self._observers.remove(observer)
        except ValueError:
            pass

    def merge(self, other: "IOStats") -> "IOStats":
        """Fold ``other``'s counters into this one in place; returns self.

        Extent breakdowns are added key-wise, so merging the
        :meth:`scoped` slices of a partition of the extent namespace
        reconstructs the original counter exactly (the additivity
        property the conformance suite pins).
        """
        self.sequential_reads += other.sequential_reads
        self.random_reads += other.random_reads
        for name, (seq, rnd) in other.by_extent.items():
            seq0, rnd0 = self.by_extent.get(name, (0, 0))
            self.by_extent[name] = (seq0 + seq, rnd0 + rnd)
        return self

    def scoped(self, extent_prefix: str) -> "IOStats":
        """Reads charged to extents whose name starts with ``extent_prefix``.

        Returns an independent :class:`IOStats` holding only the matching
        slice of :attr:`by_extent`, with the totals recomputed from that
        slice.  Scoping by the prefixes of a disjoint partition (e.g.
        ``"c1."`` / ``"c2."``) yields slices whose :meth:`merge` union is
        the whole counter.
        """
        by_extent = {
            name: counts
            for name, counts in self.by_extent.items()
            if name.startswith(extent_prefix)
        }
        return IOStats(
            sequential_reads=sum(seq for seq, _ in by_extent.values()),
            random_reads=sum(rnd for _, rnd in by_extent.values()),
            by_extent=by_extent,
        )

    @property
    def total_reads(self) -> int:
        """Total pages transferred, ignoring access pattern."""
        return self.sequential_reads + self.random_reads

    def weighted_cost(self, alpha: float) -> float:
        """The paper's I/O cost: sequential reads + ``alpha`` * random reads."""
        if alpha < 1:
            raise InvalidParameterError(f"alpha must be >= 1, got {alpha}")
        return self.sequential_reads + alpha * self.random_reads

    def snapshot(self) -> "IOStats":
        """An independent copy, for before/after deltas."""
        return IOStats(
            sequential_reads=self.sequential_reads,
            random_reads=self.random_reads,
            by_extent=dict(self.by_extent),
        )

    def delta(self, earlier: "IOStats") -> "IOStats":
        """Reads accumulated since ``earlier`` (a prior :meth:`snapshot`)."""
        by_extent: dict[str, tuple[int, int]] = {}
        for name, (seq, rnd) in self.by_extent.items():
            seq0, rnd0 = earlier.by_extent.get(name, (0, 0))
            if seq != seq0 or rnd != rnd0:
                by_extent[name] = (seq - seq0, rnd - rnd0)
        return IOStats(
            sequential_reads=self.sequential_reads - earlier.sequential_reads,
            random_reads=self.random_reads - earlier.random_reads,
            by_extent=by_extent,
        )

    def reset(self) -> None:
        """Zero every counter."""
        self.sequential_reads = 0
        self.random_reads = 0
        self.by_extent.clear()

    def __str__(self) -> str:
        return (
            f"IOStats(seq={self.sequential_reads}, rand={self.random_reads}, "
            f"total={self.total_reads})"
        )
