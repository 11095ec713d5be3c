"""I/O tracing: record the exact access pattern of a run.

The :class:`~repro.storage.iostats.IOStats` counters say *how much* was
read; a trace says *in what order*.  Attach a :class:`IOTrace` to a
disk's stats and every ``record`` call is logged as a
:class:`TraceEvent`, which the analysis helpers can then classify —
is the stream sequential?  how many distinct scan passes?  which extents
interleave?  The VVM merge, for example, must show two interleaved
ascending streams; the ablation and debugging tests assert exactly that.

Tracing is opt-in and zero-cost when absent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

from repro.storage.iostats import IOStats


@dataclass(frozen=True)
class TraceEvent:
    """One ``record`` call: where, how much, what kind."""

    sequence: int
    extent: str
    sequential: int
    random: int

    @property
    def pages(self) -> int:
        return self.sequential + self.random


class IOTrace:
    """An ordered log of I/O events plus analysis helpers."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def record(self, extent: str, sequential: int, random: int) -> None:
        """Append one I/O event."""
        self.events.append(
            TraceEvent(
                sequence=len(self.events),
                extent=extent,
                sequential=sequential,
                random=random,
            )
        )

    # --- analysis ---------------------------------------------------------

    def extents_touched(self) -> list[str]:
        """Extent names in first-touch order."""
        seen: dict[str, None] = {}
        for event in self.events:
            seen.setdefault(event.extent, None)
        return list(seen)

    def events_for(self, extent: str) -> list[TraceEvent]:
        """All events touching one extent, in order."""
        return [event for event in self.events if event.extent == extent]

    def pages_read(self, extent: str | None = None) -> int:
        """Total pages transferred (optionally for one extent)."""
        events = self.events if extent is None else self.events_for(extent)
        return sum(event.pages for event in events)

    def random_fraction(self) -> float:
        """Fraction of pages read via random I/O."""
        total = self.pages_read()
        if total == 0:
            return 0.0
        return sum(event.random for event in self.events) / total

    def interleaving_switches(self, extent_a: str, extent_b: str) -> int:
        """How often the access stream alternates between two extents.

        A merge scan of two files shows many switches; a nested loop
        shows few (one per pass).
        """
        switches = 0
        previous: str | None = None
        for event in self.events:
            if event.extent not in (extent_a, extent_b):
                continue
            if previous is not None and event.extent != previous:
                switches += 1
            previous = event.extent
        return switches

    def scan_passes(self, extent: str, extent_pages: int) -> float:
        """Approximate number of full passes over an extent."""
        if extent_pages <= 0:
            return 0.0
        return self.pages_read(extent) / extent_pages

    def clear(self) -> None:
        """Drop all recorded events."""
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)


@dataclass
class TracingIOStats(IOStats):  # repro: ignore[RA-FROZEN] -- mutable like its IOStats base
    """An :class:`IOStats` that also feeds an :class:`IOTrace`.

    Swap it into a disk (``disk.stats = TracingIOStats()``) before a run
    to capture the full access pattern alongside the usual counters.
    """

    trace: IOTrace = field(default_factory=IOTrace)
    #: no run fits under it, so ``record_run`` replays every event
    page_ceiling: float = field(default=-math.inf, repr=False, compare=False)

    def record(self, extent_name: str, *, sequential: int = 0, random: int = 0) -> None:
        """Count the reads and append the trace event."""
        super().record(extent_name, sequential=sequential, random=random)
        self.trace.record(extent_name, sequential, random)

    def reset(self) -> None:
        """Zero the counters *and* drop the recorded events.

        Without the override a ``JoinEnvironment.reset_io()`` between runs
        would zero the counters but leak the previous run's trace events
        into the next run's access-pattern analysis.
        """
        super().reset()
        self.trace.clear()

    def snapshot(self) -> "TracingIOStats":
        """An independent copy that keeps the trace (and its type).

        The base implementation returns a plain :class:`IOStats`, which
        silently drops the access pattern from before/after comparisons.
        The copied trace shares no state with the live one.
        """
        copy = TracingIOStats(
            sequential_reads=self.sequential_reads,
            random_reads=self.random_reads,
            by_extent=dict(self.by_extent),
        )
        copy.trace.events.extend(self.trace.events)
        return copy
