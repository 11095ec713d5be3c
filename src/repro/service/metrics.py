"""Service-level metrics: query counters, latency percentiles, I/O totals.

One :class:`ServiceMetrics` instance lives for the whole service
process and is written to by every request thread, so all mutation goes
through one lock.  Latencies are kept in a bounded sample window
(:class:`LatencyHistogram`) — the percentiles reported by
``GET /metrics`` are exact over the most recent
:data:`DEFAULT_SAMPLE_LIMIT` queries rather than approximate over all
of them, which keeps a long-lived server's memory flat.  Per-phase
:class:`~repro.storage.iostats.IOStats` deltas are folded key-wise into
running totals, the same additive merge the execution layer uses.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Mapping

from repro.errors import InvalidParameterError
from repro.storage.iostats import IOStats

#: how many recent latency samples the percentile window retains
DEFAULT_SAMPLE_LIMIT = 10_000

#: the percentiles ``GET /metrics`` reports, in order
REPORTED_PERCENTILES = (50, 95, 99)

#: the ``/mutate`` summary fields ``GET /metrics`` totals over all mutations
MUTATION_TOTALS = (
    "segments_reused",
    "segments_loaded",
    "apply_seconds",
    "swap_seconds",
)


class LatencyHistogram:
    """A bounded window of latency samples with exact percentiles.

    ``record`` keeps the most recent ``sample_limit`` values; ``count``
    and ``total_seconds`` keep running over *all* samples ever recorded
    so throughput numbers stay exact even after the window rolls.
    """

    def __init__(self, sample_limit: int = DEFAULT_SAMPLE_LIMIT) -> None:
        if sample_limit <= 0:
            raise InvalidParameterError(
                f"sample_limit must be positive, got {sample_limit}"
            )
        self._samples: deque[float] = deque(maxlen=sample_limit)
        self.count = 0
        self.total_seconds = 0.0
        self.max_seconds = 0.0

    def record(self, seconds: float) -> None:
        """Add one latency observation (seconds; negatives are invalid)."""
        if seconds < 0:
            raise InvalidParameterError(f"latency cannot be negative: {seconds}")
        self._samples.append(seconds)
        self.count += 1
        self.total_seconds += seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds

    def percentile(self, q: float) -> float | None:
        """Nearest-rank percentile over the sample window (None when empty)."""
        if not 0 < q <= 100:
            raise InvalidParameterError(f"percentile must be in (0, 100], got {q}")
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats
        return ordered[int(rank) - 1]

    def snapshot(self) -> dict[str, Any]:
        """Counters plus the reported percentiles, JSON-ready."""
        mean = self.total_seconds / self.count if self.count else None
        return {
            "count": self.count,
            "mean_seconds": mean,
            "max_seconds": self.max_seconds if self.count else None,
            "window": len(self._samples),
            **{
                f"p{q}_seconds": self.percentile(q)
                for q in REPORTED_PERCENTILES
            },
        }


def phase_stats_payload(phase_stats: Mapping[str, IOStats]) -> dict[str, Any]:
    """Serialise a per-phase IOStats mapping to plain JSON-able dicts."""
    return {
        name: {
            "sequential_reads": stats.sequential_reads,
            "random_reads": stats.random_reads,
        }
        for name, stats in sorted(phase_stats.items())
    }


class ServiceMetrics:
    """Thread-safe aggregate of everything the service has served.

    ``record_query`` folds one finished (or failed) request in:
    terminal status, wall-clock latency, pages read and the request
    context's per-phase I/O deltas.  ``record_rejection`` counts
    requests that never reached execution (saturation, malformed
    bodies).  ``snapshot`` renders the whole state as a JSON-ready
    dictionary — the body of ``GET /metrics``.
    """

    def __init__(self, sample_limit: int = DEFAULT_SAMPLE_LIMIT) -> None:
        self._lock = threading.Lock()
        self._latency = LatencyHistogram(sample_limit)
        self._by_status: dict[str, int] = {}
        self._rejections: dict[str, int] = {}
        self._phase_totals: dict[str, IOStats] = {}
        self.queries_served = 0
        self.queries_failed = 0
        self.rows_returned = 0
        self.blocks_streamed = 0
        self.pages_read = 0
        self._mutations = dict.fromkeys(MUTATION_TOTALS, 0)

    def record_mutation(self, summary: Mapping[str, Any]) -> None:
        """Add one committed mutation's reuse counts and phase seconds."""
        with self._lock:
            for key in MUTATION_TOTALS:
                self._mutations[key] += summary[key]

    def record_query(
        self,
        *,
        status: str,
        seconds: float,
        rows: int = 0,
        blocks: int = 0,
        pages: int = 0,
        phase_stats: Mapping[str, IOStats] | None = None,
    ) -> None:
        """Fold one executed request into the aggregates."""
        with self._lock:
            self._latency.record(seconds)
            self._by_status[status] = self._by_status.get(status, 0) + 1
            if status == "ok":
                self.queries_served += 1
            else:
                self.queries_failed += 1
            self.rows_returned += rows
            self.blocks_streamed += blocks
            self.pages_read += pages
            for name, delta in (phase_stats or {}).items():
                bucket = self._phase_totals.setdefault(name, IOStats())
                bucket.merge(delta)

    def record_rejection(self, code: str) -> None:
        """Count one request rejected before execution (e.g. saturation)."""
        with self._lock:
            self._rejections[code] = self._rejections.get(code, 0) + 1

    def snapshot(self) -> dict[str, Any]:
        """The whole metric state as one JSON-ready dictionary."""
        with self._lock:
            return {
                "queries_served": self.queries_served,
                "queries_failed": self.queries_failed,
                "rows_returned": self.rows_returned,
                "blocks_streamed": self.blocks_streamed,
                "pages_read": self.pages_read,
                "by_status": dict(sorted(self._by_status.items())),
                "rejections": dict(sorted(self._rejections.items())),
                "latency": self._latency.snapshot(),
                "mutations": dict(self._mutations),
                "phase_io": phase_stats_payload(self._phase_totals),
            }


__all__ = [
    "DEFAULT_SAMPLE_LIMIT",
    "LatencyHistogram",
    "REPORTED_PERCENTILES",
    "ServiceMetrics",
    "phase_stats_payload",
]
