"""In-memory spans for the traced run, and the self-time arithmetic over them.

Nothing inside the program is instrumented yet, so the harness records a
span around each call it makes into a layer's public functions.  A
span's ``parent`` is its *logical* caller on the request path
(``POST /query`` -> ``JoinService.stream`` -> ``execute`` -> ...); the
child is a separate call of the same deterministic warm work, made
right after the parent returned, so parent and child intervals do not
overlap in wall-clock time.  The one exception is an operator's phase
spans, which come from ``ExecutionHooks`` inside a single real run and
do nest in time.

Self time is therefore taken over durations: a span's duration minus
the sum of its children's, floored at zero.  The floor only bites when
noise makes separately measured children outweigh their parent; how
often it did is reported next to the table.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Any, Callable

from common import median


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    layer: str
    workload: str
    #: the replay this span belongs to; spans of one operation share it
    op: int
    start_ns: int
    end_ns: int
    counts: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Collects spans in memory; written out once, when the run ends."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[Span] = []

    def add(
        self,
        name: str,
        layer: str,
        op: int,
        parent: int | None,
        start_ns: int,
        end_ns: int,
        **counts: Any,
    ) -> int:
        span = Span(
            len(self.spans), parent, name, layer, self.workload, op, start_ns, end_ns, counts
        )
        self.spans.append(span)
        return span.id

    def call(
        self,
        name: str,
        layer: str,
        op: int,
        parent: int | None,
        function: Callable[[], Any],
        **counts: Any,
    ) -> tuple[int, Any]:
        """Run ``function`` inside a new span; returns (span id, its result)."""
        start = time.perf_counter_ns()
        result = function()
        end = time.perf_counter_ns()
        return self.add(name, layer, op, parent, start, end, **counts), result

    def to_json(self) -> list[dict[str, Any]]:
        return [asdict(span) for span in self.spans]


def self_times_ns(spans: list[Span]) -> tuple[dict[int, int], int]:
    """Self time per span id, and how many spans hit the zero floor."""
    children: dict[int, int] = defaultdict(int)
    for span in spans:
        if span.parent is not None:
            children[span.parent] += span.duration_ns
    floored = 0
    out = {}
    for span in spans:
        own = span.duration_ns - children[span.id]
        if own < 0:
            floored += 1
            own = 0
        out[span.id] = own
    return out, floored


def self_time_table(spans: list[Span]) -> dict[str, Any]:
    """Median self time per layer and per span name over the replays, in ms."""
    own, floored = self_times_ns(spans)
    by_layer: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    by_name: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    roots: dict[int, int] = defaultdict(int)
    for span in spans:
        by_layer[span.op][span.layer] += own[span.id]
        by_name[span.op][span.name] += own[span.id]
        if span.parent is None:
            roots[span.op] += span.duration_ns
    ops = sorted(by_layer)

    def medians(table: dict[int, dict[str, int]]) -> dict[str, float]:
        keys = sorted({key for row in table.values() for key in row})
        return {key: median([table[op].get(key, 0) for op in ops]) / 1e6 for key in keys}

    return {
        "replays": len(ops),
        "root_ms": median([roots[op] for op in ops]) / 1e6 if ops else 0.0,
        "self_ms_by_layer": medians(by_layer),
        "self_ms_by_span": medians(by_name),
        "floored_spans": floored,
    }
