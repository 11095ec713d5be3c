"""``IOStats.record_run`` leaves exactly what its ``record`` calls leave.

A run folds into one ``record`` per extent only when it fits in the
headroom the execution guard publishes (no guard: no headroom limit);
otherwise — and always for a :class:`~repro.storage.trace.TracingIOStats`
— it replays element by element.  Either way, for any charge vector (zeros included), page
budget and counter type, the counters, the per-extent breakdown (and
its key order), the context's pages used, partial stats and phase
buckets, the trace events and the element that raises must equal what
the same ``record`` calls leave.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import BudgetExceededError, InvalidParameterError
from repro.exec import ExecutionBudget, ExecutionContext
from repro.storage.iostats import IOStats
from repro.storage.trace import TracingIOStats

charges = st.lists(
    st.tuples(
        st.sampled_from(["c1.inv", "c2.inv", "c2.docs"]),
        st.integers(0, 6),
        st.integers(0, 3),
    ),
    max_size=30,
)


def as_run(stats, run):
    stats.record_run(run)


def replay(stats, run):
    for name, sequential, random in run:
        stats.record(name, sequential=sequential, random=random)


def observe(stats_type, prefix, run, budget, charge):
    """Everything a guarded phase leaves behind after ``charge(stats, run)``."""
    stats = stats_type()
    context = ExecutionContext(budget=ExecutionBudget(pages=budget))
    raised = None
    with context.guard(stats):
        with context.phase("before"):
            stats.record("c2.docs", sequential=prefix)
        try:
            with context.phase("run"):
                charge(stats, run)
        except BudgetExceededError as error:
            raised = (error.pages_used, error.stats, list(error.stats.by_extent.items()))
        partial = context.partial_stats()
    trace = list(stats.trace.events) if stats_type is TracingIOStats else None
    return (
        (stats.sequential_reads, stats.random_reads),
        list(stats.by_extent.items()),
        context.pages_used,
        partial,
        dict(context.phase_stats),
        raised,
        trace,
        stats.page_ceiling,
    )


@given(
    run=charges,
    prefix=st.integers(0, 10),
    headroom=st.one_of(st.none(), st.integers(1, 60)),
    stats_type=st.sampled_from([IOStats, TracingIOStats]),
)
def test_a_run_equals_its_records(run, prefix, headroom, stats_type):
    budget = None if headroom is None else prefix + headroom
    assert observe(stats_type, prefix, run, budget, as_run) == observe(
        stats_type, prefix, run, budget, replay
    )


@given(run=charges)
def test_an_unguarded_run_folds_per_extent(run):
    folded, replayed = IOStats(), IOStats()
    calls = []
    folded.subscribe(lambda *call: calls.append(call))
    folded.record_run(run)
    replay(replayed, run)
    assert folded == replayed
    assert list(folded.by_extent.items()) == list(replayed.by_extent.items())
    # without a guard nothing can raise: observers see one sum per extent
    assert calls == [(name, seq, rnd) for name, (seq, rnd) in folded.by_extent.items()]


def test_a_run_inside_the_headroom_folds_per_extent():
    run = [("a", 1, 0), ("b", 0, 2), ("a", 3, 1)]
    calls = []
    stats = IOStats()
    stats.subscribe(lambda *call: calls.append(call))
    stats.record_run(run)
    assert calls == [("a", 4, 1), ("b", 0, 2)]
    tracing = TracingIOStats()
    tracing.record_run(run)  # a tracing counter always replays
    assert [(e.extent, e.sequential, e.random) for e in tracing.trace] == run


def test_a_crossing_raises_at_its_element():
    stats = IOStats()
    context = ExecutionContext(budget=ExecutionBudget(pages=5))
    with context.guard(stats):
        assert stats.page_ceiling == 5
        with pytest.raises(BudgetExceededError) as caught:
            stats.record_run([("a", 2, 0), ("b", 0, 3), ("a", 1, 0), ("b", 9, 9)])
    assert caught.value.pages_used == 6
    assert caught.value.stats.by_extent == {"a": (3, 0), "b": (0, 3)}
    assert stats.page_ceiling == math.inf  # restored on detach


def test_a_negative_count_raises_at_its_element():
    stats = IOStats()
    with pytest.raises(InvalidParameterError):
        stats.record_run([("a", 2, 0), ("b", -1, 0), ("a", 1, 0)])
    assert stats.by_extent == {"a": (2, 0)}
