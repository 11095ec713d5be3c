"""HHNL's chunk reads, pinned to golden numbers.

HHNL charges every page it reads through the simulated disk: the outer
chunks (read through in storage order, one seek per chunk under
interference, or fetched at random after a selection) and one pass over
the inner collection per chunk.  The numbers below were recorded before
the chunk-read page arithmetic moved out of ``core/hhnl.py`` and must
never move: matches (similarity types included, on every backend),
per-extent and per-phase I/O, every ``extras`` field, the exact read at
which a page budget aborts, what a stream closed mid-way has read, and
that a cancel between chunks reads nothing more.
"""

import hashlib

import pytest

from repro.core.hhnl import iter_hhnl, iter_hhnl_backward, run_hhnl, run_hhnl_backward
from repro.core.join import JoinEnvironment, TextJoinSpec
from repro.cost.params import SystemParams
from repro.errors import BudgetExceededError, ExecutionCancelledError
from repro.exec import ExecutionBudget, ExecutionContext
from repro.kernels import numpy_available
from repro.storage.pages import PageGeometry
from tests.core.test_hvnl_trace import PAGE
from tests.core.test_hvnl_trace import collections  # noqa: F401 -- fixture

#: a few outer documents per chunk: many chunks, many inner passes
TIGHT = SystemParams(buffer_pages=8, page_bytes=PAGE, alpha=5.0)
#: every outer document fits: the inner scan seeks once per block
ROOMY = SystemParams(buffer_pages=60, page_bytes=PAGE, alpha=5.0)

KERNELS = ["scalar", "stdlib"] + (["numpy"] if numpy_available() else [])

RUNS = {"forward": run_hhnl, "backward": run_hhnl_backward}
ITERS = {"forward": iter_hhnl, "backward": iter_hhnl_backward}

#: case -> (order, system, lam, normalized, keyword arguments)
CASES = {
    "plain": ("forward", TIGHT, 3, False, {}),
    "interference": ("forward", TIGHT, 3, False, {"interference": True}),
    "normalized": ("forward", TIGHT, 4, True, {}),
    "outer-scan": ("forward", TIGHT, 3, False, {"outer_ids": list(range(5, 110, 2))}),
    "outer-scan-interference": (
        "forward",
        TIGHT,
        3,
        False,
        {"outer_ids": list(range(5, 110, 2)), "interference": True},
    ),
    "outer-random": ("forward", TIGHT, 3, False, {"outer_ids": [3, 41, 97]}),
    "inner-scan": ("forward", TIGHT, 5, True, {"inner_ids": list(range(0, 150, 2))}),
    "inner-random": ("forward", TIGHT, 2, False, {"inner_ids": [1, 5, 9, 77]}),
    "roomy-interference": ("forward", ROOMY, 3, False, {"interference": True}),
    "backward": ("backward", TIGHT, 3, False, {}),
    "backward-interference": ("backward", TIGHT, 3, False, {"interference": True}),
    "backward-normalized": ("backward", TIGHT, 4, True, {}),
    "backward-outer-scan": (
        "backward",
        TIGHT,
        3,
        False,
        {"outer_ids": list(range(5, 110, 2)), "interference": True},
    ),
    "backward-outer-random": ("backward", TIGHT, 3, False, {"outer_ids": [3, 41, 97]}),
}

#: case -> (matches digest, io.by_extent, phases, extras)
GOLDEN = {
    "backward": (
        "3c4e72a0419a43b3",
        {"c1.docs": (29, 0), "c2.docs": (119, 0)},
        {"hhnl.inner": {"c1.docs": (29, 0)}, "hhnl.outer": {"c2.docs": (119, 0)}},
        {"x": 23, "c2_scans": 7, "outer_documents": 110, "interference": False},
    ),
    "backward-interference": (
        "3c4e72a0419a43b3",
        {"c1.docs": (22, 7), "c2.docs": (0, 119)},
        {"hhnl.inner": {"c1.docs": (22, 7)}, "hhnl.outer": {"c2.docs": (0, 119)}},
        {"x": 23, "c2_scans": 7, "outer_documents": 110, "interference": True},
    ),
    "backward-normalized": (
        "28ad759a3ab72442",
        {"c1.docs": (29, 0), "c2.docs": (153, 0)},
        {"hhnl.inner": {"c1.docs": (29, 0)}, "hhnl.outer": {"c2.docs": (153, 0)}},
        {"x": 18, "c2_scans": 9, "outer_documents": 110, "interference": False},
    ),
    "backward-outer-random": (
        "a371ef04064fdd0e",
        {"c1.docs": (29, 0), "c2.docs": (0, 15)},
        {"hhnl.inner": {"c1.docs": (29, 0)}, "hhnl.outer": {"c2.docs": (0, 15)}},
        {"x": 36, "c2_scans": 5, "outer_documents": 3, "interference": False},
    ),
    "backward-outer-scan": (
        "c1fcca48d614b73a",
        {"c1.docs": (24, 5), "c2.docs": (0, 85)},
        {"hhnl.inner": {"c1.docs": (24, 5)}, "hhnl.outer": {"c2.docs": (0, 85)}},
        {"x": 30, "c2_scans": 5, "outer_documents": 53, "interference": True},
    ),
    "inner-random": (
        "8018a377c5a32cdf",
        {"c2.docs": (17, 0), "c1.docs": (0, 12)},
        {"hhnl.outer": {"c2.docs": (17, 0)}, "hhnl.inner": {"c1.docs": (0, 12)}},
        {
            "x": 42,
            "inner_scans": 3,
            "outer_documents": 110,
            "interference": False,
            "cpu_ops": 14684,
        },
    ),
    "inner-scan": (
        "ac9c59be8acf162d",
        {"c2.docs": (17, 0), "c1.docs": (87, 0)},
        {"hhnl.outer": {"c2.docs": (17, 0)}, "hhnl.inner": {"c1.docs": (87, 0)}},
        {
            "x": 37,
            "inner_scans": 3,
            "outer_documents": 110,
            "interference": False,
            "cpu_ops": 286215,
        },
    ),
    "interference": (
        "3c4e72a0419a43b3",
        {"c2.docs": (14, 3), "c1.docs": (0, 87)},
        {"hhnl.outer": {"c2.docs": (14, 3)}, "hhnl.inner": {"c1.docs": (0, 87)}},
        {
            "x": 40,
            "inner_scans": 3,
            "outer_documents": 110,
            "interference": True,
            "cpu_ops": 574410,
        },
    ),
    "normalized": (
        "28ad759a3ab72442",
        {"c2.docs": (17, 0), "c1.docs": (87, 0)},
        {"hhnl.outer": {"c2.docs": (17, 0)}, "hhnl.inner": {"c1.docs": (87, 0)}},
        {
            "x": 38,
            "inner_scans": 3,
            "outer_documents": 110,
            "interference": False,
            "cpu_ops": 574410,
        },
    ),
    "outer-random": (
        "a371ef04064fdd0e",
        {"c2.docs": (0, 3), "c1.docs": (29, 0)},
        {"hhnl.outer": {"c2.docs": (0, 3)}, "hhnl.inner": {"c1.docs": (29, 0)}},
        {
            "x": 40,
            "inner_scans": 1,
            "outer_documents": 3,
            "interference": False,
            "cpu_ops": 15648,
        },
    ),
    "outer-scan": (
        "c1fcca48d614b73a",
        {"c2.docs": (17, 0), "c1.docs": (58, 0)},
        {"hhnl.outer": {"c2.docs": (17, 0)}, "hhnl.inner": {"c1.docs": (58, 0)}},
        {
            "x": 40,
            "inner_scans": 2,
            "outer_documents": 53,
            "interference": False,
            "cpu_ops": 270798,
        },
    ),
    "outer-scan-interference": (
        "c1fcca48d614b73a",
        {"c2.docs": (15, 2), "c1.docs": (0, 58)},
        {"hhnl.outer": {"c2.docs": (15, 2)}, "hhnl.inner": {"c1.docs": (0, 58)}},
        {
            "x": 40,
            "inner_scans": 2,
            "outer_documents": 53,
            "interference": True,
            "cpu_ops": 270798,
        },
    ),
    "plain": (
        "3c4e72a0419a43b3",
        {"c2.docs": (17, 0), "c1.docs": (87, 0)},
        {"hhnl.outer": {"c2.docs": (17, 0)}, "hhnl.inner": {"c1.docs": (87, 0)}},
        {
            "x": 40,
            "inner_scans": 3,
            "outer_documents": 110,
            "interference": False,
            "cpu_ops": 574410,
        },
    ),
    "roomy-interference": (
        "3c4e72a0419a43b3",
        {"c2.docs": (16, 1), "c1.docs": (28, 1)},
        {"hhnl.outer": {"c2.docs": (16, 1)}, "hhnl.inner": {"c1.docs": (28, 1)}},
        {
            "x": 339,
            "inner_scans": 1,
            "outer_documents": 110,
            "interference": True,
            "cpu_ops": 574410,
        },
    ),
}


def digest(matches):
    """Pins ids, similarities and their types (``repr(3) != repr(3.0)``)."""
    return hashlib.sha256(repr(sorted(matches.items())).encode()).hexdigest()[:16]


def environment(collections, kernel="auto"):
    return JoinEnvironment(*collections, PageGeometry(PAGE), kernel=kernel)


def observe(collections, case, kernel="auto"):
    order, system, lam, normalized, kwargs = CASES[case]
    context = ExecutionContext()
    result = RUNS[order](
        environment(collections, kernel),
        TextJoinSpec(lam=lam, normalized=normalized),
        system,
        context=context,
        **kwargs,
    )
    phases = {name: stats.by_extent for name, stats in context.phase_stats.items()}
    return digest(result.matches), result.io.by_extent, phases, result.extras


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_is_pinned(collections, case, kernel):
    assert observe(collections, case, kernel) == GOLDEN[case]


#: (order, interference) -> (page budget, blocks emitted, pages used, partial by_extent, phases)
GOLDEN_BUDGET = {
    ("backward", False): (
        59,
        0,
        60,
        {"c1.docs": (13, 0), "c2.docs": (47, 0)},
        {"hhnl.inner": {"c1.docs": (13, 0)}, "hhnl.outer": {"c2.docs": (47, 0)}},
    ),
    ("backward", True): (
        59,
        0,
        60,
        {"c1.docs": (10, 3), "c2.docs": (0, 47)},
        {"hhnl.inner": {"c1.docs": (10, 3)}, "hhnl.outer": {"c2.docs": (0, 47)}},
    ),
    ("forward", False): (
        41,
        40,
        42,
        {"c2.docs": (13, 0), "c1.docs": (29, 0)},
        {"hhnl.outer": {"c2.docs": (13, 0)}, "hhnl.inner": {"c1.docs": (29, 0)}},
    ),
    ("forward", True): (
        41,
        40,
        42,
        {"c2.docs": (11, 2), "c1.docs": (0, 29)},
        {"hhnl.outer": {"c2.docs": (11, 2)}, "hhnl.inner": {"c1.docs": (0, 29)}},
    ),
}


@pytest.mark.parametrize("interference", [False, True])
@pytest.mark.parametrize("order", sorted(ITERS))
def test_page_budget_aborts_at_the_same_read(collections, order, interference):
    budget, emitted, pages_used, partial, phases = GOLDEN_BUDGET[order, interference]
    context = ExecutionContext(budget=ExecutionBudget(pages=budget))
    stream = ITERS[order](
        environment(collections),
        TextJoinSpec(lam=3),
        TIGHT,
        interference=interference,
        context=context,
    )
    pulled = 0
    with pytest.raises(BudgetExceededError) as caught:
        for _ in stream:
            pulled += 1
    assert pulled == emitted
    assert caught.value.pages_used == pages_used
    assert caught.value.stats.by_extent == partial
    assert {name: s.by_extent for name, s in context.phase_stats.items()} == phases


#: case -> (outer_ids, interference, by_extent once the first chunk's blocks are out)
CLOSE_CASES = {
    "plain": (None, False, {"c2.docs": (7, 0), "c1.docs": (29, 0)}),
    "interference": (None, True, {"c2.docs": (6, 1), "c1.docs": (0, 29)}),
    "outer-scan-interference": (
        list(range(5, 110, 2)),
        True,
        {"c2.docs": (12, 1), "c1.docs": (0, 29)},
    ),
}


@pytest.mark.parametrize("case", sorted(CLOSE_CASES))
def test_close_after_the_first_block_reads_nothing_more(collections, case):
    outer_ids, interference, first_chunk = CLOSE_CASES[case]
    env = environment(collections)
    stream = iter_hhnl(
        env,
        TextJoinSpec(lam=3),
        TIGHT,
        outer_ids=outer_ids,
        interference=interference,
    )
    next(stream)
    before = env.disk.stats.snapshot()
    stream.close()
    assert env.disk.stats == before
    assert before.by_extent == first_chunk


#: order -> (checkpoints passed before the cancel, blocks out by then,
#: by_extent read by then)
CANCEL_CASES = {
    "forward": (1, 40, {"c2.docs": (7, 0), "c1.docs": (29, 0)}),
    "backward": (2, 0, {"c1.docs": (9, 0), "c2.docs": (34, 0)}),
}


@pytest.mark.parametrize("order", sorted(CANCEL_CASES))
def test_a_cancel_between_chunks_reads_nothing_more(collections, order):
    passed, emitted, read = CANCEL_CASES[order]
    env = environment(collections)
    seen = []

    def cancel_check():
        seen.append(env.disk.stats.snapshot())
        return len(seen) > passed

    context = ExecutionContext(cancel_check=cancel_check)
    stream = ITERS[order](env, TextJoinSpec(lam=3), TIGHT, context=context)
    pulled = 0
    with pytest.raises(ExecutionCancelledError):
        for _ in stream:
            pulled += 1
    before = seen[-1]
    assert pulled == emitted
    assert env.disk.stats == before
    assert before.by_extent == read
