"""VVM's merge trace, pinned to golden numbers.

VVM charges one synchronized scan of both inverted files per accumulator
partition; what it computes in memory, and in which order, is free.  The
numbers below were recorded before the merge stopped accumulating
posting pairs and must never move: matches (similarity *types*
included, on every backend), per-extent and per-phase I/O, every
``extras`` field, when each pass's merge is charged relative to its
first block, and the exact read at which a page budget aborts.
"""

import hashlib

import pytest

from repro.core import vvm
from repro.core.join import JoinEnvironment, TextJoinSpec
from repro.core.vvm import iter_vvm, run_vvm
from repro.cost.params import SystemParams
from repro.errors import BudgetExceededError, ExecutionCancelledError
from repro.exec import ExecutionBudget, ExecutionContext
from repro.kernels import numpy_available
from repro.storage.pages import PageGeometry
from tests.core.test_hvnl_trace import PAGE
from tests.core.test_hvnl_trace import collections  # noqa: F401 -- fixture

#: 7 pages hold a third of the accumulators: three merge passes
SYSTEM = SystemParams(buffer_pages=7, page_bytes=PAGE, alpha=5.0)
#: one whole pass over c1.inv and c2.inv, in (sequential, random) pages
PASS = {"c1.inv": (29, 0), "c2.inv": (17, 0)}
#: outer documents per pass at three passes: ceil(110 / 3)
CHUNK = 37

KERNELS = ["scalar", "stdlib"] + (["numpy"] if numpy_available() else [])

#: case -> (lam, normalized, iter_vvm keyword arguments)
CASES = {
    "plain": (3, False, {}),
    "interference": (3, False, {"interference": True}),
    "normalized": (4, True, {}),
    "outer-selection": (3, False, {"outer_ids": list(range(5, 110, 2))}),
    "inner-selection": (5, True, {"inner_ids": list(range(0, 150, 2))}),
    "both-selections": (
        2,
        False,
        {"outer_ids": list(range(0, 110, 5)), "inner_ids": list(range(1, 150, 2))},
    ),
    "one-pass": (3, False, {"delta": 0.01}),
    "no-inner-candidates": (3, False, {"inner_ids": []}),
}

#: case -> (matches digest, io.by_extent, extras); phases mirror io
GOLDEN = {
    "plain": (
        "c3e4d2512b181c23",
        {"c1.inv": (87, 0), "c2.inv": (51, 0)},
        {
            "passes": 3,
            "modelled_passes": 3,
            "modelled_accumulator_pages": 12.890625,
            "memory_pages": 5,
            "peak_accumulator_cells": 5430,
            "measured_delta": 0.9872727272727273,
            "interference": False,
            "cpu_ops": 55158,
        },
    ),
    "interference": (
        "c3e4d2512b181c23",
        {"c1.inv": (3, 84), "c2.inv": (0, 51)},
        {
            "passes": 3,
            "modelled_passes": 3,
            "modelled_accumulator_pages": 12.890625,
            "memory_pages": 5,
            "peak_accumulator_cells": 5430,
            "measured_delta": 0.9872727272727273,
            "interference": True,
            "cpu_ops": 55158,
        },
    ),
    "normalized": (
        "28ad759a3ab72442",
        {"c1.inv": (87, 0), "c2.inv": (51, 0)},
        {
            "passes": 3,
            "modelled_passes": 3,
            "modelled_accumulator_pages": 12.890625,
            "memory_pages": 5,
            "peak_accumulator_cells": 5430,
            "measured_delta": 0.9872727272727273,
            "interference": False,
            "cpu_ops": 55158,
        },
    ),
    "outer-selection": (
        "b64802033c1149b8",
        {"c1.inv": (58, 0), "c2.inv": (34, 0)},
        {
            "passes": 2,
            "modelled_passes": 2,
            "modelled_accumulator_pages": 6.2109375,
            "memory_pages": 5,
            "peak_accumulator_cells": 3934,
            "measured_delta": 0.989685534591195,
            "interference": False,
            "cpu_ops": 26166,
        },
    ),
    "inner-selection": (
        "ac9c59be8acf162d",
        {"c1.inv": (58, 0), "c2.inv": (34, 0)},
        {
            "passes": 2,
            "modelled_passes": 2,
            "modelled_accumulator_pages": 6.4453125,
            "memory_pages": 5,
            "peak_accumulator_cells": 4087,
            "measured_delta": 0.4953939393939394,
            "interference": False,
            "cpu_ops": 27677,
        },
    ),
    "both-selections": (
        "f289e256800de1ea",
        {"c1.inv": (29, 0), "c2.inv": (17, 0)},
        {
            "passes": 1,
            "modelled_passes": 1,
            "modelled_accumulator_pages": 1.2890625,
            "memory_pages": 5,
            "peak_accumulator_cells": 1627,
            "measured_delta": 0.49303030303030304,
            "interference": False,
            "cpu_ops": 5439,
        },
    ),
    "one-pass": (
        "c3e4d2512b181c23",
        {"c1.inv": (29, 0), "c2.inv": (17, 0)},
        {
            "passes": 1,
            "modelled_passes": 1,
            "modelled_accumulator_pages": 1.2890625,
            "memory_pages": 5,
            "peak_accumulator_cells": 16150,
            "measured_delta": 0.9787878787878788,
            "interference": False,
            "cpu_ops": 55158,
        },
    ),
    "no-inner-candidates": (
        "4000189e4d2fa77a",
        {"c1.inv": (29, 0), "c2.inv": (17, 0)},
        {
            "passes": 1,
            "modelled_passes": 1,
            "modelled_accumulator_pages": 0.0,
            "memory_pages": 5,
            "peak_accumulator_cells": 0,
            "measured_delta": 0.0,
            "interference": False,
            "cpu_ops": 0,
        },
    ),
}


#: the partial stats when the 61st page crosses a 60-page budget
GOLDEN_BUDGET = {"c1.inv": (38, 0), "c2.inv": (23, 0)}


#: extras of the outer_ids=[] run
GOLDEN_EMPTY = {
    "passes": 1,
    "modelled_passes": 1,
    "modelled_accumulator_pages": 0.0,
    "memory_pages": 5,
    "peak_accumulator_cells": 0,
    "measured_delta": 0.0,
    "interference": False,
    "cpu_ops": 0,
}


def digest(matches):
    """Pins ids, similarities and their types (``repr(3) != repr(3.0)``)."""
    return hashlib.sha256(repr(sorted(matches.items())).encode()).hexdigest()[:16]


def environment(collections, kernel="auto"):
    return JoinEnvironment(*collections, PageGeometry(PAGE), kernel=kernel)


def observe(collections, case, kernel="auto"):
    lam, normalized, kwargs = CASES[case]
    context = ExecutionContext()
    result = run_vvm(
        environment(collections, kernel),
        TextJoinSpec(lam=lam, normalized=normalized),
        SYSTEM,
        context=context,
        **kwargs,
    )
    phases = {name: stats.by_extent for name, stats in context.phase_stats.items()}
    assert phases == {"vvm.merge": result.io.by_extent}
    return digest(result.matches), result.io.by_extent, result.extras


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_is_pinned(collections, case, kernel):
    assert observe(collections, case, kernel) == GOLDEN[case]


def scaled(passes):
    return {name: (seq * passes, rnd) for name, (seq, rnd) in PASS.items()}


def test_each_pass_is_charged_whole_before_its_first_block(collections):
    env = environment(collections)
    stream = iter_vvm(env, TextJoinSpec(lam=3), SYSTEM)
    for pulled in range(1, 2 * CHUNK + 2):
        next(stream)
        assert env.disk.stats.by_extent == scaled(1 + (pulled - 1) // CHUNK)


def test_close_after_the_first_block_reads_nothing_more(collections):
    env = environment(collections)
    stream = iter_vvm(env, TextJoinSpec(lam=3), SYSTEM)
    next(stream)
    before = env.disk.stats.snapshot()
    stream.close()
    assert env.disk.stats == before
    assert before.by_extent == PASS


def test_a_cancel_between_passes_reads_nothing_more(collections):
    cancelled = {"flag": False}
    context = ExecutionContext(cancel_check=lambda: cancelled["flag"])
    env = environment(collections)
    stream = iter_vvm(env, TextJoinSpec(lam=3), SYSTEM, context=context)
    for _ in range(CHUNK):  # every block of the first pass
        next(stream)
    before = env.disk.stats.snapshot()
    cancelled["flag"] = True
    with pytest.raises(ExecutionCancelledError):
        next(stream)
    assert env.disk.stats == before
    assert before.by_extent == PASS


def test_page_budget_aborts_at_the_same_read(collections):
    context = ExecutionContext(budget=ExecutionBudget(pages=60))
    emitted = 0
    with pytest.raises(BudgetExceededError) as caught:
        for _ in iter_vvm(
            environment(collections), TextJoinSpec(lam=3), SYSTEM, context=context
        ):
            emitted += 1
    assert emitted == CHUNK
    assert caught.value.pages_used == 61
    assert caught.value.stats.by_extent == GOLDEN_BUDGET
    assert {name: s.by_extent for name, s in context.phase_stats.items()} == {
        "vvm.merge": GOLDEN_BUDGET
    }



def pull_trace(collections, monkeypatch, cells, **kwargs):
    """Every pull's block and the accounting right after it."""
    with monkeypatch.context() as patch:
        patch.setattr(vvm, "RANK_BLOCK_CELLS", cells)
        env = environment(collections)
        context = ExecutionContext()
        stream = iter_vvm(env, TextJoinSpec(lam=3), SYSTEM, context=context, **kwargs)
        return [
            (
                block,
                env.disk.stats.snapshot(),
                {name: stats.snapshot() for name, stats in context.phase_stats.items()},
            )
            for block in stream
        ]


@pytest.mark.parametrize("kwargs", [{}, {"outer_ids": [4, 9, 60, 61, 100]}])
def test_a_one_document_sub_block_changes_nothing(collections, monkeypatch, kwargs):
    default = pull_trace(collections, monkeypatch, vvm.RANK_BLOCK_CELLS, **kwargs)
    assert default == pull_trace(collections, monkeypatch, 1, **kwargs)


def test_an_empty_outer_selection_keeps_one_empty_pass(collections):
    env = environment(collections)
    context = ExecutionContext()
    stream = iter_vvm(env, TextJoinSpec(lam=3), SYSTEM, outer_ids=[], context=context)
    assert list(stream) == []
    assert env.disk.stats.by_extent == PASS
    result = run_vvm(environment(collections), TextJoinSpec(lam=3), SYSTEM, outer_ids=[])
    assert result.matches == {}
    assert result.extras == GOLDEN_EMPTY

