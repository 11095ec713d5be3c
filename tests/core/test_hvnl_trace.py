"""HVNL's buffer trace, pinned to golden numbers.

Every kernel backend shares the operator's probe loop, so
kernel-equivalence cannot see a reordered probe — the counters below
can: hits, misses and evictions depend on the exact order of
``buffer.get`` / ``policy.accessed`` / ``buffer.insert`` calls, and the
page-budget run on the exact read that crosses the line.  The numbers
were recorded before the probe loop became one pass per document and
must never move.
"""

import pytest

from repro.core.hvnl import run_hvnl
from repro.core.join import JoinEnvironment, TextJoinSpec
from repro.cost.params import SystemParams
from repro.errors import BudgetExceededError
from repro.exec import ExecutionBudget, ExecutionContext
from repro.storage.pages import PageGeometry
from repro.storage.policies import (
    FIFOPolicy,
    LowestDocFrequencyPolicy,
    LRUPolicy,
    RandomPolicy,
)
from repro.workloads.synthetic import SyntheticSpec, generate_collection

PAGE = 512
SPEC = TextJoinSpec(lam=3)
#: 18 pages leave room for a handful of entries: the thrash regime
SYSTEM = SystemParams(buffer_pages=18, page_bytes=PAGE, alpha=5.0)

POLICIES = {
    "ldf": LowestDocFrequencyPolicy,
    "lru": LRUPolicy,
    "fifo": FIFOPolicy,
    "random": lambda: RandomPolicy(seed=5),
}

#: policy -> (hits, misses, evictions, entries fetched, random entry pages)
GOLDEN = {
    "ldf": (304, 1387, 1266, 1277, 1528),
    "lru": (249, 1442, 1317, 1332, 1677),
    "fifo": (244, 1447, 1320, 1337, 1696),
    "random": (257, 1434, 1303, 1324, 1672),
}


@pytest.fixture(scope="module")
def collections():
    c1 = generate_collection(
        SyntheticSpec("t1", n_documents=150, avg_terms_per_doc=20,
                      vocabulary_size=900, seed=41)
    )
    c2 = generate_collection(
        SyntheticSpec("t2", n_documents=110, avg_terms_per_doc=16,
                      vocabulary_size=900, seed=42)
    )
    return c1, c2


def run(collections, context, **kwargs):
    environment = JoinEnvironment(*collections, PageGeometry(PAGE))
    return run_hvnl(environment, SPEC, SYSTEM, context=context, **kwargs)


def phases(context):
    return {name: stats.by_extent for name, stats in context.phase_stats.items()}


@pytest.mark.parametrize("interference", [False, True])
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_buffer_trace_is_pinned(collections, policy, interference):
    context = ExecutionContext()
    result = run(
        collections, context, policy=POLICIES[policy](), interference=interference
    )
    extras = result.extras
    hits, misses, evictions, fetched, entry_pages = GOLDEN[policy]
    assert (
        extras["buffer_hits"],
        extras["buffer_misses"],
        extras["buffer_evictions"],
        extras["entries_fetched"],
    ) == (hits, misses, evictions, fetched)
    assert extras["buffer_hit_rate"] == hits / (hits + misses) < 0.2
    assert extras["cpu_ops"] == 55158
    assert extras["peak_accumulator_cells"] == 150
    # Interference only turns the outer scan's page reads into seeks.
    outer_scan = (0, 17) if interference else (17, 0)
    assert result.io.by_extent == {
        "c1.btree": (12, 0),
        "c1.inv": (0, entry_pages),
        "c2.docs": outer_scan,
    }
    assert phases(context) == {
        "hvnl.btree": {"c1.btree": (12, 0)},
        "hvnl.outer-scan": {"c2.docs": outer_scan},
        "hvnl.probe": {"c1.inv": (0, entry_pages)},
    }


def test_outer_selection_trace_is_pinned(collections):
    context = ExecutionContext()
    result = run(collections, context, outer_ids=list(range(5, 110, 2)))
    extras = result.extras
    assert (
        extras["buffer_hits"],
        extras["buffer_misses"],
        extras["buffer_evictions"],
        extras["entries_fetched"],
        extras["cpu_ops"],
    ) == (143, 632, 577, 588, 26166)
    assert result.io.by_extent == {
        "c1.btree": (12, 0),
        "c1.inv": (0, 701),
        "c2.docs": (17, 0),
    }
    assert phases(context)["hvnl.probe"] == {"c1.inv": (0, 701)}


def test_page_budget_aborts_at_the_same_read(collections):
    context = ExecutionContext(budget=ExecutionBudget(pages=400))
    with pytest.raises(BudgetExceededError) as caught:
        run(collections, context)
    assert caught.value.pages_used == 401
    assert caught.value.stats.by_extent == {
        "c1.btree": (12, 0),
        "c2.docs": (5, 0),
        "c1.inv": (0, 384),
    }
    assert phases(context) == {
        "hvnl.btree": {"c1.btree": (12, 0)},
        "hvnl.outer-scan": {"c2.docs": (5, 0)},
        "hvnl.probe": {"c1.inv": (0, 384)},
    }
