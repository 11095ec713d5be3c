"""HVNL's charges under ``DiskChargeModel.FIRST_PAGE_SEEK``, pinned.

``test_hvnl_trace.py`` pins the paper's all-random model.  The probe
loop keeps, per term, the amounts the disk's charge model computed for
the term's entry, so the other model is pinned too: one seek plus a
sequential tail per fetched entry, the same buffer trace, and the page
budget crossing at the same read.
"""

import pytest

from repro.core.hvnl import run_hvnl
from repro.core.join import JoinEnvironment, TextJoinSpec
from repro.cost.params import SystemParams
from repro.errors import BudgetExceededError
from repro.exec import ExecutionBudget, ExecutionContext
from repro.storage.disk import DiskChargeModel
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
SYSTEM = SystemParams(buffer_pages=18, page_bytes=PAGE, alpha=5.0)

POLICIES = {
    "ldf": LowestDocFrequencyPolicy,
    "lru": LRUPolicy,
    "fifo": FIFOPolicy,
    "random": lambda: RandomPolicy(seed=5),
}

#: policy -> (hits, misses, evictions, entries fetched, c1.inv pages)
GOLDEN = {
    "ldf": (304, 1387, 1266, 1277, (251, 1277)),
    "lru": (249, 1442, 1317, 1332, (345, 1332)),
    "fifo": (244, 1447, 1320, 1337, (359, 1337)),
    "random": (257, 1434, 1303, 1324, (348, 1324)),
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
    environment.disk.charge_model = DiskChargeModel.FIRST_PAGE_SEEK
    return run_hvnl(environment, SPEC, SYSTEM, context=context, **kwargs)


def phases(context):
    return {name: stats.by_extent for name, stats in context.phase_stats.items()}


@pytest.mark.parametrize("interference", [False, True])
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_first_page_seek_trace_is_pinned(collections, policy, interference):
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
        extras["cpu_ops"],
    ) == (hits, misses, evictions, fetched, 55158)
    # one seek per fetched entry, the rest of its span sequential
    assert entry_pages[1] == fetched
    outer_scan = (0, 17) if interference else (17, 0)
    assert result.io.by_extent == {
        "c1.btree": (12, 0),
        "c1.inv": entry_pages,
        "c2.docs": outer_scan,
    }
    assert phases(context) == {
        "hvnl.btree": {"c1.btree": (12, 0)},
        "hvnl.outer-scan": {"c2.docs": outer_scan},
        "hvnl.probe": {"c1.inv": entry_pages},
    }


def test_first_page_seek_budget_aborts_at_the_same_read(collections):
    context = ExecutionContext(budget=ExecutionBudget(pages=400))
    with pytest.raises(BudgetExceededError) as caught:
        run(collections, context)
    assert caught.value.pages_used == 401
    assert caught.value.stats.by_extent == {
        "c1.btree": (12, 0),
        "c2.docs": (5, 0),
        "c1.inv": (59, 325),
    }
    assert phases(context) == {
        "hvnl.btree": {"c1.btree": (12, 0)},
        "hvnl.outer-scan": {"c2.docs": (5, 0)},
        "hvnl.probe": {"c1.inv": (59, 325)},
    }
