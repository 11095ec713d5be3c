"""``scan_with_block_seeks`` charges a page group when it is pulled.

The extent's pages split into ``ceil(total / leftover)`` consecutive
groups; a group is charged (one seek, the rest sequential) when the
walk first yields a record ending in it.  A full pass keeps the paper's
totals; an abandoned pass pays only for the groups it pulled.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.hvnl import iter_hvnl, run_hvnl
from repro.core.join import JoinEnvironment, TextJoinSpec, scan_with_block_seeks
from repro.cost.params import SystemParams
from repro.errors import BudgetExceededError
from repro.exec import ExecutionBudget, ExecutionContext
from repro.storage.disk import SimulatedDisk
from repro.storage.iostats import IOStats
from repro.storage.pages import PageGeometry
from repro.workloads.synthetic import SyntheticSpec, generate_collection


def disk_with(sizes, page_bytes=100):
    geometry = PageGeometry(page_bytes)
    disk = SimulatedDisk(IOStats(), geometry)
    extent = disk.create_extent("docs")
    for record_id, size in enumerate(sizes):
        extent.append(f"r{record_id}", size)
    return disk, extent


@given(
    sizes=st.lists(
        st.one_of(st.just(0), st.integers(1, 64), st.integers(65, 400)), max_size=40
    ),
    page_bytes=st.sampled_from([1, 7, 16, 64, 100]),
    leftover=st.one_of(st.just(0.0), st.floats(0.5, 50.0)),
)
def test_full_pass_keeps_the_paper_totals(sizes, page_bytes, leftover):
    disk, extent = disk_with(sizes, page_bytes)
    walked = list(scan_with_block_seeks(disk, extent, leftover))
    assert walked == list(extent.records())
    total = extent.n_pages
    if total == 0:
        assert disk.stats == IOStats()
        return
    blocks = total if leftover <= 0 else min(max(1, math.ceil(total / leftover)), total)
    assert disk.stats.by_extent == {"docs": (total - blocks, blocks)}


class TestPulledGroups:
    # ten one-page records, leftover 3: groups of pages 0-1, 2-4, 5-6, 7-9
    SIZES = [100] * 10

    def test_a_pulled_block_charges_only_its_group(self):
        disk, extent = disk_with(self.SIZES)
        scan = scan_with_block_seeks(disk, extent, 3)
        next(scan)
        assert disk.stats.by_extent == {"docs": (1, 1)}
        next(scan)
        assert disk.stats.by_extent == {"docs": (1, 1)}
        next(scan)  # record 2 opens the second group
        assert disk.stats.by_extent == {"docs": (3, 2)}

    def test_close_reads_nothing_more(self):
        disk, extent = disk_with(self.SIZES)
        scan = scan_with_block_seeks(disk, extent, 3)
        next(scan)
        scan.close()
        assert disk.stats.by_extent == {"docs": (1, 1)}
        assert list(scan) == []
        assert disk.stats.by_extent == {"docs": (1, 1)}

    def test_a_record_spanning_groups_charges_every_group_it_ends_past(self):
        disk, extent = disk_with([450, 550])  # record 0 ends on page 4
        scan = scan_with_block_seeks(disk, extent, 2)  # groups of two pages
        next(scan)  # charges groups 0-1, 2-3 and 4-5
        assert disk.stats.by_extent == {"docs": (3, 3)}

    def test_trailing_empty_record_charges_nothing(self):
        disk, extent = disk_with([100, 100, 0])
        assert len(list(scan_with_block_seeks(disk, extent, 1))) == 3
        assert disk.stats.by_extent == {"docs": (0, 2)}

    def test_page_budget_trips_at_the_group_read(self):
        disk, extent = disk_with(self.SIZES)
        context = ExecutionContext(budget=ExecutionBudget(pages=4))
        pulled = []
        with pytest.raises(BudgetExceededError) as caught:
            with disk.execution_scope(context):
                for _, payload in scan_with_block_seeks(disk, extent, 3):
                    pulled.append(payload)
        # the first group (2 pages) fits; the second (3 more) crosses
        assert pulled == ["r0", "r1"]
        assert caught.value.pages_used == 5


PAGE = 512


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


class TestHVNLInterference:
    """50 buffer pages leave room to read C2 in five blocks."""

    SYSTEM = SystemParams(buffer_pages=50, page_bytes=PAGE, alpha=5.0)

    def environment(self, collections):
        return JoinEnvironment(*collections, PageGeometry(PAGE))

    def test_one_pulled_document_pays_for_its_block(self, collections):
        environment = self.environment(collections)
        stream = iter_hvnl(
            environment, TextJoinSpec(lam=3), self.SYSTEM, interference=True
        )
        next(stream)
        assert environment.disk.stats.by_extent["c2.docs"] == (2, 1)
        stream.close()
        assert environment.disk.stats.by_extent["c2.docs"] == (2, 1)

    def test_full_run_keeps_totals_and_phases(self, collections):
        context = ExecutionContext()
        result = run_hvnl(
            self.environment(collections),
            TextJoinSpec(lam=3),
            self.SYSTEM,
            interference=True,
            context=context,
        )
        assert result.io.by_extent == {
            "c1.btree": (12, 0),
            "c1.inv": (29, 0),
            "c2.docs": (12, 5),
        }
        assert context.phase_stats["hvnl.outer-scan"].by_extent == {
            "c2.docs": (12, 5)
        }
