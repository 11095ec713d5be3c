"""HVNL computes ahead and charges in step.

``iter_hvnl`` scores a growing block of outer documents in one
``Kernels.rank`` call from the in-memory inverted file, but every
document's outer read, buffer lookups, entry fetches and phases happen
exactly when they did with one document per block.  After every pull
the observable accounting must therefore equal a run with the block
cap forced to one document (``RANK_BLOCK_CELLS`` patched to 1).
"""

import pytest

from repro.core import hvnl
from repro.core.hvnl import iter_hvnl
from repro.core.join import JoinEnvironment, TextJoinSpec
from repro.cost.params import SystemParams
from repro.errors import BudgetExceededError, ExecutionCancelledError, JoinError
from repro.exec import ExecutionBudget, ExecutionContext
from repro.storage.buffer import ObjectBuffer
from repro.storage.pages import PageGeometry
from tests.core.test_hvnl_trace import PAGE, POLICIES, SPEC, SYSTEM
from tests.core.test_hvnl_trace import collections  # noqa: F401 -- fixture

#: spare buffer beyond the working set: interference seeks once per block
ROOMY = SystemParams(buffer_pages=60, page_bytes=PAGE, alpha=5.0)

#: branch -> (system, iter_hvnl keyword arguments, c2.docs (seq, rand))
BRANCHES = {
    "full-scan": (SYSTEM, {}, (17, 0)),
    "scan-and-filter": (SYSTEM, {"outer_ids": list(range(5, 110, 2))}, (17, 0)),
    "random-fetch": (SYSTEM, {"outer_ids": [3, 41, 97]}, (0, 3)),
    "block-seeks": (ROOMY, {"interference": True}, (15, 2)),
}


class Spy:
    """Wraps the run's buffer and disk so their counters can be read
    between pulls."""

    def __init__(self, monkeypatch, environment):
        self.buffers = []
        self.fetched = 0
        self.blocks = []
        spy = self

        class RecordingBuffer(ObjectBuffer):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                spy.buffers.append(self)

        monkeypatch.setattr(hvnl, "ObjectBuffer", RecordingBuffer)
        disk = environment.disk
        read_record = disk.read_record

        def counting_read(extent, record_id):
            if extent is environment.inv1_extent:
                spy.fetched += 1
            return read_record(extent, record_id)

        monkeypatch.setattr(disk, "read_record", counting_read)
        kernels = environment.kernels
        rank = kernels.rank

        def recording_rank(rows, *args):
            spy.blocks.append(len(rows))
            return rank(rows, *args)

        monkeypatch.setattr(kernels, "rank", recording_rank)

    def state(self, environment, context):
        (buffer,) = self.buffers
        return (
            environment.disk.stats.snapshot(),
            dict(context.phase_stats),
            self.fetched,
            (buffer.hits, buffer.misses, buffer.evictions),
        )


def pulls(collections, monkeypatch, cap, system, policy, **kwargs):
    """Every pull's block and the accounting right after it."""
    with monkeypatch.context() as patch:
        patch.setattr(hvnl, "RANK_BLOCK_CELLS", cap)
        environment = JoinEnvironment(*collections, PageGeometry(PAGE))
        spy = Spy(patch, environment)
        context = ExecutionContext()
        stream = iter_hvnl(
            environment, SPEC, system, policy=POLICIES[policy](), context=context,
            **kwargs,
        )
        trace = [(block, spy.state(environment, context)) for block in stream]
    return trace, spy.blocks


@pytest.mark.parametrize("branch", sorted(BRANCHES))
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_every_pull_charges_what_one_document_blocks_charge(
    collections, monkeypatch, branch, policy
):
    system, kwargs, outer_scan = BRANCHES[branch]
    ahead, sizes = pulls(
        collections, monkeypatch, hvnl.RANK_BLOCK_CELLS, system, policy, **kwargs
    )
    in_step, unit_sizes = pulls(collections, monkeypatch, 1, system, policy, **kwargs)
    assert ahead == in_step
    assert set(unit_sizes) == {1}
    # the blocks double, 1, 2, 4, ..., the last one cut short by the stream
    doubling = [2**i for i in range(len(sizes))]
    assert sizes[:-1] == doubling[:-1] and 0 < sizes[-1] <= doubling[-1]
    assert sum(sizes) == len(ahead)
    final_stats = ahead[-1][1][0]
    assert final_stats.by_extent["c2.docs"] == outer_scan


def test_close_reads_nothing_more(collections):
    environment = JoinEnvironment(*collections, PageGeometry(PAGE))
    stream = iter_hvnl(environment, SPEC, SYSTEM)
    for _ in range(5):  # mid-way through the 4-document block
        next(stream)
    before = environment.disk.stats.snapshot()
    stream.close()
    assert environment.disk.stats == before


def test_page_budget_raises_as_in_step(collections, monkeypatch):
    def crossing(cap):
        with monkeypatch.context() as patch:
            patch.setattr(hvnl, "RANK_BLOCK_CELLS", cap)
            environment = JoinEnvironment(*collections, PageGeometry(PAGE))
            context = ExecutionContext(budget=ExecutionBudget(pages=400))
            emitted = 0
            with pytest.raises(BudgetExceededError) as caught:
                for _ in iter_hvnl(environment, SPEC, SYSTEM, context=context):
                    emitted += 1
            error = caught.value
            return emitted, error.pages_used, error.stats, dict(context.phase_stats)

    assert crossing(hvnl.RANK_BLOCK_CELLS) == crossing(1)


def test_a_cancel_between_documents_reads_nothing_for_the_next(collections):
    cancelled = {"flag": False}
    context = ExecutionContext(cancel_check=lambda: cancelled["flag"])
    environment = JoinEnvironment(*collections, PageGeometry(PAGE))
    stream = iter_hvnl(environment, SPEC, SYSTEM, context=context)
    for _ in range(2):  # the next document was scored ahead, not read
        next(stream)
    before = environment.disk.stats.snapshot()
    cancelled["flag"] = True
    with pytest.raises(ExecutionCancelledError):
        next(stream)
    assert environment.disk.stats == before


def test_an_out_of_order_outer_stream_raises(collections, monkeypatch):
    environment = JoinEnvironment(*collections, PageGeometry(PAGE))
    scan_records = environment.disk.scan_records

    def reversed_docs(extent, **kwargs):
        records = list(scan_records(extent, **kwargs))
        return reversed(records) if extent is environment.docs2 else iter(records)

    monkeypatch.setattr(environment.disk, "scan_records", reversed_docs)
    with pytest.raises(JoinError, match="scored"):
        next(iter_hvnl(environment, SPEC, SYSTEM))
