"""``SimulatedDisk.fetch`` prices a random read exactly as ``read_record``
charges it.

HVNL keeps a term's ``fetch`` amounts and charges them with one
``stats.record`` per fetch of the entry, so the two paths must agree
under both charge models, for every record size including 0.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.storage.disk import DiskChargeModel, SimulatedDisk
from repro.storage.extents import Extent
from repro.storage.iostats import IOStats
from repro.storage.pages import PageGeometry


def reference(extent, record_id, model):
    """The per-record arithmetic ``read_record`` always applied."""
    span = extent.span(record_id)
    n = min(span.last_page, extent.n_pages - 1) - span.first_page + 1
    if n <= 0:
        return 0, 0
    if model is DiskChargeModel.PAPER_ALL_RANDOM:
        return 0, n
    return n - 1, 1


def build(sizes, page_bytes):
    geometry = PageGeometry(page_bytes)
    extent = Extent("x", geometry)
    for record_id, size in enumerate(sizes):
        extent.append(("payload", record_id), size)
    return geometry, extent


@given(
    sizes=st.lists(
        st.one_of(st.just(0), st.integers(1, 64), st.integers(65, 400)),
        min_size=1,
        max_size=30,
    ),
    page_bytes=st.sampled_from([1, 7, 16, 64, 100, 128]),
    model=st.sampled_from(list(DiskChargeModel)),
)
def test_fetch_then_record_equals_read_record(sizes, page_bytes, model):
    geometry, extent = build(sizes, page_bytes)
    charged = SimulatedDisk(IOStats(), geometry, model)
    priced = SimulatedDisk(IOStats(), geometry, model)
    for record_id in range(len(sizes)):
        payload = charged.read_record(extent, record_id)
        fetched, sequential, random = priced.fetch(extent, record_id)
        assert fetched == payload == extent.payload(record_id)
        assert (sequential, random) == reference(extent, record_id, model)
        if sequential or random:
            priced.stats.record(extent.name, sequential=sequential, random=random)
        assert priced.stats == charged.stats


@given(
    sizes=st.lists(st.integers(0, 300), max_size=10),
    page_bytes=st.sampled_from([1, 16, 100]),
    model=st.sampled_from(list(DiskChargeModel)),
)
def test_trailing_empty_record_costs_nothing(sizes, page_bytes, model):
    # pad to a page boundary, then append the empty record on page n_pages
    padding = -sum(sizes) % page_bytes
    geometry, extent = build([*sizes, padding, 0], page_bytes)
    disk = SimulatedDisk(IOStats(), geometry, model)
    last = extent.n_records - 1
    assert disk.fetch(extent, last) == (("payload", last), 0, 0)
    assert disk.read_record(extent, last) == ("payload", last)
    assert disk.stats == IOStats()
    assert disk.stats.by_extent == {}
