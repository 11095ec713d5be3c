"""``scan_records`` against the per-record charge it always applied.

The scan walks placements and payloads together; every record still
charges the pages it newly touches — the first one random under
interference — and nothing at or past the extent's last page.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.storage.disk import SimulatedDisk
from repro.storage.extents import Extent
from repro.storage.iostats import IOStats
from repro.storage.pages import PageGeometry


def reference(extent, interference):
    """The original per-record arithmetic, trailing empty records clipped."""
    stats = IOStats()
    pages_read_through = -1
    for record_id in range(extent.n_records):
        span = extent.span(record_id)
        last_page = min(span.last_page, extent.n_pages - 1)
        first_new = max(span.first_page, pages_read_through + 1)
        new_pages = last_page - first_new + 1
        if new_pages > 0:
            if interference:
                stats.record(extent.name, random=1, sequential=new_pages - 1)
            else:
                stats.record(extent.name, sequential=new_pages)
            pages_read_through = last_page
    return stats


@given(
    sizes=st.lists(
        st.one_of(st.just(0), st.integers(1, 64), st.integers(65, 400)), max_size=40
    ),
    page_bytes=st.sampled_from([1, 7, 16, 64, 100, 128]),
    interference=st.booleans(),
)
def test_scan_matches_the_per_record_reference(sizes, page_bytes, interference):
    geometry = PageGeometry(page_bytes)
    extent = Extent("x", geometry)
    for record_id, size in enumerate(sizes):
        extent.append(("payload", record_id), size)
    disk = SimulatedDisk(IOStats(), geometry)
    walked = list(disk.scan_records(extent, interference=interference))
    assert walked == [
        (extent.span(record_id), extent.payload(record_id))
        for record_id in range(len(sizes))
    ]
    assert disk.stats == reference(extent, interference)
    assert disk.stats.total_reads == extent.n_pages
