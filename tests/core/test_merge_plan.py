"""VVM's merge plan is the merge's own charge order.

``iter_vvm`` charges a pass as one run of charges built once per run
from the two files' :meth:`~repro.storage.disk.SimulatedDisk.scan_charges`.
The run must be exactly what the term-compare merge charged as it pulled
records through :meth:`~repro.storage.disk.SimulatedDisk.scan_records`:
both heads first, then ``term1 <= term2`` / ``term2 <= term1`` advances,
then both drains — for any two term sets, record sizes, page sizes,
interference, and a file merged with itself.
"""

from collections import namedtuple

from hypothesis import given
from hypothesis import strategies as st

from repro.core.vvm import _merge_plan
from repro.storage.disk import SimulatedDisk
from repro.storage.extents import Extent
from repro.storage.pages import PageGeometry
from repro.storage.trace import TracingIOStats

Entry = namedtuple("Entry", "term")

files = st.dictionaries(st.integers(0, 40), st.integers(0, 90), max_size=25)


def merged(disk, extent1, extent2, interference):
    """The merge loop as VVM ran it, one ``scan_records`` pull at a time."""
    scan1 = disk.scan_records(extent1, interference=interference)
    scan2 = disk.scan_records(extent2, interference=interference)
    entry1, entry2 = next(scan1, None), next(scan2, None)
    while entry1 is not None and entry2 is not None:
        term1, term2 = entry1[1].term, entry2[1].term
        if term1 <= term2:
            entry1 = next(scan1, None)
        if term2 <= term1:
            entry2 = next(scan2, None)
    for _ in scan1:
        pass
    for _ in scan2:
        pass


def extent(name, sizes, geometry):
    laid_out = Extent(name, geometry)
    for term in sorted(sizes):
        laid_out.append(Entry(term), sizes[term])
    return laid_out


@given(
    sizes1=files,
    sizes2=files,
    page_bytes=st.sampled_from([16, 64, 100, 512]),
    interference=st.booleans(),
    self_join=st.booleans(),
)
def test_the_plan_is_the_merge_charge_order(
    sizes1, sizes2, page_bytes, interference, self_join
):
    geometry = PageGeometry(page_bytes)
    disk = SimulatedDisk(TracingIOStats(), geometry)
    extent1 = extent("c1.inv", sizes1, geometry)
    extent2 = extent1 if self_join else extent("c2.inv", sizes2, geometry)
    merged(disk, extent1, extent2, interference)
    charged = [(e.extent, e.sequential, e.random) for e in disk.stats.trace]
    plan = _merge_plan(disk, extent1, extent2, interference=interference)
    assert plan == charged
    assert disk.stats.trace.pages_read() == extent1.n_pages + extent2.n_pages
