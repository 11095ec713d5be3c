"""Property-based tests: an extent laid out whole equals one grown record by record.

:meth:`Extent.from_records` places every record in one loop; the
reference is :meth:`Extent.append`, which places each record through
:func:`~repro.storage.pages.span_pages`.  Zero-byte records are drawn
anywhere, the last position included — a trailing empty record once
slipped past a page-arithmetic rewrite — and page sizes range from one
byte to larger than any record.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage.extents import Extent
from repro.storage.pages import PageGeometry

sizes = st.lists(
    st.one_of(st.just(0), st.integers(min_value=1, max_value=700)), max_size=60
)
page_sizes = st.integers(min_value=1, max_value=512)


def appended(sizes, geometry):
    extent = Extent("x", geometry)
    for record_id, n_bytes in enumerate(sizes):
        extent.append(record_id, n_bytes)
    return extent


def layout(extent):
    return (
        list(extent.records()),
        extent.n_records,
        extent.n_pages,
        extent.total_bytes,
        extent.fractional_pages,
        [extent.records_on_page(page) for page in range(max(extent.n_pages, 1))],
    )


@given(sizes=sizes, page_bytes=page_sizes, trailing_empty=st.booleans())
def test_one_pass_layout_equals_append_by_append(sizes, page_bytes, trailing_empty):
    if trailing_empty:
        sizes = [*sizes, 0]
    geometry = PageGeometry(page_bytes)
    whole = Extent.from_records("x", geometry, enumerate(sizes))
    assert layout(whole) == layout(appended(sizes, geometry))


@given(sizes=sizes, page_bytes=page_sizes, position=st.integers(min_value=0))
def test_a_negative_size_is_refused(sizes, page_bytes, position):
    sizes = list(sizes)
    sizes.insert(position % (len(sizes) + 1), -1)
    with pytest.raises(StorageError):
        Extent.from_records("x", PageGeometry(page_bytes), enumerate(sizes))
