"""Property-based tests: an extent laid out whole equals one grown record by record.

:meth:`Extent.from_records` keeps only the running byte offsets and
derives every span from them on first read; the reference is
:meth:`Extent.append`, which places each record through
:func:`~repro.storage.pages.span_pages`.  Every reader is compared —
``lookup``, ``span``, ``records()``, ``records_on_page``, ``n_pages``,
``fractional_pages`` and ``total_bytes`` — and the scalar ones are read
before any span exists.  Zero-byte records are drawn anywhere, the last
position included — a trailing empty record once slipped past a
page-arithmetic rewrite — and page sizes range from one byte to larger
than any record.  Spans are materialised once, also under concurrent
first reads, and never travel in a pickle; a layout that replaces
another shares exactly the spans of the leading records that kept their
place.
"""

import pickle
import threading
from itertools import accumulate

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import PageOutOfRangeError, StorageError
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


def scalars(extent):
    return (
        extent.n_records,
        len(extent),
        extent.n_pages,
        extent.total_bytes,
        extent.fractional_pages,
    )


@given(sizes=sizes, page_bytes=page_sizes, trailing_empty=st.booleans())
def test_one_pass_layout_equals_append_by_append(sizes, page_bytes, trailing_empty):
    if trailing_empty:
        sizes = [*sizes, 0]
    geometry = PageGeometry(page_bytes)
    whole = Extent.from_records("x", geometry, range(len(sizes)), sizes)
    assert layout(whole) == layout(appended(sizes, geometry))


@given(sizes=sizes, page_bytes=page_sizes)
def test_every_reader_of_the_arithmetic_layout_equals_append(sizes, page_bytes):
    geometry = PageGeometry(page_bytes)
    reference = appended(sizes, geometry)
    whole = Extent.from_records("x", geometry, range(len(sizes)), sizes)
    assert scalars(whole) == scalars(reference)  # before any span is derived
    for record_id in range(len(sizes)):
        assert whole.lookup(record_id) == reference.lookup(record_id)
        assert whole.span(record_id) == reference.span(record_id)
        assert whole.payload(record_id) == record_id
    for bad in (-1, len(sizes)):
        for read in (whole.lookup, whole.payload):
            with pytest.raises(PageOutOfRangeError):
                read(bad)
    assert list(whole.records()) == list(reference.records())
    for page in range(max(reference.n_pages, 1)):
        assert whole.records_on_page(page) == reference.records_on_page(page)
    with pytest.raises(PageOutOfRangeError):
        whole.records_on_page(max(reference.n_pages, 1))


@given(sizes=sizes, more=sizes, page_bytes=page_sizes, read_first=st.booleans())
def test_appending_to_an_arithmetic_layout_continues_it(
    sizes, more, page_bytes, read_first
):
    geometry = PageGeometry(page_bytes)
    whole = Extent.from_records("x", geometry, range(len(sizes)), sizes)
    if read_first:
        list(whole.records())
    for offset, n_bytes in enumerate(more):
        whole.append(len(sizes) + offset, n_bytes)
    assert layout(whole) == layout(appended([*sizes, *more], geometry))


@given(
    sizes=sizes,
    cut=st.integers(min_value=0),
    tail=sizes,
    page_bytes=page_sizes,
    like_page_bytes=page_sizes,
    read_first=st.booleans(),
)
def test_a_replacing_layout_shares_only_the_spans_that_did_not_move(
    sizes, cut, tail, page_bytes, like_page_bytes, read_first
):
    earlier = Extent.from_records(
        "x", PageGeometry(like_page_bytes), range(len(sizes)), sizes
    )
    if read_first:
        list(earlier.records())
    cut %= len(sizes) + 1
    new_sizes = [*sizes[:cut], *tail]
    geometry = PageGeometry(page_bytes)
    whole = Extent.from_records(
        "x", geometry, range(len(new_sizes)), new_sizes, like=earlier
    )
    assert layout(whole) == layout(appended(new_sizes, geometry))
    if read_first and like_page_bytes == page_bytes:
        old_ends = list(accumulate(sizes))
        for record_id, end in enumerate(accumulate(new_sizes)):
            if record_id >= len(sizes) or old_ends[record_id] != end:
                break  # from the first moved record on, spans are new
            assert whole.span(record_id) is earlier.span(record_id)
    else:  # nothing materialised to share, or another page size
        shared = {id(span) for span in earlier.spans()}
        assert not shared & {id(span) for span in whole.spans()}


@given(sizes=sizes, page_bytes=page_sizes)
def test_a_pickle_carries_no_spans(sizes, page_bytes):
    whole = Extent.from_records("x", PageGeometry(page_bytes), range(len(sizes)), sizes)
    fresh = pickle.dumps(whole)
    list(whole.records())
    assert pickle.dumps(whole) == fresh
    assert layout(pickle.loads(fresh)) == layout(whole)


def test_concurrent_first_reads_share_one_materialisation():
    sizes = [(record_id * 37) % 101 for record_id in range(20_000)]
    whole = Extent.from_records("x", PageGeometry(64), range(len(sizes)), sizes)
    start = threading.Barrier(4)
    seen = [None] * 4

    def read(slot):
        start.wait()
        seen[slot] = [span for span, _ in whole.records()]

    threads = [threading.Thread(target=read, args=(slot,)) for slot in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert seen[0] == [span for span, _ in appended(sizes, PageGeometry(64)).records()]
    for spans in seen[1:]:
        assert len(spans) == len(seen[0])
        assert all(mine is first for mine, first in zip(spans, seen[0]))


@given(sizes=sizes, page_bytes=page_sizes, position=st.integers(min_value=0))
def test_a_negative_size_is_refused(sizes, page_bytes, position):
    sizes = list(sizes)
    sizes.insert(position % (len(sizes) + 1), -1)
    with pytest.raises(StorageError):
        Extent.from_records("x", PageGeometry(page_bytes), range(len(sizes)), sizes)
    with pytest.raises(StorageError):
        appended(sizes, PageGeometry(page_bytes))


def test_payloads_and_sizes_must_pair_up():
    with pytest.raises(StorageError):
        Extent.from_records("x", PageGeometry(64), range(3), [1, 2])
