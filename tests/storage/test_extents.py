"""Extents: tightly-packed consecutive record layout."""

import pytest

from repro.errors import PageOutOfRangeError, StorageError
from repro.storage.extents import Extent
from repro.storage.pages import PageGeometry


def make_extent(page_bytes=100):
    return Extent("e", PageGeometry(page_bytes))


class TestAppend:
    def test_records_are_packed_back_to_back(self):
        extent = make_extent()
        s1 = extent.append("a", 60)
        s2 = extent.append("b", 60)
        assert s1.start_byte == 0
        assert s2.start_byte == 60  # no page alignment

    def test_span_pages_straddle(self):
        extent = make_extent(page_bytes=100)
        extent.append("a", 60)
        span = extent.append("b", 60)  # bytes 60..119 -> pages 0 and 1
        assert (span.first_page, span.last_page) == (0, 1)
        assert span.n_pages == 2

    def test_zero_size_record(self):
        extent = make_extent()
        span = extent.append("empty", 0)
        assert span.n_bytes == 0
        assert span.n_pages == 1  # touches the page at its offset

    def test_rejects_negative_size(self):
        with pytest.raises(StorageError):
            make_extent().append("x", -1)

    def test_rejects_empty_name(self):
        with pytest.raises(StorageError):
            Extent("")


class TestGeometry:
    def test_total_and_fractional_pages(self):
        extent = make_extent(page_bytes=100)
        extent.append("a", 150)
        extent.append("b", 100)
        assert extent.total_bytes == 250
        assert extent.fractional_pages == pytest.approx(2.5)
        assert extent.n_pages == 3

    def test_empty_extent(self):
        extent = make_extent()
        assert extent.n_pages == 0
        assert extent.fractional_pages == 0.0
        assert len(extent) == 0

    def test_tight_packing_matches_paper_d(self):
        # D = S * N for equal-size documents
        extent = make_extent(page_bytes=512)
        for i in range(40):
            extent.append(i, 128)  # S = 0.25 pages
        assert extent.fractional_pages == pytest.approx(0.25 * 40)


class TestAccess:
    def test_payload_roundtrip(self):
        extent = make_extent()
        extent.append({"id": 1}, 10)
        assert extent.payload(0) == {"id": 1}

    def test_span_lookup(self):
        extent = make_extent()
        extent.append("a", 10)
        extent.append("b", 10)
        assert extent.span(1).start_byte == 10
        assert extent.span(1).record_id == 1

    def test_out_of_range_record(self):
        extent = make_extent()
        extent.append("a", 10)
        with pytest.raises(PageOutOfRangeError):
            extent.span(1)
        with pytest.raises(PageOutOfRangeError):
            extent.payload(5)

    def test_spans_iterate_in_storage_order(self):
        extent = make_extent()
        for i in range(5):
            extent.append(i, 30)
        records = list(extent.records())
        starts = [span.start_byte for span, _ in records]
        assert starts == sorted(starts)
        assert [payload for _, payload in records] == list(range(5))

    def test_records_on_page(self):
        extent = make_extent(page_bytes=100)
        extent.append("a", 60)   # page 0
        extent.append("b", 60)   # pages 0-1
        extent.append("c", 60)   # page 1
        assert extent.records_on_page(0) == [0, 1]
        assert extent.records_on_page(1) == [1, 2]

    def test_records_on_bad_page(self):
        extent = make_extent()
        extent.append("a", 10)
        with pytest.raises(PageOutOfRangeError):
            extent.records_on_page(7)
