"""The simulated disk's three access paths and their pricing."""

import pytest

from repro.errors import PageOutOfRangeError, StorageError
from repro.storage.disk import DiskChargeModel, SimulatedDisk
from repro.storage.extents import Extent
from repro.storage.iostats import IOStats
from repro.storage.pages import PageGeometry


def make_disk(page_bytes=100, charge_model=DiskChargeModel.PAPER_ALL_RANDOM):
    return SimulatedDisk(IOStats(), PageGeometry(page_bytes), charge_model)


def fill(extent, sizes):
    for i, size in enumerate(sizes):
        extent.append(f"r{i}", size)


class TestExtentRegistry:
    def test_create_and_lookup(self):
        disk = make_disk()
        extent = disk.create_extent("docs")
        assert disk.extent("docs") is extent

    def test_duplicate_name_rejected(self):
        disk = make_disk()
        disk.create_extent("docs")
        with pytest.raises(StorageError):
            disk.create_extent("docs")

    def test_unknown_extent(self):
        with pytest.raises(StorageError):
            make_disk().extent("nope")

    def test_attach_checks_page_size(self):
        disk = make_disk(page_bytes=100)
        foreign = Extent("x", PageGeometry(200))
        with pytest.raises(StorageError):
            disk.attach_extent(foreign)

    def test_attach_compatible(self):
        disk = make_disk(page_bytes=100)
        extent = Extent("x", PageGeometry(100))
        disk.attach_extent(extent)
        assert "x" in disk.extent_names


class TestSequentialScan:
    def test_full_scan_reads_each_page_once(self):
        disk = make_disk(page_bytes=100)
        extent = disk.create_extent("docs")
        fill(extent, [60] * 10)  # 600 bytes = 6 pages
        list(disk.scan_records(extent))
        assert disk.stats.sequential_reads == 6
        assert disk.stats.random_reads == 0

    def test_scan_yields_all_records_in_order(self):
        disk = make_disk()
        extent = disk.create_extent("docs")
        fill(extent, [10, 20, 30])
        got = [payload for _, payload in disk.scan_records(extent)]
        assert got == ["r0", "r1", "r2"]

    def test_two_scans_charge_twice(self):
        disk = make_disk(page_bytes=100)
        extent = disk.create_extent("docs")
        fill(extent, [100] * 4)
        list(disk.scan_records(extent))
        list(disk.scan_records(extent))
        assert disk.stats.sequential_reads == 8

    def test_scan_pages_shortcut(self):
        disk = make_disk(page_bytes=100)
        extent = disk.create_extent("docs")
        fill(extent, [250])
        assert disk.scan_pages(extent) == 3
        assert disk.stats.sequential_reads == 3

    def test_scan_pages_empty_extent(self):
        disk = make_disk()
        extent = disk.create_extent("docs")
        assert disk.scan_pages(extent) == 0
        assert disk.stats.total_reads == 0


class TestInterferenceScan:
    def test_small_docs_every_page_random(self):
        # sub-page documents: min(D, N) = D random reads
        disk = make_disk(page_bytes=100)
        extent = disk.create_extent("docs")
        fill(extent, [50] * 8)  # 400 bytes = 4 pages, 2 docs per page
        list(disk.scan_records(extent, interference=True))
        assert disk.stats.random_reads == 4  # == D
        assert disk.stats.sequential_reads == 0

    def test_large_docs_one_seek_per_doc(self):
        # multi-page documents: min(D, N) = N random reads
        disk = make_disk(page_bytes=100)
        extent = disk.create_extent("docs")
        fill(extent, [300] * 5)  # 3 pages per doc
        list(disk.scan_records(extent, interference=True))
        assert disk.stats.random_reads == 5  # == N
        assert disk.stats.sequential_reads == 15 - 5

    def test_total_transfer_equals_extent_pages(self):
        disk = make_disk(page_bytes=100)
        extent = disk.create_extent("docs")
        fill(extent, [70, 140, 20, 260, 90])
        list(disk.scan_records(extent, interference=True))
        assert disk.stats.total_reads == extent.n_pages

    def test_scan_pages_with_interference(self):
        disk = make_disk(page_bytes=100)
        extent = disk.create_extent("docs")
        fill(extent, [100] * 5)
        disk.scan_pages(extent, interference=True)
        assert disk.stats.random_reads == 1
        assert disk.stats.sequential_reads == 4


class TestRandomRead:
    def test_paper_model_charges_all_pages_random(self):
        disk = make_disk(page_bytes=100)
        extent = disk.create_extent("docs")
        fill(extent, [250])
        disk.read_record(extent, 0)
        assert disk.stats.random_reads == 3
        assert disk.stats.sequential_reads == 0

    def test_seek_model_charges_first_page_only(self):
        disk = make_disk(page_bytes=100, charge_model=DiskChargeModel.FIRST_PAGE_SEEK)
        extent = disk.create_extent("docs")
        fill(extent, [250])
        disk.read_record(extent, 0)
        assert disk.stats.random_reads == 1
        assert disk.stats.sequential_reads == 2

    def test_returns_payload(self):
        disk = make_disk()
        extent = disk.create_extent("docs")
        fill(extent, [10, 10])
        assert disk.read_record(extent, 1) == "r1"

    def test_straddling_record_reads_both_pages(self):
        disk = make_disk(page_bytes=100)
        extent = disk.create_extent("docs")
        fill(extent, [60, 60])  # record 1 straddles pages 0-1
        disk.read_record(extent, 1)
        assert disk.stats.random_reads == 2


class TestReadRun:
    def test_run_is_one_seek_plus_stream(self):
        disk = make_disk(page_bytes=100)
        extent = disk.create_extent("docs")
        fill(extent, [100] * 10)
        payloads = disk.read_run(extent, 2, 4)
        assert payloads == ["r2", "r3", "r4", "r5"]
        assert disk.stats.random_reads == 1
        assert disk.stats.sequential_reads == 3

    def test_rejects_empty_run(self):
        disk = make_disk()
        extent = disk.create_extent("docs")
        fill(extent, [10])
        with pytest.raises(StorageError):
            disk.read_run(extent, 0, 0)


class TestNegativeRecordId:
    """A negative id must raise, not wrap to the extent's last record."""

    @pytest.mark.parametrize(
        "read",
        [
            lambda disk, extent: disk.read_record(extent, -1),
            lambda disk, extent: disk.read_run(extent, -1, 1),
            lambda disk, extent: disk.read_run(extent, -1, 2),
            lambda disk, extent: extent.payload(-1),
            lambda disk, extent: extent.span(-2),
        ],
        ids=["read_record", "read_run", "read_run-into-range", "payload", "span"],
    )
    def test_raises_and_charges_nothing(self, read):
        disk = make_disk(page_bytes=100)
        extent = disk.create_extent("docs")
        fill(extent, [10, 150])
        with pytest.raises(PageOutOfRangeError):
            read(disk, extent)
        assert disk.stats == IOStats()

    def test_lookup_returns_placement_and_payload_together(self):
        disk = make_disk(page_bytes=100)
        extent = disk.create_extent("docs")
        fill(extent, [10, 150])
        span, payload = extent.lookup(1)
        assert (span, payload) == (extent.span(1), "r1")


class TestTrailingEmptyRecord:
    """An empty record at the end of a page-aligned extent sits on page
    ``n_pages``, which holds nothing: no read path may charge it."""

    def test_full_scan_charges_exactly_n_pages(self):
        disk = make_disk(page_bytes=100)
        extent = disk.create_extent("docs")
        fill(extent, [100, 0])
        assert [payload for _, payload in disk.scan_records(extent)] == ["r0", "r1"]
        assert extent.n_pages == 1
        assert disk.stats.by_extent == {"docs": (1, 0)}

    @pytest.mark.parametrize("interference", [False, True])
    def test_an_extent_of_empty_records_charges_nothing(self, interference):
        disk = make_disk(page_bytes=100)
        extent = disk.create_extent("docs")
        fill(extent, [0, 0, 0])
        assert len(list(disk.scan_records(extent, interference=interference))) == 3
        assert extent.n_pages == 0
        assert disk.stats == IOStats()

    def test_interference_scan_charges_no_extra_seek(self):
        disk = make_disk(page_bytes=100)
        extent = disk.create_extent("docs")
        fill(extent, [60, 140, 0, 0])
        list(disk.scan_records(extent, interference=True))
        assert disk.stats.by_extent == {"docs": (0, 2)}

    @pytest.mark.parametrize("model", list(DiskChargeModel))
    def test_read_record_charges_nothing(self, model):
        disk = make_disk(page_bytes=100, charge_model=model)
        extent = disk.create_extent("docs")
        fill(extent, [100, 0])
        assert disk.read_record(extent, 1) == "r1"
        assert disk.stats == IOStats()

    def test_read_run_stops_at_the_last_page(self):
        disk = make_disk(page_bytes=100)
        extent = disk.create_extent("docs")
        fill(extent, [100, 100, 0])
        assert disk.read_run(extent, 1, 2) == ["r1", "r2"]
        assert disk.stats.by_extent == {"docs": (0, 1)}
        assert disk.read_run(extent, 2, 1) == ["r2"]
        assert disk.stats.by_extent == {"docs": (0, 1)}

    def test_mid_extent_empty_records_charge_as_before(self):
        disk = make_disk(page_bytes=100)
        extent = disk.create_extent("docs")
        fill(extent, [100, 0, 0, 50])  # the empty records sit on page 1
        list(disk.scan_records(extent, interference=True))
        assert disk.stats.by_extent == {"docs": (0, 2)}
        disk.read_record(extent, 1)
        assert disk.stats.by_extent == {"docs": (0, 3)}
        disk.read_run(extent, 0, 2)
        assert disk.stats.by_extent == {"docs": (1, 4)}
