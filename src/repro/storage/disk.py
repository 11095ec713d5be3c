"""The simulated disk: classifies every page read as sequential or random.

The paper (Section 3) prices I/O as follows:

* scanning an extent in storage order costs one *sequential* read per
  page — ``D_i`` reads for a whole collection;
* fetching one record in random order transfers the whole pages its span
  touches and, in the paper's approximation, *every* such page is charged
  the random-read ratio ``alpha`` (e.g. the ``T_2 * q * ceil(J_1) * alpha``
  term of ``hvs``);
* a scan that is *interrupted* between records (the worst-case
  "interference" scenario of Section 5.1, where the device serves other
  jobs while the CPU computes) pays one extra seek per resumption: the
  first newly-read page of each record becomes random, which yields the
  paper's ``min(D_1, N_1)`` random reads per scan.

:class:`SimulatedDisk` implements exactly those three access paths.
Writes are never charged: the algorithms under study are read-only over
their inputs and the paper does not cost result output.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, ContextManager, Iterator

from repro.errors import StorageError
from repro.storage.extents import Extent, RecordSpan
from repro.storage.iostats import IOStats
from repro.storage.pages import PageGeometry

if TYPE_CHECKING:  # avoid a storage <-> exec import cycle at runtime
    from repro.exec.context import ExecutionContext


class DiskChargeModel(enum.Enum):
    """How the pages of one randomly-fetched record are priced."""

    #: The paper's approximation: every page of a random fetch is a random
    #: read (``ceil(J_1) * alpha`` per inverted-file entry).
    PAPER_ALL_RANDOM = "paper-all-random"

    #: A more physical model: the fetch seeks once (first page random) and
    #: streams the rest (sequential).  Used by ablations only.
    FIRST_PAGE_SEEK = "first-page-seek"


class SimulatedDisk:
    """Owns extents and charges their reads into an :class:`IOStats`.

    Each extent behaves as if on a dedicated drive (the paper's stated
    assumption for the sequential-cost formulas), so scans of different
    extents never disturb each other's head position.
    """

    def __init__(
        self,
        stats: IOStats | None = None,
        geometry: PageGeometry | None = None,
        charge_model: DiskChargeModel = DiskChargeModel.PAPER_ALL_RANDOM,
    ) -> None:
        self.stats = stats if stats is not None else IOStats()
        self.geometry = geometry or PageGeometry()
        self.charge_model = charge_model
        self._extents: dict[str, Extent] = {}

    # --- extent registry --------------------------------------------------

    def create_extent(self, name: str) -> Extent:
        """Create and register an empty extent with this disk's geometry."""
        if name in self._extents:
            raise StorageError(f"extent {name!r} already exists")
        extent = Extent(name, self.geometry)
        self._extents[name] = extent
        return extent

    def attach_extent(self, extent: Extent) -> Extent:
        """Register an extent built elsewhere; page size must match."""
        if extent.name in self._extents:
            raise StorageError(f"extent {extent.name!r} already exists")
        if extent.geometry.page_bytes != self.geometry.page_bytes:
            raise StorageError(
                f"extent {extent.name!r} has page size {extent.geometry.page_bytes}, "
                f"disk uses {self.geometry.page_bytes}"
            )
        self._extents[extent.name] = extent
        return extent

    def extent(self, name: str) -> Extent:
        """Look an extent up by name; raises for unknown names."""
        try:
            return self._extents[name]
        except KeyError:
            raise StorageError(f"no extent named {name!r}") from None

    @property
    def extent_names(self) -> list[str]:
        return list(self._extents)

    # --- execution scoping --------------------------------------------------

    def execution_scope(self, context: "ExecutionContext") -> ContextManager:
        """Guard this disk's stats with an execution context.

        While the returned scope is open every :meth:`IOStats.record` on
        this disk flows through the context's budget observer, so a page
        budget aborts the read that crosses it (with the partial stats
        attached to the raised
        :class:`~repro.errors.BudgetExceededError`).  The ``iter_*``
        operators open exactly one scope per run.
        """
        return context.guard(self.stats)

    # --- read paths ---------------------------------------------------------

    def scan_records(
        self, extent: Extent, *, interference: bool = False
    ) -> Iterator[tuple[RecordSpan, Any]]:
        """Yield every record in storage order, charging each page once.

        A full pass transfers exactly ``extent.n_pages`` pages.  Without
        interference all of them are sequential.  With interference the
        first page newly read for each record is random (the drive served
        another job while the previous record was processed), reproducing
        the paper's ``min(D, N)`` random reads per scan.
        """
        n_pages = extent.n_pages
        pages_read_through = -1  # highest page already transferred this pass
        for span, payload in extent.records():
            last_page = span.last_page
            # A trailing empty record sits on page n_pages, which holds nothing.
            if pages_read_through < last_page < n_pages:
                new_pages = last_page - max(span.first_page, pages_read_through + 1) + 1
                if interference:
                    self.stats.record(extent.name, random=1, sequential=new_pages - 1)
                else:
                    self.stats.record(extent.name, sequential=new_pages)
                pages_read_through = last_page
            yield span, payload

    def scan_pages(self, extent: Extent, *, interference: bool = False) -> int:
        """Charge a full sequential pass without yielding records.

        Returns the number of pages transferred.  ``interference`` makes
        the first page of the pass random (one seek to position the head).
        """
        n = extent.n_pages
        if n == 0:
            return 0
        if interference:
            self.stats.record(extent.name, random=1, sequential=n - 1)
        else:
            self.stats.record(extent.name, sequential=n)
        return n

    def fetch(self, extent: Extent, record_id: int) -> tuple[Any, int, int]:
        """``(payload, sequential, random)``: the pages :meth:`read_record`
        charges for this record under :attr:`charge_model`, not charged
        (``(0, 0)`` for a trailing empty record)."""
        span, payload = extent.lookup(record_id)
        n = min(span.last_page, extent.n_pages - 1) - span.first_page + 1
        if n <= 0:
            return payload, 0, 0
        if self.charge_model is DiskChargeModel.PAPER_ALL_RANDOM:
            return payload, 0, n
        return payload, n - 1, 1

    def read_record(self, extent: Extent, record_id: int) -> Any:
        """Fetch one record in random order, charge it, return its payload."""
        payload, sequential, random = self.fetch(extent, record_id)
        if sequential or random:
            self.stats.record(extent.name, sequential=sequential, random=random)
        return payload

    def read_run(self, extent: Extent, first_record: int, n_records: int) -> list[Any]:
        """Fetch ``n_records`` consecutive records with one seek.

        Models reading a block of documents that are adjacent in storage:
        one random read to position, then sequential streaming.  Used by
        executors that read the outer collection in chunks after a
        selection has been applied.
        """
        if n_records <= 0:
            raise StorageError(f"n_records must be positive, got {n_records}")
        first_span = extent.span(first_record)
        last_span = extent.span(first_record + n_records - 1)
        last_page = min(last_span.last_page, extent.n_pages - 1)
        n_pages = last_page - first_span.first_page + 1
        if n_pages > 0:
            self.stats.record(extent.name, random=1, sequential=n_pages - 1)
        return [extent.payload(r) for r in range(first_record, first_record + n_records)]

    def __repr__(self) -> str:
        return f"SimulatedDisk(extents={sorted(self._extents)}, {self.stats})"
