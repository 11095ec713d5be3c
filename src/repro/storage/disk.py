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
from typing import TYPE_CHECKING, Any, ContextManager, Iterable, Iterator, Sequence

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

    def scan_charges(
        self, extent: Extent, *, interference: bool = False
    ) -> Iterator[tuple[RecordSpan, Any, int, int]]:
        """Every record in storage order with the ``(sequential, random)``
        pages a scan charges on reaching it, uncharged (``(0, 0)`` when
        all its pages were read).

        A full pass prices exactly ``extent.n_pages`` pages.  Without
        interference all of them are sequential.  With interference the
        first page newly read for each record is random (the drive served
        another job while the previous record was processed), reproducing
        the paper's ``min(D, N)`` random reads per scan.
        """
        read_through = -1  # highest page already transferred this pass
        for span, payload in extent.records():
            sequential = random = 0
            if span.last_page > read_through:
                sequential, random, read_through = _price(
                    extent, span.first_page, span.last_page, read_through, interference
                )
            yield span, payload, sequential, random

    def scan_records(
        self, extent: Extent, *, interference: bool = False
    ) -> Iterator[tuple[RecordSpan, Any]]:
        """Yield every record in storage order, charging what :meth:`scan_charges`
        prices (the same walk and pricing, without a generator per record)."""
        read_through = -1
        for span, payload in extent.records():
            if span.last_page > read_through:
                sequential, random, read_through = _price(
                    extent, span.first_page, span.last_page, read_through, interference
                )
                if sequential or random:
                    self.stats.record(extent.name, sequential=sequential, random=random)
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

    def read_runs(
        self, extent: Extent, runs: Iterable[Sequence[int]], *, interference: bool
    ) -> Iterator[list[Any]]:
        """Per pull, one run of ascending record ids: read through from its
        first record to its last, charged for the pages no earlier run
        read (priced as :meth:`scan_charges` prices a record: one seek
        under interference), yielding the run's own payloads."""
        read_through = -1
        for run in runs:
            if not run:
                raise StorageError("a run needs at least one record")
            first, last = extent.span(run[0]), extent.span(run[-1])
            sequential, random, read_through = _price(
                extent, first.first_page, last.last_page, read_through, interference
            )
            if sequential or random:
                self.stats.record(extent.name, sequential=sequential, random=random)
            yield [extent.payload(record_id) for record_id in run]

    def __repr__(self) -> str:
        return f"SimulatedDisk(extents={sorted(self._extents)}, {self.stats})"


def _price(
    extent: Extent, first: int, last: int, read_through: int, interference: bool
) -> tuple[int, int, int]:
    """``(sequential, random, read_through)`` of reading pages ``first`` to
    ``last`` after pages up to ``read_through``: the pages not read yet and
    inside the extent, the first random under interference."""
    last = min(last, extent.n_pages - 1)
    new_pages = last - max(first, read_through + 1) + 1
    if new_pages <= 0:
        return 0, 0, read_through
    return (new_pages - 1, 1, last) if interference else (new_pages, 0, last)
