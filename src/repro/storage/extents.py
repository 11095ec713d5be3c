"""Extents: named, consecutively laid-out record files.

Section 3 assumes documents of a collection (and likewise the entries of
an inverted file) are "stored in consecutive storage locations" and
"tightly packed": record ``i+1`` begins at the byte where record ``i``
ends, with no page alignment.  An :class:`Extent` models one such region:
it assigns byte offsets to its records and answers which page span a
record occupies, which is all the simulated disk needs to price a read.
An extent is laid out whole by :meth:`Extent.from_records` or grown one
record at a time by :meth:`Extent.append`; both place a record the way
:func:`~repro.storage.pages.span_pages` does.

The records themselves (documents, inverted-file entries) are kept as
Python objects in the extent's payload list — the simulation never
serialises real bytes, only sizes, exactly like the paper's model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from repro.errors import PageOutOfRangeError, StorageError
from repro.storage.pages import PageGeometry, span_pages


@dataclass(slots=True)
class RecordSpan:
    """Placement of one record inside an extent (never mutated once placed)."""

    record_id: int
    start_byte: int
    n_bytes: int
    first_page: int
    last_page: int

    @property
    def n_pages(self) -> int:
        """Whole pages touched by the record."""
        return self.last_page - self.first_page + 1


class Extent:
    """A consecutive, append-only region of simulated storage.

    Parameters
    ----------
    name:
        Identifier used in per-extent I/O statistics.
    geometry:
        Page size; shared with the disk it will be attached to.
    """

    def __init__(self, name: str, geometry: PageGeometry | None = None) -> None:
        if not name:
            raise StorageError("extent name must be non-empty")
        self.name = name
        self.geometry = geometry or PageGeometry()
        self._spans: list[RecordSpan] = []
        self._payloads: list[Any] = []
        self._next_byte = 0

    # --- building -------------------------------------------------------

    @classmethod
    def from_records(
        cls,
        name: str,
        geometry: PageGeometry | None,
        records: Iterable[tuple[Any, int]],
    ) -> "Extent":
        """An extent holding ``(payload, n_bytes)`` records in order.

        The same placement as appending each record in turn, computed in
        one loop: a record covers pages ``start // P`` through
        ``(start + n_bytes - 1) // P``, and a zero-byte record the one
        page holding its offset.
        """
        extent = cls(name, geometry)
        page_bytes = extent.geometry.page_bytes
        spans = extent._spans
        payloads = extent._payloads
        start = 0
        for record_id, (payload, n_bytes) in enumerate(records):
            if n_bytes < 0:
                raise StorageError(f"record size must be non-negative, got {n_bytes}")
            first = start // page_bytes
            end = start + n_bytes
            last = (end - 1) // page_bytes if n_bytes else first
            spans.append(RecordSpan(record_id, start, n_bytes, first, last))
            payloads.append(payload)
            start = end
        extent._next_byte = start
        return extent

    def append(self, payload: Any, n_bytes: int) -> RecordSpan:
        """Append one record of ``n_bytes`` and return its placement."""
        if n_bytes < 0:
            raise StorageError(f"record size must be non-negative, got {n_bytes}")
        first, last = span_pages(self._next_byte, n_bytes, self.geometry.page_bytes)
        span = RecordSpan(
            record_id=len(self._spans),
            start_byte=self._next_byte,
            n_bytes=n_bytes,
            first_page=first,
            last_page=last,
        )
        self._spans.append(span)
        self._payloads.append(payload)
        self._next_byte += n_bytes
        return span

    # --- geometry -------------------------------------------------------

    @property
    def n_records(self) -> int:
        return len(self._spans)

    @property
    def total_bytes(self) -> int:
        return self._next_byte

    @property
    def n_pages(self) -> int:
        """Whole pages occupied by the extent (``ceil`` of the packed size)."""
        if self._next_byte == 0:
            return 0
        return (self._next_byte - 1) // self.geometry.page_bytes + 1

    @property
    def fractional_pages(self) -> float:
        """Exact packed size in pages — the paper's ``D_i`` / ``I_i``."""
        return self._next_byte / self.geometry.page_bytes

    def lookup(self, record_id: int) -> tuple[RecordSpan, Any]:
        """Placement and stored object of ``record_id``, bounds-checked once
        (a negative id must not wrap around to the extent's tail)."""
        if not 0 <= record_id < len(self._spans):
            raise PageOutOfRangeError(
                f"extent {self.name!r} has {len(self._spans)} records, "
                f"record {record_id} requested"
            )
        return self._spans[record_id], self._payloads[record_id]

    def span(self, record_id: int) -> RecordSpan:
        """Placement of record ``record_id``."""
        return self.lookup(record_id)[0]

    def payload(self, record_id: int) -> Any:
        """The stored object for ``record_id`` (no I/O accounting)."""
        return self.lookup(record_id)[1]

    def records(self) -> Iterator[tuple[RecordSpan, Any]]:
        """All ``(placement, stored object)`` pairs in storage order."""
        return zip(self._spans, self._payloads)

    def records_on_page(self, page: int) -> list[int]:
        """Record ids whose span includes ``page`` (for page-level scans)."""
        if page < 0 or page >= max(self.n_pages, 1):
            raise PageOutOfRangeError(
                f"extent {self.name!r} has {self.n_pages} pages, page {page} requested"
            )
        return [s.record_id for s in self._spans if s.first_page <= page <= s.last_page]

    def __len__(self) -> int:
        return len(self._spans)

    def __repr__(self) -> str:
        return (
            f"Extent({self.name!r}, records={self.n_records}, "
            f"pages={self.fractional_pages:.2f})"
        )
