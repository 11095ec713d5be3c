"""Extents: named, consecutively laid-out record files.

Section 3 assumes documents of a collection (and likewise the entries of
an inverted file) are "stored in consecutive storage locations" and
"tightly packed": record ``i+1`` begins at the byte where record ``i``
ends, with no page alignment.  An :class:`Extent` models one such region:
it assigns byte offsets to its records and answers which page span a
record occupies, which is all the simulated disk needs to price a read.

A record's place is a running sum of sizes, so :meth:`Extent.from_records`
lays an extent out by arithmetic alone: it keeps the running byte offsets
and builds no object per record.  The :class:`RecordSpan` of every record
is derived from those offsets the first time any span is read, once per
extent (under a lock, so concurrent first readers get the same spans), and
later reads index the materialised list — operators on a warm factory pay
nothing.  An extent laid out to replace another (the next snapshot's, after
a mutation) reuses the spans of the leading records whose place did not
move, so a one-record insert derives one new span.  :meth:`Extent.append`
grows an extent one record at a time; both place a record the way
:func:`~repro.storage.pages.span_pages` does.

The records themselves (documents, inverted-file entries) are kept as
Python objects in the extent's payload list — the simulation never
serialises real bytes, only sizes, exactly like the paper's model.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import accumulate
from operator import sub
from typing import Any, Iterable, Iterator, Sequence

from repro.errors import PageOutOfRangeError, StorageError
from repro.storage.pages import PageGeometry, span_pages

#: serialises the one-time span materialisation of every extent
_PLACING = threading.Lock()


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


def _layout(
    offsets: list[int],
    page_bytes: int,
    earlier: tuple[list[int], list[RecordSpan]] | None = None,
) -> list[RecordSpan]:
    """Every record's span from the running offsets: a record covers pages
    ``start // P`` through ``(end - 1) // P``, a zero-byte record the one
    page holding its offset.

    ``earlier`` is the ``(offsets, spans)`` of a layout these records
    replace: its leading records whose offsets did not move keep their
    span objects, so only the records from the first moved one are placed.
    """
    kept = 0
    spans: list[RecordSpan] = []
    if earlier is not None:
        old_offsets, old_spans = earlier
        same = next(
            (i for i, (new, old) in enumerate(zip(offsets, old_offsets)) if new != old),
            min(len(offsets), len(old_offsets)),
        )
        kept = max(same - 1, 0)
        spans = old_spans[:kept]
    starts, ends = offsets[kept:-1], offsets[kept + 1 :]
    firsts = [start // page_bytes for start in starts]
    lasts = [
        (end - 1) // page_bytes if end > start else first
        for start, end, first in zip(starts, ends, firsts)
    ]
    spans.extend(
        map(
            RecordSpan,
            range(kept, kept + len(starts)),
            starts,
            map(sub, ends, starts),
            firsts,
            lasts,
        )
    )
    return spans


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
        #: running byte offsets: record ``i`` holds bytes ``offsets[i]`` up
        #: to ``offsets[i + 1]``
        self._offsets: list[int] = [0]
        self._payloads: list[Any] = []
        #: every record's span, derived from the offsets on first read
        self._spans: list[RecordSpan] | None = None
        #: ``(offsets, spans)`` of the materialised layout this one replaces
        self._earlier: tuple[list[int], list[RecordSpan]] | None = None

    def __getstate__(self) -> dict[str, Any]:
        # Spans are derived, never shipped: a pickle is the same before and
        # after the extent's first read.
        return {**self.__dict__, "_spans": None, "_earlier": None}

    # --- building -------------------------------------------------------

    @classmethod
    def from_records(
        cls,
        name: str,
        geometry: PageGeometry | None,
        payloads: Sequence[Any],
        sizes: Iterable[int],
        *,
        like: Extent | None = None,
    ) -> "Extent":
        """An extent holding ``payloads`` in order, record ``i`` of ``sizes[i]``
        bytes.

        The same placement as appending each record in turn, computed as
        a running sum of the sizes; no span is built until one is read.
        ``like`` is an extent these records replace (the same extent of the
        snapshot before a mutation): if its spans were read, the leading
        records whose place did not move share them.
        """
        extent = cls(name, geometry)
        sizes = list(sizes)
        if len(sizes) != len(payloads):
            raise StorageError(
                f"extent {name!r} has {len(payloads)} records but {len(sizes)} sizes"
            )
        smallest = min(sizes, default=0)
        if smallest < 0:
            raise StorageError(f"record size must be non-negative, got {smallest}")
        extent._payloads = list(payloads)
        extent._offsets = [0, *accumulate(sizes)]
        if like is not None and like._spans is not None:
            if like.geometry == extent.geometry:
                extent._earlier = (like._offsets, like._spans)
        return extent

    def append(self, payload: Any, n_bytes: int) -> RecordSpan:
        """Append one record of ``n_bytes`` and return its placement."""
        if n_bytes < 0:
            raise StorageError(f"record size must be non-negative, got {n_bytes}")
        spans = self.spans()
        start = self._offsets[-1]
        first, last = span_pages(start, n_bytes, self.geometry.page_bytes)
        span = RecordSpan(len(spans), start, n_bytes, first, last)
        spans.append(span)
        self._payloads.append(payload)
        self._offsets.append(start + n_bytes)
        return span

    def spans(self) -> list[RecordSpan]:
        """Every record's span in storage order (read-only), derived from
        the offsets on the first call and materialised once."""
        spans = self._spans
        if spans is None:
            with _PLACING:
                spans = self._spans
                if spans is None:
                    spans = self._spans = _layout(
                        self._offsets, self.geometry.page_bytes, self._earlier
                    )
                    self._earlier = None
        return spans

    # --- geometry -------------------------------------------------------

    @property
    def n_records(self) -> int:
        return len(self._payloads)

    @property
    def total_bytes(self) -> int:
        return self._offsets[-1]

    @property
    def n_pages(self) -> int:
        """Whole pages occupied by the extent (``ceil`` of the packed size)."""
        total = self._offsets[-1]
        return (total - 1) // self.geometry.page_bytes + 1 if total else 0

    @property
    def fractional_pages(self) -> float:
        """Exact packed size in pages — the paper's ``D_i`` / ``I_i``."""
        return self.total_bytes / self.geometry.page_bytes

    def lookup(self, record_id: int) -> tuple[RecordSpan, Any]:
        """Placement and stored object of ``record_id``, bounds-checked once
        (a negative id must not wrap around to the extent's tail)."""
        if not 0 <= record_id < len(self._payloads):
            raise PageOutOfRangeError(
                f"extent {self.name!r} has {len(self._payloads)} records, "
                f"record {record_id} requested"
            )
        spans = self._spans or self.spans()  # the warm read is one load
        return spans[record_id], self._payloads[record_id]

    def span(self, record_id: int) -> RecordSpan:
        """Placement of record ``record_id``."""
        return self.lookup(record_id)[0]

    def payload(self, record_id: int) -> Any:
        """The stored object for ``record_id`` (no I/O accounting)."""
        return self.lookup(record_id)[1]

    def records(self) -> Iterator[tuple[RecordSpan, Any]]:
        """All ``(placement, stored object)`` pairs in storage order."""
        return zip(self.spans(), self._payloads)

    def records_on_page(self, page: int) -> list[int]:
        """Record ids whose span includes ``page`` (for page-level scans)."""
        if page < 0 or page >= max(self.n_pages, 1):
            raise PageOutOfRangeError(
                f"extent {self.name!r} has {self.n_pages} pages, page {page} requested"
            )
        return [
            s.record_id for s in self.spans() if s.first_page <= page <= s.last_page
        ]

    def __len__(self) -> int:
        return len(self._payloads)

    def __repr__(self) -> str:
        return (
            f"Extent({self.name!r}, records={self.n_records}, "
            f"pages={self.fractional_pages:.2f})"
        )
