"""Inverted files: the vertical representation of a collection.

For a term ``t`` in collection ``C``, the inverted-file entry is the list
of i-cells ``(d#, w)`` — document number and occurrence count — sorted by
document number (Section 3).  Entries are stored consecutively in
increasing term-number order, which is what makes VVM's single merge scan
possible, and each i-cell occupies 5 bytes, so an inverted file has the
same total size as its collection.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import islice
from operator import lt
from typing import Iterator, Mapping, Sequence

from repro.constants import I_CELL_BYTES
from repro.errors import InvertedFileError
from repro.index.bptree import BPlusTree
from repro.text.collection import DocumentCollection


class InvertedEntry:
    """One term's posting list."""

    __slots__ = ("term", "postings", "n_bytes", "_packed")

    def __init__(self, term: int, postings: tuple[tuple[int, int], ...]) -> None:
        if term < 0:
            raise InvertedFileError(f"term number must be non-negative, got {term}")
        previous = -1
        for doc_id, weight in postings:
            if doc_id <= previous:
                raise InvertedFileError(
                    f"i-cells must be strictly increasing by document number; "
                    f"doc {doc_id} follows {previous} in entry for term {term}"
                )
            if weight <= 0:
                raise InvertedFileError(
                    f"occurrence count must be positive, got {weight} "
                    f"for doc {doc_id} in entry for term {term}"
                )
            previous = doc_id
        self.term = term
        self.postings = postings
        #: stored size: 5 bytes per i-cell (a plain attribute, so laying an
        #: extent out reads it without a call per record)
        self.n_bytes = len(postings) * I_CELL_BYTES
        #: kernel-backend pack cache: ``(backend_tag, data)`` or None
        self._packed: tuple[str, object] | None = None

    def __getstate__(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        # Pack caches are process-local; rebuilt lazily after unpickling.
        return (self.term, self.postings)

    def __setstate__(self, state: tuple[int, tuple[tuple[int, int], ...]]) -> None:
        self.term, self.postings = state
        self.n_bytes = len(self.postings) * I_CELL_BYTES
        self._packed = None

    @property
    def document_frequency(self) -> int:
        """Number of documents containing the term."""
        return len(self.postings)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.postings)

    def __len__(self) -> int:
        return len(self.postings)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InvertedEntry):
            return NotImplemented
        return self.term == other.term and self.postings == other.postings

    def __repr__(self) -> str:
        return f"InvertedEntry(term={self.term}, df={self.document_frequency})"


class InvertedFile:
    """All entries of one collection, in increasing term-number order."""

    def __init__(self, collection_name: str, entries: list[InvertedEntry]) -> None:
        terms = [entry.term for entry in entries]
        if not all(map(lt, terms, islice(terms, 1, None))):
            previous, term = next(
                pair for pair in zip(terms, islice(terms, 1, None)) if pair[0] >= pair[1]
            )
            raise InvertedFileError(
                f"entries must be strictly increasing by term number; "
                f"term {term} follows {previous}"
            )
        self.collection_name = collection_name
        self.entries: list[InvertedEntry] = entries
        self._by_term: dict[int, int] = dict(zip(terms, range(len(terms))))

    @classmethod
    def build(cls, collection: DocumentCollection) -> "InvertedFile":
        """Invert a collection: transpose d-cells into i-cells.

        Single pass over the documents; postings come out sorted by
        document number because documents are visited in storage order.
        """
        postings: dict[int, list[tuple[int, int]]] = {}
        for doc in collection:
            for term, weight in doc.cells:
                postings.setdefault(term, []).append((doc.doc_id, weight))
        entries = [InvertedEntry(term, tuple(cells)) for term, cells in sorted(postings.items())]
        return cls(collection.name, entries)

    # --- lookups -----------------------------------------------------------

    def entry(self, term: int) -> InvertedEntry:
        """The posting list for ``term``; raises if the term is absent."""
        index = self._by_term.get(term)
        if index is None:
            raise InvertedFileError(
                f"collection {self.collection_name!r} has no entry for term {term}"
            )
        return self.entries[index]

    def get(self, term: int) -> InvertedEntry | None:
        """The entry for ``term`` or ``None``."""
        index = self._by_term.get(term)
        return None if index is None else self.entries[index]

    def __contains__(self, term: int) -> bool:
        return term in self._by_term

    def entry_index(self, term: int) -> int:
        """Storage position (record id) of the entry for ``term``."""
        index = self._by_term.get(term)
        if index is None:
            raise InvertedFileError(
                f"collection {self.collection_name!r} has no entry for term {term}"
            )
        return index

    # --- statistics ----------------------------------------------------------

    @property
    def n_terms(self) -> int:
        """``T`` — number of distinct terms (= number of entries)."""
        return len(self.entries)

    @property
    def total_bytes(self) -> int:
        """Packed size; equals the collection's packed size by construction."""
        return sum(entry.n_bytes for entry in self.entries)

    def document_frequencies(self) -> dict[int, int]:
        """``{term: document frequency}`` for every entry."""
        return {entry.term: entry.document_frequency for entry in self.entries}

    def verify_against(self, collection: DocumentCollection) -> None:
        """Check the transpose invariant against the source collection.

        Every d-cell ``(t, w)`` of document ``d`` must appear as i-cell
        ``(d, w)`` in the entry for ``t`` and vice versa.  Used by tests
        and by :func:`repro.experiments.validate` sanity passes.
        """
        cells_from_docs = {
            (term, doc.doc_id, weight) for doc in collection for term, weight in doc.cells
        }
        cells_from_index = {
            (entry.term, doc_id, weight)
            for entry in self.entries
            for doc_id, weight in entry.postings
        }
        if cells_from_docs != cells_from_index:
            missing = cells_from_docs - cells_from_index
            extra = cells_from_index - cells_from_docs
            raise InvertedFileError(
                f"inverted file does not match collection: "
                f"{len(missing)} cells missing, {len(extra)} cells extra"
            )

    def __iter__(self) -> Iterator[InvertedEntry]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"InvertedFile({self.collection_name!r}, terms={self.n_terms})"


def bulk_load_terms(frequencies: Mapping[int, int], order: int) -> BPlusTree:
    """The term tree ``term -> (record id, document frequency)`` of an
    inverted file, bulk-loaded once from its ``{term: df}`` columns
    (:meth:`InvertedFile.document_frequencies`: in term order, so a term's
    record id is its position)."""
    return BPlusTree.from_sorted(
        list(frequencies), list(enumerate(frequencies.values())), order=order
    )


def renumber_entries(
    entries: Sequence[InvertedEntry], doc_map: Mapping[int, int], kept: int
) -> list[InvertedEntry]:
    """One segment's entries with its tombstones applied.

    ``doc_map`` maps each live local document to its folded number and
    omits tombstoned ones.  Documents numbered below ``kept`` map to
    themselves (the dense run up to the first tombstone), so an entry
    whose postings all lie in that run *is* its folded entry — it is
    passed through as the same object, in whatever encoding it is held,
    instead of being remapped posting by posting and validated again.
    Terms whose every posting is tombstoned vanish entirely, exactly as a
    fresh inversion would never have created them.
    """
    folded = []
    for entry in entries:
        postings = entry.postings
        if postings and postings[-1][0] < kept:
            folded.append(entry)
            continue
        cells = tuple(
            (doc_map[doc_id], weight) for doc_id, weight in postings if doc_id in doc_map
        )
        if cells:
            folded.append(InvertedEntry(entry.term, cells))
    return folded


def merge_inverted_segments(
    entries: Sequence[InvertedEntry],
    frequencies: Mapping[int, int],
    appended: Mapping[int, list[tuple[int, int]]],
) -> tuple[list[InvertedEntry], dict[int, int]]:
    """Merge later documents into a folded inverted file by concatenation.

    ``entries`` (in term order) and ``frequencies`` (``{term: df}`` in the
    same order) are the fold so far; ``appended`` maps a term to the
    ``(doc#, w)`` i-cells of documents numbered after every document the
    fold holds.  So each touched entry's postings are its old run plus the
    new cells, already sorted, and a new term is inserted at its place —
    value-identical to :meth:`InvertedFile.build` over the concatenated
    collection, which is what makes segmented workspaces byte-identical to
    a cold rebuild.  Entries no new cell touches are the same objects.
    Returns the merged entries and their ``{term: df}`` columns.
    """
    entries = list(entries)
    terms = list(frequencies)
    counts = list(frequencies.values())
    index = 0
    for term in sorted(appended):
        cells = tuple(appended[term])
        index = bisect_left(terms, term, index)
        if index < len(terms) and terms[index] == term:
            entries[index] = InvertedEntry(term, entries[index].postings + cells)
            counts[index] += len(cells)
        else:
            entries.insert(index, InvertedEntry(term, cells))
            terms.insert(index, term)
            counts.insert(index, len(cells))
    return entries, dict(zip(terms, counts))


def merge_join_entries(
    entry1: InvertedEntry | None, entry2: InvertedEntry | None
) -> Iterator[tuple[int, int, int, int]]:
    """Cross the postings of two same-term entries.

    Yields ``(doc1, w1, doc2, w2)`` for every pair — VVM's similarity
    accumulation step.  Either entry may be ``None`` (term absent from
    one collection), producing nothing.
    """
    if entry1 is None or entry2 is None:
        return
    for doc1, w1 in entry1.postings:
        for doc2, w2 in entry2.postings:
            yield doc1, w1, doc2, w2
