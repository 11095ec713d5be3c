"""Inverted files: the vertical representation of a collection.

For a term ``t`` in collection ``C``, the inverted-file entry is the list
of i-cells ``(d#, w)`` — document number and occurrence count — sorted by
document number (Section 3).  Entries are stored consecutively in
increasing term-number order, which is what makes VVM's single merge scan
possible, and each i-cell occupies 5 bytes, so an inverted file has the
same total size as its collection.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.constants import I_CELL_BYTES
from repro.errors import InvertedFileError
from repro.text.collection import DocumentCollection


class InvertedEntry:
    """One term's posting list."""

    __slots__ = ("term", "postings", "_packed")

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
        #: kernel-backend pack cache: ``(backend_tag, data)`` or None
        self._packed: tuple[str, object] | None = None

    def __getstate__(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        # Pack caches are process-local; rebuilt lazily after unpickling.
        return (self.term, self.postings)

    def __setstate__(self, state: tuple[int, tuple[tuple[int, int], ...]]) -> None:
        self.term, self.postings = state
        self._packed = None

    @property
    def document_frequency(self) -> int:
        """Number of documents containing the term."""
        return len(self.postings)

    @property
    def n_bytes(self) -> int:
        """Stored size: 5 bytes per i-cell."""
        return len(self.postings) * I_CELL_BYTES

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
        previous = -1
        for entry in entries:
            if entry.term <= previous:
                raise InvertedFileError(
                    f"entries must be strictly increasing by term number; "
                    f"term {entry.term} follows {previous}"
                )
            previous = entry.term
        self.collection_name = collection_name
        self.entries: list[InvertedEntry] = entries
        self._by_term: dict[int, int] = {e.term: i for i, e in enumerate(entries)}

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


def merge_inverted_segments(
    collection_name: str,
    parts: "list[tuple[InvertedFile, Mapping[int, int]]]",
    kept: int = 0,
) -> "InvertedFile":
    """Merge per-segment inverted files into one logical inverted file.

    ``parts`` pairs each segment's inverted file (in segment order) with
    its live-document map — local doc id to merged global id, omitting
    tombstoned documents.  Because global ids are assigned in (segment,
    local) order and each map is monotone, per-term concatenation of the
    remapped postings lands sorted — the result is value-identical to
    :meth:`InvertedFile.build` over the merged live collection, which is
    what makes segmented workspaces byte-identical to a cold rebuild.

    Terms whose every posting is tombstoned vanish entirely, exactly as
    a fresh inversion would never have created them.

    The first part's documents numbered below ``kept`` map to themselves
    (its dense run up to the first tombstone).  An entry of that part
    whose postings all lie in the run, and whose term no later part
    carries, *is* the merged entry — it is passed through as the same
    object, in whatever encoding it is held, instead of being remapped
    posting by posting and validated again.
    """
    later_terms: set[int] = set()
    for inverted, _ in parts[1:]:
        later_terms.update(entry.term for entry in inverted.entries)
    shared: list[InvertedEntry] = []
    merged: dict[int, list[tuple[int, int]]] = {}
    for inverted, doc_map in parts:
        for entry in inverted.entries:
            postings = entry.postings
            if postings and postings[-1][0] < kept and entry.term not in later_terms:
                shared.append(entry)
                continue
            cells = merged.setdefault(entry.term, [])
            for doc_id, weight in postings:
                global_id = doc_map.get(doc_id)
                if global_id is not None:
                    cells.append((global_id, weight))
        kept = 0  # only the first part's documents keep their numbers
    entries = shared + [
        InvertedEntry(term, tuple(cells)) for term, cells in merged.items() if cells
    ]
    entries.sort(key=lambda entry: entry.term)
    return InvertedFile(collection_name, entries)


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
