"""Document collections and their derived statistics.

A :class:`DocumentCollection` is the horizontal (row-wise) form of the
paper's document-term matrix: documents in storage order, numbered
``0 .. N-1``.  It computes every collection statistic the cost model
consumes (``N``, ``K``, ``T``, document frequencies) and lays itself out
on a simulated disk as a tightly-packed extent.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Sequence

from repro.constants import D_CELL_BYTES
from repro.errors import DocumentFormatError
from repro.text.document import Document
from repro.text.tokenizer import Tokenizer
from repro.text.vocabulary import Vocabulary


class DocumentCollection:
    """An ordered, immutable set of documents sharing one term numbering.

    ``doc_id`` of the *i*-th document must equal *i*: the storage layout,
    the inverted file and the join algorithms all identify a document by
    its position in storage order.
    """

    def __init__(
        self,
        name: str,
        documents: Sequence[Document],
        *,
        document_frequency: dict[int, int] | None = None,
        total_cells: int | None = None,
    ) -> None:
        """``document_frequency`` and ``total_cells``, when the caller
        already knows them (a workspace fold derives them from its parts),
        spare the first walk over every document; they must be exact."""
        if not name:
            raise DocumentFormatError("collection name must be non-empty")
        self.name = name
        self.documents: tuple[Document, ...] = tuple(documents)
        for position, doc in enumerate(self.documents):
            if doc.doc_id != position:
                raise DocumentFormatError(
                    f"document at position {position} has doc_id {doc.doc_id}; "
                    f"ids must equal storage positions"
                )
        self._document_frequency = document_frequency
        self._total_cells = total_cells

    # --- constructors -------------------------------------------------------

    @classmethod
    def from_term_lists(cls, name: str, term_lists: Iterable[Iterable[int]]) -> "DocumentCollection":
        """Build from raw term-number sequences (occurrences are counted)."""
        docs = [Document.from_terms(i, terms) for i, terms in enumerate(term_lists)]
        return cls(name, docs)

    @classmethod
    def from_texts(
        cls,
        name: str,
        texts: Iterable[str],
        vocabulary: Vocabulary,
        tokenizer: Tokenizer | None = None,
    ) -> "DocumentCollection":
        """Tokenize raw prose against a shared (standard) vocabulary."""
        tokenizer = tokenizer or Tokenizer()
        term_lists = (vocabulary.add_all(tokenizer.tokenize(text)) for text in texts)
        return cls.from_term_lists(name, term_lists)

    # --- statistics (the cost model's inputs) ----------------------------------

    @property
    def n_documents(self) -> int:
        """``N`` — number of documents."""
        return len(self.documents)

    @property
    def n_distinct_terms(self) -> int:
        """``T`` — number of distinct terms across the collection."""
        return len(self.document_frequency())

    @property
    def total_cells(self) -> int:
        """Total d-cells, i.e. sum of distinct terms per document (cached)."""
        if self._total_cells is None:
            self._total_cells = sum(len(doc.cells) for doc in self.documents)
        return self._total_cells

    @property
    def avg_terms_per_document(self) -> float:
        """``K`` — average number of distinct terms per document."""
        if not self.documents:
            return 0.0
        return self.total_cells / len(self.documents)

    @property
    def total_bytes(self) -> int:
        """Packed size of the whole collection in bytes (5 per d-cell)."""
        return self.total_cells * D_CELL_BYTES

    def document_frequency(self) -> dict[int, int]:
        """``{term: number of documents containing it}`` (cached)."""
        if self._document_frequency is None:
            counter: Counter[int] = Counter()
            for doc in self.documents:
                counter.update(term for term, _ in doc.cells)
            self._document_frequency = dict(counter)
        return self._document_frequency

    def terms(self) -> set[int]:
        """The set of distinct term numbers present."""
        return set(self.document_frequency())

    def term_overlap_with(self, other: "DocumentCollection") -> float:
        """Measured probability that a term of ``self`` appears in ``other``.

        This is the paper's ``p``/``q`` computed from data rather than
        from the Section 6 analytic formula.
        """
        own = self.terms()
        if not own:
            return 0.0
        shared = len(own & other.terms())
        return shared / len(own)

    # --- access -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.documents)

    def __getitem__(self, doc_id: int) -> Document:
        return self.documents[doc_id]

    def __iter__(self) -> Iterator[Document]:
        return iter(self.documents)

    # --- derivations ------------------------------------------------------

    def renumbered_subset(self, doc_ids: Sequence[int], name: str) -> "DocumentCollection":
        """A new, independent collection holding copies of selected documents.

        Documents are renumbered to ``0 .. len-1`` — this models Group 4's
        *originally small* collection, not a selection over this one (a
        selection keeps original numbering and storage; see
        :class:`repro.core.join.CollectionSelection`).
        """
        docs = [Document(new_id, self.documents[old_id].cells) for new_id, old_id in enumerate(doc_ids)]
        return DocumentCollection(name, docs)

    def __repr__(self) -> str:
        return (
            f"DocumentCollection({self.name!r}, N={self.n_documents}, "
            f"T={self.n_distinct_terms}, K={self.avg_terms_per_document:.1f})"
        )
