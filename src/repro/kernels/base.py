"""The kernel primitive interface shared by all backends.

One :class:`Kernels` instance is stateless and process-wide; all
per-run state lives in the small helper objects it constructs
(:class:`ChunkScorer`, the accumulators).  The operators drive the
primitives identically regardless of backend — only the arithmetic
inside is batched differently — which is what makes the
``kernel-equivalence`` conformance check meaningful: the scalar
backend *is* the pre-kernel operator loop, so agreeing with it means
agreeing with the original implementation.

Shapes and conventions:

* a *prepared filter* is the backend's representation of an optional
  ``inner_ids`` candidate set (``None`` means "no filter");
* *prepared norms* represent the optional pre-computed document norms
  of the candidate side (``None`` means "unnormalised query");
* every candidate iterator yields ``(key, similarity)`` pairs in
  deterministic order, where ``key`` is a document id (scorer rows,
  accumulators) or a chunk position (:meth:`ChunkScorer.floor_candidates`);
* ``floor`` arguments implement the strict-dominance cut: a candidate
  whose similarity is strictly below the floor is provably outside the
  final top-``lambda`` set and may be dropped without changing results;
* ``ranked_matches`` is what the operators emit: the *final* best-first
  ``(id, similarity)`` tuples.  The defaults run ``TopK`` over the
  candidate iterators — the reference a batched override must equal;
* :meth:`Kernels.rank` is HVNL's and VVM's scorer: the final matches of
  a block of C2 rows against C1's in-memory inverted file.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

from repro.core.topk import TopK
from repro.text.collection import DocumentCollection
from repro.text.document import Document

Matches = tuple[tuple[int, float], ...]


def _top(candidates: Iterable[tuple[int, float]], lam: int) -> Matches:
    """``TopK``'s final answer over every offered candidate."""
    tracker = TopK(lam)
    for key, similarity in candidates:
        tracker.offer(key, similarity)
    return tuple(tracker.results())


class ChunkScorer:
    """Scores one buffered chunk of documents against streamed documents.

    Built once per operator chunk.  Two access patterns:

    * HHNL forward: :meth:`collect` one column per streamed inner
      document, then one :meth:`ranked_matches` once the scan completes;
    * HHNL backward: :meth:`floor_candidates` per streamed document,
      scoring it against the chunk immediately (the chunk-side trackers
      persist across chunks, so their running thresholds are the floor).
    """

    #: sum of ``n_terms`` over the chunk (HHNL's per-inner-doc CPU term)
    total_terms: int

    def collect(self, doc: Document) -> None:
        """Score ``doc`` against the whole chunk and retain the column."""
        raise NotImplementedError

    def ranked_candidates(
        self,
        position: int,
        lam: int,
        other_norms: Any | None,
        chunk_norm: float,
    ) -> Iterable[tuple[int, float]]:
        """Surviving ``(doc_id, similarity)`` pairs for one chunk row.

        Yields, in collection order, every collected document whose raw
        similarity with the chunk document at ``position`` is positive —
        backends may pre-cut to the documents that can still make a
        top-``lam`` set.  Similarities are normalised when
        ``other_norms`` is given.
        """
        raise NotImplementedError

    def ranked_matches(
        self, lam: int, other_norms: Any | None, chunk_norms: Sequence[float]
    ) -> list[Matches]:
        """Final top-``lam`` matches per chunk position (one norm each)."""
        return [
            _top(self.ranked_candidates(position, lam, other_norms, norm), lam)
            for position, norm in enumerate(chunk_norms)
        ]

    def set_chunk_norms(self, norms: Sequence[float] | None) -> None:
        """Install per-position norms for :meth:`floor_candidates`."""
        raise NotImplementedError

    def floor_candidates(
        self, doc: Document, floor: float, doc_norm: float
    ) -> Iterable[tuple[int, float]]:
        """Surviving ``(position, similarity)`` pairs for one streamed doc.

        Position order; candidates strictly below ``floor`` may be
        dropped.  Norms installed via :meth:`set_chunk_norms` apply to
        the chunk side, ``doc_norm`` to the streamed document.
        """
        raise NotImplementedError


class SparseScores:
    """HVNL's per-outer-document accumulator behind a batch interface."""

    #: largest number of simultaneously non-zero cells ever held
    peak_cells: int

    def add_entry(self, entry: Any, weight: int) -> None:
        """``U_i += weight * w_i`` over one inverted entry's postings."""
        raise NotImplementedError

    def clear(self) -> None:
        """Reset for the next outer document (peak is preserved)."""
        raise NotImplementedError

    def ranked_candidates(
        self, lam: int, other_norms: Any | None, outer_norm: float
    ) -> Iterable[tuple[int, float]]:
        """Surviving ``(inner_id, similarity)`` pairs of this accumulator."""
        raise NotImplementedError

    def ranked_matches(
        self, lam: int, other_norms: Any | None, outer_norm: float
    ) -> Matches:
        """Final top-``lam`` matches of the accumulated outer document."""
        return _top(self.ranked_candidates(lam, other_norms, outer_norm), lam)


class PairScores:
    """VVM's old all-pairs accumulator, kept for the benchmark's layer probes."""

    #: largest number of simultaneously non-zero cells ever held
    peak_cells: int

    def begin_chunk(self, chunk: Sequence[int]) -> None:
        """Announce the outer documents of the coming merge pass.

        Called after :meth:`clear`; backends may use it to pre-size
        storage.  The default is a no-op.
        """

    def add_block(self, outer_batch: Any, inner_batch: Any) -> None:
        """``U_pq += u_p * w_q`` over one term's outer x inner batches.

        Both arguments are prepared posting batches
        (:meth:`Kernels.entry_batch`); every (outer, inner) pair of the
        cross product contributes one term-wise product.
        """
        raise NotImplementedError

    def clear(self) -> None:
        """Reset between merge passes (peak is preserved)."""
        raise NotImplementedError

    def row_ranked(
        self, outer_doc: int, lam: int, other_norms: Any | None, outer_norm: float
    ) -> Iterable[tuple[int, float]]:
        """Surviving ``(inner_id, similarity)`` pairs of one outer row."""
        raise NotImplementedError

    def ranked_matches(
        self,
        chunk: Sequence[int],
        lam: int,
        other_norms: Any | None,
        outer_norms: Sequence[float],
    ) -> list[Matches]:
        """Final top-``lam`` matches per document of ``chunk`` — the
        sequence :meth:`begin_chunk` announced — one outer norm each."""
        return [
            _top(self.row_ranked(outer_doc, lam, other_norms, norm), lam)
            for outer_doc, norm in zip(chunk, outer_norms)
        ]


class Kernels:
    """One batch-arithmetic backend; stateless and safe to share."""

    name: str = "base"

    # --- preparation -------------------------------------------------------

    def prepare_filter(self, ids: Sequence[int] | None, n_docs: int) -> Any:
        """Backend representation of an optional candidate-id filter."""
        raise NotImplementedError

    def prepare_norms(
        self, norms: Mapping[int, float] | None, n_docs: int
    ) -> Any:
        """Backend representation of optional per-document norms."""
        raise NotImplementedError

    def entry_batch(self, entry: Any, prepared_filter: Any) -> Any:
        """A (filtered) posting batch for :meth:`PairScores.add_block`.

        The returned object supports ``len()`` — the number of surviving
        postings, the posting-pair CPU charge of a matched term.
        """
        raise NotImplementedError

    # --- constructors ------------------------------------------------------

    def chunk_scorer(self, docs: Sequence[Document]) -> ChunkScorer:
        """A scorer over one buffered chunk of documents (HHNL)."""
        raise NotImplementedError

    def sparse_scores(self, n_docs: int, prepared_filter: Any) -> SparseScores:
        """A per-outer-document sparse accumulator (HVNL)."""
        raise NotImplementedError

    def pair_scores(self, n_docs: int) -> PairScores:
        """An all-pairs accumulator over ``chunk x n_docs`` (layer probes only)."""
        raise NotImplementedError

    # --- scoring -----------------------------------------------------------

    def rank(
        self,
        rows: Sequence[int],
        outer: DocumentCollection,
        inverted: Any,
        lam: int,
        prepared_norms: Any | None,
        outer_norms: Sequence[float],
        prepared_filter: Any,
        n_docs: int,
    ) -> tuple[list[Matches], list[int]]:
        """HVNL's and VVM's scoring of a block of outer documents against C1.

        ``rows`` are ids of ``outer`` (C2), ``inverted`` is C1's in-memory
        inverted file.  Returns, per row (one outer norm each), the final
        top-``lam`` matches and the number of accumulator cells it
        touched.  The default is HVNL's original loop, one
        :class:`SparseScores` per document and one ``inverted.get`` per
        term.
        """
        matches, cells = [], []
        for row, norm in zip(rows, outer_norms):
            scores = self.sparse_scores(n_docs, prepared_filter)
            for term, weight in outer.documents[row].cells:
                entry = inverted.get(term)
                if entry is not None:
                    scores.add_entry(entry, weight)
            matches.append(scores.ranked_matches(lam, prepared_norms, norm))
            cells.append(scores.peak_cells)
        return matches, cells

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


__all__ = ["ChunkScorer", "Kernels", "PairScores", "SparseScores"]
