"""The numpy kernel backend: deferred bulk scoring over packed arrays.

Documents and inverted entries are packed once into sorted ``int64``
``(terms, weights)`` array pairs, cached on the object's ``_packed``
slot (tagged with the backend name so backends can alternate on shared
objects without reading each other's caches).  The expensive primitive
is never the single pair — it is the *bulk* op:

* chunk scoring — :meth:`VectorChunkScorer.collect` only buffers the
  streamed document's pack; when the chunk is ranked, one term join
  (:func:`_term_join`: a dense product for the frequent terms, a ragged
  scatter-add for the rest) scores the whole chunk against every
  collected document at once;
* HVNL and VVM blocks — :meth:`VectorKernels.rank` scores rows sliced
  from C2's CSR arrays against postings sliced from C1's CSC arrays
  (built once per snapshot) in the same term join (the per-document
  :class:`VectorSparseScores` remains for the spine's layer probes);
* pair accumulation (layer probes only) — :meth:`VectorPairScores.add_block`
  buffers the (outer, inner) batch pair per matched term; the flush is
  the same term join, with the block index standing in for the term.

All arithmetic is exact: weights are positive integers, every score is
a sum of integer products far below ``2**53``, and float64 represents
such sums exactly regardless of accumulation order, so similarities
are bit-identical to the scalar backend's.  Ranking applies the
strict-dominance pre-cut (``partition`` for the ``lambda``-th value,
ties kept): only candidates that provably cannot enter the final
top-``lambda`` set are dropped, so offered-set purity of
:class:`~repro.core.topk.TopK` guarantees identical results.

Peak-cell accounting matches the scalar accumulators because every
contribution is positive: the number of non-zero cells after a flush
equals the number of distinct cells the scalar backend would have
touched, and cell counts only grow within a pass.
"""

from __future__ import annotations

import weakref
from itertools import chain
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from repro.kernels.base import ChunkScorer, Kernels, Matches, PairScores, SparseScores
from repro.text.collection import DocumentCollection
from repro.text.document import Document

_TAG = "numpy"

#: dense pair-matrix cells beyond which VVM accumulation falls back to
#: lazily-allocated per-row storage (keeps worst-case memory bounded)
DENSE_CELL_LIMIT = 1 << 24

#: matrix cells ranked at once: three float64 temporaries and a mask per
#: cell (~26 B) keep the ranking scratch near 1.5 MB whatever the chunk
RANK_SLAB_CELLS = 1 << 16


def _pack_cells(
    obj: Any, cells: Sequence[tuple[int, int]]
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted ``(keys, weights)`` int64 arrays, cached on ``obj``."""
    packed = obj._packed
    if packed is not None and packed[0] == _TAG:
        return packed[1]
    count = len(cells)
    keys = np.fromiter((cell[0] for cell in cells), dtype=np.int64, count=count)
    weights = np.fromiter((cell[1] for cell in cells), dtype=np.int64, count=count)
    obj._packed = (_TAG, (keys, weights))
    return keys, weights


def _pack_document(doc: Document) -> tuple[np.ndarray, np.ndarray]:
    return _pack_cells(doc, doc.cells)


def _pack_entry(entry: Any) -> tuple[np.ndarray, np.ndarray]:
    return _pack_cells(entry, entry.postings)


def _part_index(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Per element of ``np.concatenate(parts)``: the position of its part."""
    sizes = np.fromiter(map(len, parts), dtype=np.int64, count=len(parts))
    return np.repeat(np.arange(len(parts)), sizes)


def _top_lambda_mask(sims: np.ndarray, lam: int) -> np.ndarray | None:
    """Mask keeping candidates that can still make a top-``lam`` set.

    Keeps every candidate whose similarity ties or beats the ``lam``-th
    largest; anything strictly below it has ``lam`` strictly better
    competitors and can never be retained by the tracker.
    """
    count = len(sims)
    if lam <= 0 or count <= lam:
        return None
    kth = np.partition(sims, count - lam)[count - lam]
    return sims >= kth


def _normalized(
    sims: np.ndarray, denominators: np.ndarray
) -> np.ndarray:
    """Elementwise IEEE division with the scalar zero-denominator rule."""
    return np.divide(
        sims, denominators, out=np.zeros(len(sims)), where=denominators != 0
    )


def _ranked(
    values: np.ndarray,
    lam: int,
    other_norms: np.ndarray | None,
    norm: float,
    ids: np.ndarray | None = None,
    integral: bool = False,
) -> Iterator[tuple[int, float]]:
    """``(id, similarity)`` pairs of one score row's top-``lam`` contenders.

    Scores are sums of positive products, so the non-zero cells are the
    positive ones.  ``ids`` maps cell positions to document ids when
    the row is not indexed by id; ``integral`` renders unnormalised
    similarities as the plain ints the scalar accumulators yield (the
    float64 cells hold those sums exactly).
    """
    found = np.flatnonzero(values)
    sims = values[found]
    if ids is not None:
        found = ids[found]
    if other_norms is not None:
        sims = _normalized(sims, other_norms[found] * norm)
    keep = _top_lambda_mask(sims, lam)
    if keep is not None:
        found = found[keep]
        sims = sims[keep]
    if integral and other_norms is None:
        sims = sims.astype(np.int64)
    return zip(found.tolist(), sims.tolist())


def _ranked_rows(
    matrix: np.ndarray,
    lam: int,
    other_norms: np.ndarray | None,
    row_norms: Sequence[float],
    ids: np.ndarray | None = None,
    integral: bool = False,
) -> list[Matches]:
    """Every score row's final best-first top-``lam`` tuples.

    :func:`_ranked` then :class:`~repro.core.topk.TopK`, a slab of rows
    at a time: the same elementwise division, the same cut (ties kept,
    non-positive cells dropped), one ``lexsort`` on (row, -similarity,
    id) — ``TopK``'s total order — and each row truncated to ``lam``.
    """
    n_columns = matrix.shape[1]
    if other_norms is not None:
        column_norms = other_norms if ids is None else other_norms[ids]
        row_norms = np.asarray(row_norms, dtype=np.float64)[:, None]
    matches: list[Matches] = []
    step = max(RANK_SLAB_CELLS // max(n_columns, 1), 1)
    for start in range(0, len(matrix), step):
        sims = matrix[start : start + step]
        if other_norms is not None:
            denominators = row_norms[start : start + step] * column_norms
            sims = np.divide(
                sims, denominators, out=np.zeros(sims.shape), where=denominators != 0
            )
        keep = sims > 0
        if n_columns > lam:
            cut = n_columns - lam
            keep &= sims >= np.partition(sims, cut, axis=1)[:, cut, None]
        # flat indices: nonzero on a 2-D mask is ten times slower
        rows, columns = np.divmod(np.flatnonzero(keep), n_columns)
        found = sims[rows, columns]
        docs = columns if ids is None else ids[columns]
        counts = np.bincount(rows, minlength=len(sims))
        # rows ascend, so a cell's rank in its row is its sorted position
        # minus the row's first: ties beyond lam go before any tolist
        rank = np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]
        order = np.lexsort((docs, -found, rows))[rank < lam]
        if integral and other_norms is None:
            found = found.astype(np.int64)
        pairs = list(zip(docs[order].tolist(), found[order].tolist()))
        begin = 0
        for end in np.cumsum(np.minimum(counts, lam)).tolist():
            matches.append(tuple(pairs[begin:end]))
            begin = end
    return matches


class _PostingBatch:
    """A filtered posting batch: parallel id/weight arrays with a length."""

    __slots__ = ("ids", "weights")

    def __init__(self, ids: np.ndarray, weights: np.ndarray) -> None:
        self.ids = ids
        self.weights = weights

    def __len__(self) -> int:
        return len(self.ids)


class VectorChunkScorer(ChunkScorer):
    """Buffers streamed packs; one term join scores the chunk."""

    def __init__(self, docs: Sequence[Document]) -> None:
        self._docs = list(docs)
        self.total_terms = sum(doc.n_terms for doc in self._docs)
        packs = [_pack_document(doc) for doc in self._docs]
        if packs and self.total_terms:
            cat_terms = np.concatenate([terms for terms, _ in packs])
            cat_weights = np.concatenate([weights for _, weights in packs])
            positions = _part_index([terms for terms, _ in packs])
            # One term-sorted view of the whole chunk: the join side of
            # every later searchsorted.
            order = np.argsort(cat_terms, kind="stable")
            self._chunk_terms = cat_terms[order]
            self._chunk_weights = cat_weights[order]
            self._chunk_positions = positions[order]
        else:
            self._chunk_terms = np.empty(0, dtype=np.int64)
            self._chunk_weights = np.empty(0, dtype=np.int64)
            self._chunk_positions = np.empty(0, dtype=np.int64)
        self._collected: list[tuple[np.ndarray, np.ndarray]] = []
        self._scored_ids: list[int] = []
        self._matrix: np.ndarray | None = None
        self._ids_array: np.ndarray | None = None
        self._chunk_norms: np.ndarray | None = None

    def collect(self, doc: Document) -> None:
        self._collected.append(_pack_document(doc))
        self._scored_ids.append(doc.doc_id)
        self._matrix = None

    def _ensure_matrix(self) -> None:
        """Score chunk x collected (never empty here) in one term join."""
        if self._matrix is not None:
            return
        self._ids_array = np.asarray(self._scored_ids, dtype=np.int64)
        terms, weights = zip(*self._collected)
        self._matrix = _term_join(
            self._chunk_terms,
            self._chunk_weights,
            self._chunk_positions,
            len(self._docs),
            np.concatenate(terms),
            np.concatenate(weights),
            _part_index(terms),
            len(terms),
        )

    def ranked_candidates(
        self,
        position: int,
        lam: int,
        other_norms: np.ndarray | None,
        chunk_norm: float,
    ) -> Iterator[tuple[int, float]]:
        if not self._collected:
            return iter(())
        self._ensure_matrix()
        return _ranked(
            self._matrix[position], lam, other_norms, chunk_norm, self._ids_array
        )

    def ranked_matches(
        self, lam: int, other_norms: np.ndarray | None, chunk_norms: Sequence[float]
    ) -> list[Matches]:
        if not self._collected:
            return [()] * len(chunk_norms)
        self._ensure_matrix()
        return _ranked_rows(
            self._matrix, lam, other_norms, chunk_norms, self._ids_array
        )

    def set_chunk_norms(self, norms: Sequence[float] | None) -> None:
        self._chunk_norms = (
            None if norms is None else np.asarray(norms, dtype=np.float64)
        )

    def floor_candidates(
        self, doc: Document, floor: float, doc_norm: float
    ) -> Iterator[tuple[int, float]]:
        n_chunk = len(self._docs)
        doc_terms, doc_weights = _pack_document(doc)
        if len(doc_terms) == 0 or len(self._chunk_terms) == 0:
            return
        found = np.searchsorted(doc_terms, self._chunk_terms)
        clipped = np.minimum(found, len(doc_terms) - 1)
        valid = doc_terms[clipped] == self._chunk_terms
        contrib = self._chunk_weights[valid] * doc_weights[clipped[valid]]
        values = np.bincount(
            self._chunk_positions[valid], weights=contrib, minlength=n_chunk
        )
        positive = values > 0
        positions = np.nonzero(positive)[0]
        sims = values[positive]
        if self._chunk_norms is not None:
            sims = _normalized(sims, self._chunk_norms[positions] * doc_norm)
        if floor > 0.0:
            # Strict-dominance cut: the tracker's threshold only rises, so
            # a candidate strictly below the floor can never be retained.
            keep = sims >= floor
            positions = positions[keep]
            sims = sims[keep]
        yield from zip(positions.tolist(), sims.tolist())


#: a term is scored densely when its pair contributions
#: (``df_left * df_right``) reach 1/1024 of the output matrix.  Derived,
#: not tuned: a dense term costs one BLAS FMA per output cell, a tail
#: contribution four gathers and a scatter — several hundred times
#: that — and wall-clock is flat between 256 and 4096.
_DENSE_SHARE = 1024


def _term_join(
    join_terms: np.ndarray,
    join_weights: np.ndarray,
    join_rows: np.ndarray,
    n_rows: int,
    terms: np.ndarray,
    weights: np.ndarray,
    columns: np.ndarray,
    n_columns: int,
) -> np.ndarray:
    """Dense ``n_rows x n_columns`` score matrix of a ragged term join.

    ``join_*`` is one term-sorted cell multiset (row id per cell);
    ``terms``/``weights``/``columns`` is another (column id per cell).
    Every pair of cells sharing a term contributes the product of its
    weights to ``matrix[row, column]`` — exactly the all-pairs dot
    products.  Collections are Zipfian, so a few frequent terms carry
    most pairs: those go through one dense ``rows x head @ head x
    columns`` product, the long tail through one ragged scatter-add.
    The product is exact under any BLAS summation order or FMA use
    because every partial sum is an integer far below ``2**53``.
    Terms are compacted to their rank among the distinct ``join_terms``
    first, so nothing is sized by the vocabulary, and the dense
    operands together never outgrow the matrix they feed.
    """
    matrix_cells = n_rows * n_columns
    if len(join_terms) == 0 or len(terms) == 0:
        return np.zeros((n_rows, n_columns))
    starts = np.flatnonzero(np.concatenate(([True], join_terms[1:] != join_terms[:-1])))
    df_left = np.diff(starts, append=len(join_terms))
    distinct = join_terms[starts]
    slots = np.minimum(np.searchsorted(distinct, terms), len(distinct) - 1)
    shared = distinct[slots] == terms
    slots, weights, columns = slots[shared], weights[shared], columns[shared]
    pairs = df_left * np.bincount(slots, minlength=len(distinct))
    head = np.flatnonzero(pairs * _DENSE_SHARE >= matrix_cells)
    limit = max(matrix_cells // (n_rows + n_columns), 1)
    if len(head) > limit:
        head = head[np.argsort(-pairs[head], kind="stable")[:limit]]
    # Dense-operand column of each slot; -1 marks the tail.
    dense = np.full(len(distinct), -1)
    dense[head] = np.arange(len(head))
    left = np.repeat(dense, df_left)
    right = dense[slots]
    in_left, in_right = left >= 0, right >= 0
    rows_by_head = np.zeros((n_rows, len(head)))
    _scatter_add(rows_by_head, join_rows[in_left], left[in_left], join_weights[in_left])
    head_by_columns = np.zeros((len(head), n_columns))
    _scatter_add(head_by_columns, right[in_right], columns[in_right], weights[in_right])
    matrix = rows_by_head @ head_by_columns
    slots, weights, columns = slots[~in_right], weights[~in_right], columns[~in_right]
    counts = df_left[slots]
    source = np.repeat(np.arange(len(slots)), counts)
    offsets = np.cumsum(counts) - counts
    join_index = np.repeat(starts[slots] - offsets, counts) + np.arange(len(source))
    _scatter_add(
        matrix,
        join_rows[join_index],
        columns[source],
        join_weights[join_index] * weights[source],
    )
    return matrix


def _scatter_add(
    matrix: np.ndarray, rows: np.ndarray, columns: np.ndarray, values: np.ndarray
) -> None:
    """``matrix[rows, columns] += values``, repeated cells summed."""
    # One flat index and float64 values: ufunc.at's fast same-dtype path.
    np.add.at(
        matrix.reshape(-1),
        rows * matrix.shape[1] + columns,
        values.astype(np.float64),
    )


class VectorSparseScores(SparseScores):
    """Buffers entry packs; one concatenated bincount per ranking flush."""

    def __init__(self, n_docs: int, prepared_filter: np.ndarray | None) -> None:
        self._n_docs = n_docs
        self._filter = prepared_filter
        self._batches: list[tuple[np.ndarray, np.ndarray]] = []
        self._outer_weights: list[int] = []
        self._scores: np.ndarray | None = None
        self.peak_cells = 0

    def add_entry(self, entry: Any, weight: int) -> None:
        self._batches.append(_pack_entry(entry))
        self._outer_weights.append(weight)
        self._scores = None

    def clear(self) -> None:
        self._batches.clear()
        self._outer_weights.clear()
        self._scores = None

    def _flush(self) -> np.ndarray:
        if self._scores is not None:
            return self._scores
        if not self._batches:
            scores = np.zeros(self._n_docs)
        else:
            batch_ids, batch_weights = zip(*self._batches)
            ids = np.concatenate(batch_ids)
            outer = np.asarray(self._outer_weights, dtype=np.int64)
            contrib = outer[_part_index(batch_ids)] * np.concatenate(batch_weights)
            if self._filter is not None:
                allowed = self._filter[ids]
                ids = ids[allowed]
                contrib = contrib[allowed]
            scores = np.bincount(ids, weights=contrib, minlength=self._n_docs)
        self._scores = scores
        # Contributions are positive integer products, so the non-zero
        # cells are exactly the cells the scalar accumulator touched.
        cells = int(np.count_nonzero(scores))
        if cells > self.peak_cells:
            self.peak_cells = cells
        return scores

    def ranked_candidates(
        self, lam: int, other_norms: np.ndarray | None, outer_norm: float
    ) -> Iterator[tuple[int, float]]:
        return _ranked(self._flush(), lam, other_norms, outer_norm)


class VectorPairScores(PairScores):
    """Buffers batch pairs per matched term; one term-join flush.

    When the chunk's dense matrix (``len(chunk) x n_docs``) stays under
    :data:`DENSE_CELL_LIMIT` cells, the flush scores every buffered
    cross product in one :func:`_term_join`.  Above the limit it falls
    back to lazily-allocated dense rows updated batch-by-batch — slower,
    but memory-proportional to the rows actually touched.
    """

    def __init__(self, n_docs: int) -> None:
        self._n_docs = n_docs
        self._chunk_rows: dict[int, int] = {}
        # chunk ids ascending, and the chunk row of each: the flush's lookup
        self._sorted_chunk = self._sorted_rows = np.empty(0, dtype=np.int64)
        self._blocks: list[tuple[_PostingBatch, _PostingBatch]] = []
        self._matrix: np.ndarray | None = None
        self._rows: dict[int, np.ndarray] = {}
        self._row_cells = 0
        self._dense = True
        self.peak_cells = 0

    def begin_chunk(self, chunk: Sequence[int]) -> None:
        self._chunk_rows = {doc_id: row for row, doc_id in enumerate(chunk)}
        ids = np.asarray(chunk, dtype=np.int64)
        self._sorted_rows = np.argsort(ids, kind="stable")
        self._sorted_chunk = ids[self._sorted_rows]
        self._dense = len(chunk) * self._n_docs <= DENSE_CELL_LIMIT

    def add_block(
        self, outer_batch: _PostingBatch, inner_batch: _PostingBatch
    ) -> None:
        if self._dense:
            self._blocks.append((outer_batch, inner_batch))
            self._matrix = None
            return
        inner_ids = inner_batch.ids
        inner_weights = inner_batch.weights
        for outer_doc, outer_weight in zip(
            outer_batch.ids.tolist(), outer_batch.weights.tolist()
        ):
            row = self._rows.get(outer_doc)
            if row is None:
                row = self._rows[outer_doc] = np.zeros(self._n_docs)
            # Contributions are positive: a zero cell is an untouched one.
            fresh = int(len(inner_ids) - np.count_nonzero(row[inner_ids]))
            row[inner_ids] += outer_weight * inner_weights
            if fresh:
                self._row_cells += fresh
                if self._row_cells > self.peak_cells:
                    self.peak_cells = self._row_cells

    def clear(self) -> None:
        self._blocks.clear()
        self._matrix = None
        self._rows.clear()
        self._row_cells = 0
        self._chunk_rows = {}

    def _flush(self) -> np.ndarray:
        if self._matrix is not None:
            return self._matrix
        n_rows = max(len(self._chunk_rows), 1)
        n_docs = self._n_docs
        if not self._blocks:
            matrix = np.zeros((n_rows, n_docs))
        else:
            # One term join with the block index as the "term" of both
            # sides: blocks arrive in merge order, so both are term-sorted.
            outer, inner = zip(*self._blocks)
            outer_ids = [batch.ids for batch in outer]
            inner_ids = [batch.ids for batch in inner]
            sorted_at = np.searchsorted(self._sorted_chunk, np.concatenate(outer_ids))
            matrix = _term_join(
                _part_index(outer_ids),
                np.concatenate([batch.weights for batch in outer]),
                self._sorted_rows[sorted_at],
                n_rows,
                _part_index(inner_ids),
                np.concatenate([batch.weights for batch in inner]),
                np.concatenate(inner_ids),
                n_docs,
            )
        self._matrix = matrix
        # Positive contributions: non-zero cells == distinct touched cells.
        cells = int(np.count_nonzero(matrix))
        if cells > self.peak_cells:
            self.peak_cells = cells
        return matrix

    def row_ranked(
        self,
        outer_doc: int,
        lam: int,
        other_norms: np.ndarray | None,
        outer_norm: float,
    ) -> Iterator[tuple[int, float]]:
        if self._dense:
            row_index = self._chunk_rows.get(outer_doc)
            row = None if row_index is None else self._flush()[row_index]
        else:
            row = self._rows.get(outer_doc)
        if row is None:
            return iter(())
        return _ranked(row, lam, other_norms, outer_norm, integral=True)

    def ranked_matches(
        self,
        chunk: Sequence[int],
        lam: int,
        other_norms: np.ndarray | None,
        outer_norms: Sequence[float],
    ) -> list[Matches]:
        if not self._dense:
            return super().ranked_matches(chunk, lam, other_norms, outer_norms)
        matrix = self._flush()[: len(chunk)]
        return _ranked_rows(matrix, lam, other_norms, outer_norms, integral=True)


class VectorKernels(Kernels):
    """Vectorised backend; requires numpy at import time."""

    name = "numpy"

    def prepare_filter(
        self, ids: Sequence[int] | None, n_docs: int
    ) -> np.ndarray | None:
        if ids is None:
            return None
        mask = np.zeros(n_docs, dtype=bool)
        if len(ids):
            mask[np.asarray(list(ids), dtype=np.int64)] = True
        return mask

    def prepare_norms(
        self, norms: Mapping[int, float] | None, n_docs: int
    ) -> np.ndarray | None:
        if norms is None:
            return None
        out = np.zeros(n_docs)
        if norms:
            keys = np.fromiter(norms.keys(), dtype=np.int64, count=len(norms))
            values = np.fromiter(norms.values(), dtype=np.float64, count=len(norms))
            out[keys] = values
        return out

    def entry_batch(
        self, entry: Any, prepared_filter: np.ndarray | None
    ) -> _PostingBatch:
        ids, weights = _pack_entry(entry)
        if prepared_filter is not None:
            allowed = prepared_filter[ids]
            ids = ids[allowed]
            weights = weights[allowed]
        return _PostingBatch(ids, weights)

    def chunk_scorer(self, docs: Sequence[Document]) -> VectorChunkScorer:
        return VectorChunkScorer(docs)

    def sparse_scores(
        self, n_docs: int, prepared_filter: np.ndarray | None
    ) -> VectorSparseScores:
        return VectorSparseScores(n_docs, prepared_filter)

    def pair_scores(self, n_docs: int) -> VectorPairScores:
        return VectorPairScores(n_docs)

    def rank(
        self,
        rows: Sequence[int],
        outer: DocumentCollection,
        inverted: Any,
        lam: int,
        prepared_norms: np.ndarray | None,
        outer_norms: Sequence[float],
        prepared_filter: np.ndarray | None,
        n_docs: int,
    ) -> tuple[list[Matches], list[int]]:
        """One term join of the rows' cells, sliced from C2's CSR arrays,
        against their terms' postings, sliced from C1's CSC arrays."""
        doc_ptr, cell_terms, cell_weights = _arrays(outer)
        term_ptr, posting_ids, posting_weights, terms = _arrays(inverted)
        picked, sizes = _segments(doc_ptr, np.asarray(rows, dtype=np.int64))
        block_terms = cell_terms[picked]
        order = np.argsort(block_terms, kind="stable")
        distinct = np.unique(block_terms)
        slots = np.searchsorted(terms, distinct)
        found = slots < len(terms)
        found[found] = terms[slots[found]] == distinct[found]
        postings, df = _segments(term_ptr, slots[found])
        ids, weights = posting_ids[postings], posting_weights[postings]
        posting_terms = np.repeat(distinct[found], df)
        if prepared_filter is not None:
            allowed = prepared_filter[ids]
            ids, weights = ids[allowed], weights[allowed]
            posting_terms = posting_terms[allowed]
        matrix = _term_join(
            block_terms[order], cell_weights[picked][order],
            np.repeat(np.arange(len(sizes)), sizes)[order], len(sizes),
            posting_terms, weights, ids, n_docs,
        )
        # Contributions are positive: non-zero cells == touched cells.
        cells = np.count_nonzero(matrix, axis=1).tolist()
        return _ranked_rows(matrix, lam, prepared_norms, outer_norms), cells


#: C2's CSR and C1's CSC arrays per immutable snapshot object, alive as
#: long as it; two threads' first uses may both build (equal) arrays
_ARRAYS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _arrays(snapshot: Any) -> tuple[np.ndarray, ...]:
    """A collection's ``(doc_ptr, terms, weights)`` or an inverted file's
    ``(term_ptr, doc_ids, weights, terms)``, built on first use."""
    arrays = _ARRAYS.get(snapshot)
    if arrays is None:
        if isinstance(snapshot, DocumentCollection):
            groups, keys = [doc.cells for doc in snapshot.documents], ()
        else:
            entries = snapshot.entries
            groups = [entry.postings for entry in entries]
            keys = (np.fromiter((e.term for e in entries), np.int64, len(entries)),)
        ptr = np.zeros(len(groups) + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, groups), np.int64, len(groups)), out=ptr[1:])
        pairs = chain.from_iterable(chain.from_iterable(groups))
        flat = np.fromiter(pairs, np.int64, 2 * int(ptr[-1])).reshape(-1, 2)
        arrays = _ARRAYS[snapshot] = (ptr, flat[:, 0].copy(), flat[:, 1].copy(), *keys)
    return arrays


def _segments(ptr: np.ndarray, picks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the ``picks``' segments under ``ptr``, concatenated,
    and each segment's length."""
    starts = ptr[picks]
    sizes = ptr[picks + 1] - starts
    offsets = starts - np.cumsum(sizes) + sizes  # segment start minus its output start
    return np.arange(sizes.sum()) + np.repeat(offsets, sizes), sizes


__all__ = [
    "DENSE_CELL_LIMIT",
    "VectorChunkScorer",
    "VectorKernels",
    "VectorPairScores",
    "VectorSparseScores",
]
