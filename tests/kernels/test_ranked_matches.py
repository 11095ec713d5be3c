"""``ranked_matches`` on the numpy primitives against ``TopK`` over scalar.

The operators emit ``ranked_matches`` verbatim, so the batched
selection must return exactly what :class:`~repro.core.topk.TopK`
retains when it is offered every candidate the *scalar* backend
surfaces: same documents, same order, same similarities, same number
types.  Each primitive is driven the way its operator drives it.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.index.inverted import InvertedEntry
from repro.kernels import resolve_kernels, vector
from repro.text.document import Document
from tests.kernels.test_ranking import every_candidate
from tests.kernels.test_ranking import top as top_list

PRIMITIVES = ("chunk", "sparse", "pair")


def top(candidates, lam):
    return tuple(top_list(candidates, lam))


def collection(cell_maps):
    return [Document.from_counts(i, cells) for i, cells in enumerate(cell_maps)]


def invert(docs):
    postings = {}
    for doc in docs:
        for term, weight in doc.cells:
            postings.setdefault(term, []).append((doc.doc_id, weight))
    return {term: InvertedEntry(term, tuple(cells)) for term, cells in postings.items()}


def norms_of(docs, zeroed):
    return {doc.doc_id: 0.0 if doc.doc_id in zeroed else doc.norm() for doc in docs}


def matches(primitive, backend, c1, c2, lam, *, norms1=None, norms2=None,
            inner_ids=None, outer_ids=None):
    """Per selected outer document, the final matches of one primitive.

    ``numpy`` answers with ``ranked_matches``; ``scalar`` with ``TopK``
    over its candidate iterators — the reference.
    """
    kernels = resolve_kernels(backend)
    batched = backend == "numpy"
    chunk = list(range(len(c2))) if outer_ids is None else list(outer_ids)
    prepared = kernels.prepare_norms(norms1, len(c1))
    outer_norms = [norms2[doc] if norms2 is not None else 0.0 for doc in chunk]
    if primitive == "chunk":
        scorer = kernels.chunk_scorer([c2[doc] for doc in chunk])
        for doc in c1:
            if inner_ids is None or doc.doc_id in inner_ids:
                scorer.collect(doc)
        if batched:
            return scorer.ranked_matches(lam, prepared, outer_norms)
        return [
            top(scorer.ranked_candidates(position, lam, prepared, norm), lam)
            for position, norm in enumerate(outer_norms)
        ]
    inverted1 = invert(c1)
    filter1 = kernels.prepare_filter(inner_ids, len(c1))
    if primitive == "sparse":
        scores = kernels.sparse_scores(len(c1), filter1)
        out = []
        for doc, norm in zip(chunk, outer_norms):
            scores.clear()
            for term, weight in c2[doc].cells:
                if term in inverted1:
                    scores.add_entry(inverted1[term], weight)
            if batched:
                out.append(scores.ranked_matches(lam, prepared, norm))
            else:
                out.append(top(scores.ranked_candidates(lam, prepared, norm), lam))
        return out
    inverted2 = invert(c2)
    pairs = kernels.pair_scores(len(c1))
    pairs.clear()
    pairs.begin_chunk(chunk)
    filter2 = kernels.prepare_filter(chunk, len(c2))
    for term in sorted(inverted1.keys() & inverted2.keys()):
        pairs.add_block(
            kernels.entry_batch(inverted2[term], filter2),
            kernels.entry_batch(inverted1[term], filter1),
        )
    if batched:
        return pairs.ranked_matches(chunk, lam, prepared, outer_norms)
    return [
        top(pairs.row_ranked(doc, lam, prepared, norm), lam)
        for doc, norm in zip(chunk, outer_norms)
    ]


def typed(rows):
    """Matches with each similarity's type: ``7`` and ``7.0`` must not pass."""
    return [[(doc, sim, type(sim)) for doc, sim in row] for row in rows]


def assert_equals_scalar(primitive, c1, c2, lam, **kwargs):
    got = matches(primitive, "numpy", c1, c2, lam, **kwargs)
    assert typed(got) == typed(matches(primitive, "scalar", c1, c2, lam, **kwargs))
    assert all(type(row) is tuple for row in got)
    return got


# Six terms and weights up to 3: most similarities tie with another.
cell_maps = st.lists(
    st.dictionaries(st.integers(0, 5), st.integers(1, 3), max_size=4),
    min_size=1,
    max_size=9,
)


@pytest.mark.parametrize("primitive", PRIMITIVES)
@given(
    cells1=cell_maps,
    cells2=cell_maps,
    lam=st.integers(min_value=1, max_value=11),
    normalized=st.booleans(),
    zeroed=st.sets(st.integers(0, 8), max_size=2),
    select=st.tuples(st.booleans(), st.booleans()),
    slab=st.sampled_from([3, 8, vector.RANK_SLAB_CELLS]),
    data=st.data(),
)
def test_equals_topk_over_scalar_candidates(
    primitive, cells1, cells2, lam, normalized, zeroed, select, slab, data
):
    c1, c2 = collection(cells1), collection(cells2)
    ids1, ids2 = list(range(len(c1))), list(range(len(c2)))
    kwargs = {
        "norms1": norms_of(c1, zeroed) if normalized else None,
        "norms2": norms_of(c2, zeroed) if normalized else None,
        "inner_ids": sorted(data.draw(st.sets(st.sampled_from(ids1)))) if select[0] else None,
        "outer_ids": data.draw(st.permutations(ids2))[: len(ids2) // 2 + 1] if select[1] else None,
    }
    with pytest.MonkeyPatch.context() as patch:
        # a few cells per slab: the chunk spans many ranking slabs
        patch.setattr(vector, "RANK_SLAB_CELLS", slab)
        assert_equals_scalar(primitive, c1, c2, lam, **kwargs)


@pytest.mark.parametrize("primitive", PRIMITIVES)
def test_ties_at_the_lambda_th_similarity_go_to_the_smaller_ids(primitive):
    c1 = collection([{1: 2}, {1: 2, 9: 1}, {1: 2}, {1: 2}, {1: 3}])
    c2 = collection([{1: 1}])
    assert assert_equals_scalar(primitive, c1, c2, 3) == [((4, 3), (0, 2), (1, 2))]
    only = assert_equals_scalar(primitive, c1, c2, 2, inner_ids=[1, 2, 3])
    assert only == [((1, 2), (2, 2))]


@pytest.mark.parametrize("primitive", PRIMITIVES)
def test_fewer_positives_than_lambda_and_lambda_beyond_the_columns(primitive):
    c1 = collection([{1: 1}, {2: 1}, {1: 2, 3: 1}])
    c2 = collection([{1: 1}, {7: 4}])
    assert assert_equals_scalar(primitive, c1, c2, 2) == [((2, 2), (0, 1)), ()]
    assert assert_equals_scalar(primitive, c1, c2, 50) == [((2, 2), (0, 1)), ()]


@pytest.mark.parametrize("primitive", PRIMITIVES)
def test_a_zero_norm_on_either_side_is_not_a_match(primitive):
    c1 = collection([{1: 1}, {1: 5}])
    c2 = collection([{1: 1}, {1: 2}])
    norms2 = {0: 1.0, 1: 0.0}
    got = assert_equals_scalar(
        primitive, c1, c2, 2, norms1={0: 1.0, 1: 0.0}, norms2=norms2
    )
    assert got == [((0, 1.0),), ()]


@pytest.mark.parametrize("primitive", PRIMITIVES)
def test_unnormalised_similarities_keep_each_primitive_s_number_type(primitive):
    c1, c2 = collection([{1: 2}]), collection([{1: 3}])
    ((_doc, similarity),), = assert_equals_scalar(primitive, c1, c2, 1)
    # VVM's accumulator sums ints; HHNL and HVNL have always yielded floats
    assert type(similarity) is (int if primitive == "pair" else float)
    assert similarity == 6


@pytest.mark.parametrize("primitive", PRIMITIVES)
def test_nothing_collected_and_empty_chunk(primitive):
    c1, c2 = collection([{1: 1}, {2: 1}]), collection([{1: 1}, {2: 2}, {3: 3}])
    assert assert_equals_scalar(primitive, c1, c2, 2, inner_ids=[]) == [(), (), ()]
    assert assert_equals_scalar(primitive, c1, c2, 2, outer_ids=[]) == []


def test_pair_scores_above_the_dense_limit_take_the_default_path(monkeypatch):
    c1 = collection([{1: 1, 2: 2}, {2: 1}, {1: 4}])
    c2 = collection([{1: 1}, {2: 3}])
    expected = matches("pair", "scalar", c1, c2, 2)
    monkeypatch.setattr(vector, "DENSE_CELL_LIMIT", 0)
    monkeypatch.setattr(vector, "_ranked_rows", None)  # calling it would raise
    assert typed(matches("pair", "numpy", c1, c2, 2)) == typed(expected)


def test_a_chunk_of_three_real_slabs_ranks_like_its_rows_one_by_one():
    rng = np.random.default_rng(21)
    n_columns = 300
    n_rows = 3 * vector.RANK_SLAB_CELLS // n_columns + 7
    # a third of the cells positive, values 1..4: ties in every row
    matrix = rng.integers(1, 5, (n_rows, n_columns)) * (rng.random((n_rows, n_columns)) < 0.3)
    matrix = matrix.astype(np.float64)
    norms = rng.integers(0, 4, n_columns).astype(np.float64)
    row_norms = rng.integers(0, 4, n_rows).astype(np.float64).tolist()
    got = vector._ranked_rows(matrix, 4, norms, row_norms)
    assert got == [
        top(every_candidate(row, norms, row_norm), 4)
        for row, row_norm in zip(matrix, row_norms)
    ]


def test_ranking_scratch_is_bounded_by_the_slab_not_the_matrix():
    rng = np.random.default_rng(3)
    matrix = rng.integers(0, 9, (2000, 2000)).astype(np.float64)
    norms = np.ones(2000)
    row_norms = [2.0] * 2000
    tracemalloc.start()
    try:
        ranked = vector._ranked_rows(matrix, 5, norms, row_norms)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ranked) == 2000 and all(len(row) == 5 for row in ranked)
    # the matrix is 32 MB; the scratch above the output stays under four
    # float64 slabs (2 MB)
    assert peak - retained < 4 * vector.RANK_SLAB_CELLS * 8
