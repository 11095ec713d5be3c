"""``Kernels.rank`` on numpy against the base default over scalar.

Both read the same snapshot: C2's rows from its collection, C1's
postings from its inverted file (numpy slices the arrays it builds from
them).  HVNL emits ``rank``'s tuples verbatim and folds its per-row
cell counts into ``peak_accumulator_cells``, so the one-term-join
override must return exactly what the default — one scalar accumulator
per outer document — returns: same documents, order, similarities and
number types, and the same touched-cell count per row.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.index.inverted import InvertedFile
from repro.kernels import resolve_kernels, vector
from repro.text.collection import DocumentCollection
from tests.kernels.test_ranked_matches import cell_maps, collection, norms_of, typed


def rank(backend, c1, block, lam, *, norms1=None, norms2=None, inner_ids=None):
    kernels = resolve_kernels(backend)
    return kernels.rank(
        [doc.doc_id for doc in block],
        DocumentCollection("c2", block),
        InvertedFile.build(DocumentCollection("c1", c1)),
        lam,
        kernels.prepare_norms(norms1, len(c1)),
        [norms2[doc.doc_id] if norms2 is not None else 0.0 for doc in block],
        kernels.prepare_filter(inner_ids, len(c1)),
        len(c1),
    )


def assert_equals_scalar(c1, block, lam, **kwargs):
    got, cells = rank("numpy", c1, block, lam, **kwargs)
    expected, expected_cells = rank("scalar", c1, block, lam, **kwargs)
    assert typed(got) == typed(expected)
    assert all(type(row) is tuple for row in got)
    assert cells == expected_cells
    assert all(type(count) is int for count in cells)
    return got, cells


@given(
    cells1=cell_maps,
    cells2=cell_maps,
    lam=st.integers(min_value=1, max_value=11),
    normalized=st.booleans(),
    zeroed=st.sets(st.integers(0, 8), max_size=2),
    select=st.booleans(),
    slab=st.sampled_from([3, 8, vector.RANK_SLAB_CELLS]),
    data=st.data(),
)
def test_equals_the_default_over_scalar(
    cells1, cells2, lam, normalized, zeroed, select, slab, data
):
    c1 = collection(cells1)
    # C2 draws terms 0-5 like C1, plus term 7 that C1 never has
    c2 = collection(
        [{**cells, 7: 1} if i % 3 == 0 else cells for i, cells in enumerate(cells2)]
    )
    ids1 = list(range(len(c1)))
    kwargs = {
        "norms1": norms_of(c1, zeroed) if normalized else None,
        "norms2": norms_of(c2, zeroed) if normalized else None,
        "inner_ids": sorted(data.draw(st.sets(st.sampled_from(ids1)))) if select else None,
    }
    with pytest.MonkeyPatch.context() as patch:
        # a few cells per slab: the block spans many ranking slabs
        patch.setattr(vector, "RANK_SLAB_CELLS", slab)
        assert_equals_scalar(c1, c2, lam, **kwargs)


def test_ties_at_the_lambda_th_similarity_go_to_the_smaller_ids():
    c1 = collection([{1: 2}, {1: 2, 5: 1}, {1: 2}, {1: 2}, {1: 3}])
    block = collection([{1: 1}, {5: 2}])
    got, cells = assert_equals_scalar(c1, block, 3)
    assert got == [((4, 3.0), (0, 2.0), (1, 2.0)), ((1, 2.0),)]
    assert cells == [5, 1]
    got, cells = assert_equals_scalar(c1, block, 2, inner_ids=[1, 2, 3])
    assert got == [((1, 2.0), (2, 2.0)), ((1, 2.0),)]
    assert cells == [3, 1]


def test_lambda_at_or_beyond_the_candidates():
    c1 = collection([{1: 1}, {2: 1}, {1: 2, 3: 1}])
    block = collection([{1: 1}, {3: 4}])
    for lam in (2, 3, 50):
        got, cells = assert_equals_scalar(c1, block, lam)
        assert got[0] == ((2, 2.0), (0, 1.0)) and cells == [2, 1]


def test_a_zero_norm_on_either_side_is_not_a_match():
    c1 = collection([{1: 1}, {1: 5}])
    block = collection([{1: 1}, {1: 2}])
    got, cells = assert_equals_scalar(
        c1, block, 2, norms1={0: 1.0, 1: 0.0}, norms2={0: 1.0, 1: 0.0}
    )
    assert got == [((0, 1.0),), ()]
    # a zeroed norm still touched its cells
    assert cells == [2, 2]


def test_unnormalised_similarities_are_floats():
    got, _ = assert_equals_scalar(collection([{1: 2}]), collection([{1: 3}]), 1)
    ((_doc, similarity),), = got
    assert type(similarity) is float and similarity == 6


def test_absent_terms_and_an_empty_outer_document():
    c1 = collection([{1: 1}, {2: 1}])
    block = collection([{8: 1, 9: 2}, {}, {2: 3, 9: 1}])
    got, cells = assert_equals_scalar(c1, block, 2)
    assert got == [(), (), ((1, 3.0),)]
    assert cells == [0, 0, 1]


def test_a_filter_that_admits_nothing():
    c1 = collection([{1: 1}, {2: 1}])
    block = collection([{1: 1}, {2: 2}])
    assert assert_equals_scalar(c1, block, 2, inner_ids=[]) == ([(), ()], [0, 0])


def test_one_block_spans_three_ranking_slabs(monkeypatch):
    c1 = collection([{t: 1 + (t + i) % 3 for t in range(i % 4, 6)} for i in range(10)])
    block = collection([{i % 6: 1, (i + 2) % 6: 2} for i in range(31)])
    # ten columns per slab of 100 cells: 31 rows need four slabs
    monkeypatch.setattr(vector, "RANK_SLAB_CELLS", 100)
    got, _ = assert_equals_scalar(
        c1, block, 3, norms1=norms_of(c1, ()), norms2=norms_of(block, ())
    )
    assert len(got) == 31 and all(len(row) == 3 for row in got)
