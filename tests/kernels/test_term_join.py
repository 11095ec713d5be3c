"""The head/tail term join against a brute-force dict dot product.

``_term_join`` is the one all-pairs primitive behind HHNL chunk scoring
and the VVM flush.  Every case runs it three ways — split rule as
shipped, every shared term forced through the dense product, every
term forced through the ragged tail — and all three must equal the
per-pair Python sum exactly (``==`` on float64, not ``approx``: the
arithmetic is integer sums far below 2**53).
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.kernels import vector
from repro.text.document import Document
from repro.text.serialization import MAX_OCCURRENCES, MAX_TERM_NUMBER

#: ``_DENSE_SHARE`` settings: as shipped, all-dense, all-tail
SPLITS = {"shipped": vector._DENSE_SHARE, "dense": 1 << 60, "tail": 0}


def brute_force(left, right):
    """``matrix[i][j]`` = dot product of two ``{term: weight}`` dicts."""
    return [
        [float(sum(w * b[t] for t, w in a.items() if t in b)) for b in right]
        for a in left
    ]


def side(docs):
    """Concatenated ``(terms, weights, owners)`` arrays of a list of dicts."""
    cells = [(t, w, i) for i, doc in enumerate(docs) for t, w in sorted(doc.items())]
    columns = list(zip(*cells)) or [(), (), ()]
    return [np.asarray(column, dtype=np.int64) for column in columns]


def join(left, right):
    """``_term_join`` over dict documents, the left side term-sorted."""
    terms, weights, rows = side(left)
    order = np.argsort(terms, kind="stable")
    return vector._term_join(
        terms[order], weights[order], rows[order], len(left), *side(right), len(right)
    )


def assert_all_splits_exact(monkeypatch, left, right):
    expected = brute_force(left, right)
    for name, share in SPLITS.items():
        monkeypatch.setattr(vector, "_DENSE_SHARE", share)
        got = join(left, right)
        assert got.shape == (len(left), len(right)), name
        assert got.dtype == np.float64, name
        assert got.tolist() == expected, name


def test_mixed_head_and_tail(monkeypatch):
    # term 1 is in every document; every other term pairs at most once
    left = [{1: 2, 100 + i: 1 + i} for i in range(40)]
    right = [{1: 5, 100 + j: 2, 900: 7} for j in range(50)]
    assert_all_splits_exact(monkeypatch, left, right)
    # as shipped this case really does take both paths: term 1 pairs in
    # every cell of the matrix, a single pair is too small a share of it
    assert 1 * vector._DENSE_SHARE < len(left) * len(right)


def test_single_shared_term(monkeypatch):
    assert_all_splits_exact(
        monkeypatch, [{3: 2}, {4: 1}], [{3: 7}, {5: 1}, {3: 1, 6: 9}]
    )


def test_no_shared_term(monkeypatch):
    assert_all_splits_exact(monkeypatch, [{1: 1}, {2: 2}], [{3: 3}, {4: 4}])


@pytest.mark.parametrize(
    "left, right", [([{}, {}], [{1: 1}]), ([{1: 1}], [{}, {}, {}])]
)
def test_empty_side(monkeypatch, left, right):
    assert_all_splits_exact(monkeypatch, left, right)


def test_extreme_term_numbers_and_weights(monkeypatch):
    top = MAX_TERM_NUMBER
    left = [{top: MAX_OCCURRENCES, top - 1: MAX_OCCURRENCES, 0: 1}, {top: 1}]
    right = [{top: MAX_OCCURRENCES, top - 1: MAX_OCCURRENCES}, {0: MAX_OCCURRENCES}]
    assert_all_splits_exact(monkeypatch, left, right)
    assert join(left, right)[0, 0] == 2.0 * MAX_OCCURRENCES**2


def test_more_dense_terms_than_the_operand_cap(monkeypatch):
    # 1 x 3 output: the operands may hold one term; four qualify, three
    # overflow to the tail, and the sum must not notice
    left = [{t: t + 1 for t in range(4)}]
    right = [{t: 2 for t in range(4)}, {0: 1, 3: 1}, {1: 5}]
    assert_all_splits_exact(monkeypatch, left, right)


documents = st.lists(
    st.dictionaries(
        st.integers(min_value=0, max_value=14),
        st.integers(min_value=1, max_value=MAX_OCCURRENCES),
        max_size=8,
    ),
    min_size=1,
    max_size=9,
)


@given(
    left=documents,
    right=documents,
    base=st.sampled_from([0, MAX_TERM_NUMBER - 14]),
    share=st.sampled_from(sorted(SPLITS.values())),
)
def test_equals_brute_force(left, right, base, share):
    left = [{base + t: w for t, w in doc.items()} for doc in left]
    right = [{base + t: w for t, w in doc.items()} for doc in right]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vector, "_DENSE_SHARE", share)
        assert join(left, right).tolist() == brute_force(left, right)


def test_memory_is_not_sized_by_the_vocabulary():
    """50 x 50 documents over term numbers near 2**24 score in under 10 MB.

    One table indexed by raw term number would be 128 MB of int64; the
    join compacts terms to their rank among the chunk's terms first.
    """
    low = MAX_TERM_NUMBER - 300

    def collection(stride):
        return [
            Document.from_counts(
                i, {low + (i * stride + 5 * k) % 300: 1 + k for k in range(20)}
            )
            for i in range(50)
        ]

    chunk, streamed = collection(7), collection(11)
    tracemalloc.start()
    try:
        scorer = vector.VectorChunkScorer(chunk)
        for doc in streamed:
            scorer.collect(doc)
        rows = [list(scorer.ranked_candidates(p, 5, None, 0.0)) for p in range(50)]
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 1024 * 1024
    assert any(rows)
