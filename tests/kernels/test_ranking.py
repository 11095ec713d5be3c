"""The shared ranking tail against ``TopK`` fed every candidate.

``_ranked`` may drop candidates (the strict-dominance pre-cut), so it
is not compared element-wise with the full candidate list: what must
be equal is the tracker's final answer, which is all the operators
ever read.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core.topk import TopK
from repro.kernels import vector


def top(candidates, lam):
    tracker = TopK(lam)
    for doc_id, similarity in candidates:
        tracker.offer(doc_id, similarity)
    return tracker.results()


def every_candidate(values, norms, norm, ids=None):
    """The scalar backends' loop: each positive cell, normalised, uncut."""
    for position, value in enumerate(values):
        if value <= 0:
            continue
        doc_id = position if ids is None else ids[position]
        if norms is not None:
            denominator = norms[doc_id] * norm
            value = value / denominator if denominator else 0.0
        yield doc_id, value


def assert_same_top(values, lam, norms, norm, ids=None):
    values = np.asarray(values, dtype=np.float64)
    norms = None if norms is None else np.asarray(norms, dtype=np.float64)
    ids = None if ids is None else np.asarray(ids, dtype=np.int64)
    ranked = list(vector._ranked(values, lam, norms, norm, ids))
    assert top(ranked, lam) == top(every_candidate(values, norms, norm, ids), lam)
    return ranked


def test_ties_at_the_lambda_th_value_are_all_kept():
    ranked = assert_same_top([4, 9, 4, 0, 4, 1], 2, None, 0.0)
    # 9 and every 4: which 4 wins is TopK's call (lowest id), not the cut's
    assert ranked == [(0, 4.0), (1, 9.0), (2, 4.0), (4, 4.0)]


def test_fewer_than_lambda_positives_are_all_kept():
    assert assert_same_top([0, 3, 0, 2], 5, None, 0.0) == [(1, 3.0), (3, 2.0)]


def test_zero_norms_yield_zero_similarity_not_a_division_error():
    assert_same_top([6, 6, 6], 2, [2.0, 0.0, 3.0], 1.0)
    assert dict(assert_same_top([6, 6, 6], 3, [2.0, 0.0, 3.0], 1.0))[1] == 0.0
    # a zero outer norm zeroes every candidate; the tracker keeps none
    assert top(assert_same_top([6, 6], 2, [2.0, 3.0], 0.0), 2) == []


def test_ids_map_positions_to_documents_and_index_the_norms():
    ranked = assert_same_top([5, 0, 8], 1, [0, 0, 0, 0, 2.0, 0, 0, 4.0], 1.0, ids=[7, 3, 4])
    assert ranked == [(4, 4.0)]


def test_integral_renders_unnormalised_sums_as_ints():
    values = np.asarray([3.0, 0.0, 7.0])
    assert list(vector._ranked(values, 5, None, 0.0, integral=True)) == [(0, 3), (2, 7)]
    assert all(
        type(s) is int for _d, s in vector._ranked(values, 5, None, 0.0, integral=True)
    )
    normalised = list(vector._ranked(values, 5, np.ones(3), 2.0, integral=True))
    assert normalised == [(0, 1.5), (2, 3.5)]


@given(
    values=st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=40),
    lam=st.integers(min_value=1, max_value=8),
    norms=st.none() | st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0]), min_size=40, max_size=40),
    norm=st.sampled_from([0.0, 1.0, 1.5]),
)
def test_same_top_lambda_as_every_candidate(values, lam, norms, norm):
    assert_same_top(values, lam, norms, norm)
