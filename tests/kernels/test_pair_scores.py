"""``VectorPairScores``: dense flush and row fallback are one accumulator.

The dense path scores a whole merge pass in one term join; above
``DENSE_CELL_LIMIT`` the accumulator keeps lazily-allocated rows
instead.  Both must yield the scalar accumulator's rows and its
``peak_cells`` — the latter is a reported ``extras`` figure, so it is
part of byte identity, not a detail.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.index.inverted import InvertedEntry
from repro.kernels import resolve_kernels, vector

N_DOCS = 9
#: deliberately not ascending: chunk rows are positions, not sorted ids
CHUNK = (7, 2, 5, 0)


def postings(ids):
    return st.dictionaries(
        st.sampled_from(ids), st.integers(min_value=1, max_value=50), min_size=1
    ).map(lambda cells: tuple(sorted(cells.items())))


#: one merge pass: per matched term, the outer and the inner posting list
passes = st.lists(st.tuples(postings(CHUNK), postings(range(N_DOCS))), max_size=12)
norms = st.none() | st.just({doc: 1.0 + doc / 4 for doc in range(N_DOCS)})


def run_pass(backend, blocks, lam, inner_norms):
    """(rows per chunk document, peak cells) of one pass on ``backend``."""
    kernels = resolve_kernels(backend)
    scores = kernels.pair_scores(N_DOCS)
    scores.clear()
    scores.begin_chunk(CHUNK)
    for term, (outer, inner) in enumerate(blocks):
        scores.add_block(
            kernels.entry_batch(InvertedEntry(term, outer), None),
            kernels.entry_batch(InvertedEntry(term, inner), None),
        )
    prepared = kernels.prepare_norms(inner_norms, N_DOCS)
    rows = {
        doc: sorted(scores.row_ranked(doc, lam, prepared, 1.5)) for doc in CHUNK
    }
    return rows, scores.peak_cells


@given(blocks=passes, inner_norms=norms)
def test_dense_and_row_fallback_agree_with_scalar(blocks, inner_norms):
    # lam above N_DOCS: no pre-cut, so rows compare cell for cell
    expected = run_pass("scalar", blocks, N_DOCS + 1, inner_norms)
    assert run_pass("numpy", blocks, N_DOCS + 1, inner_norms) == expected
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vector, "DENSE_CELL_LIMIT", 0)
        assert run_pass("numpy", blocks, N_DOCS + 1, inner_norms) == expected


def test_fallback_is_really_taken_below_the_patched_limit(monkeypatch):
    monkeypatch.setattr(vector, "DENSE_CELL_LIMIT", len(CHUNK) * N_DOCS - 1)
    scores = vector.VectorPairScores(N_DOCS)
    scores.begin_chunk(CHUNK)
    batch = vector._PostingBatch(np.asarray([2]), np.asarray([3]))
    scores.add_block(batch, batch)
    assert scores._rows and not scores._blocks
    assert list(scores.row_ranked(2, 1, None, 0.0)) == [(2, 9)]
    assert scores.peak_cells == 1


def test_unnormalised_rows_render_as_ints_on_both_paths(monkeypatch):
    blocks = [(((0, 3), (7, 2)), ((1, 4), (8, 5)))]
    for limit in (vector.DENSE_CELL_LIMIT, 0):
        monkeypatch.setattr(vector, "DENSE_CELL_LIMIT", limit)
        rows, peak = run_pass("numpy", blocks, 3, None)
        assert rows[7] == [(1, 8), (8, 10)] and rows[0] == [(1, 12), (8, 15)]
        assert all(type(s) is int for row in rows.values() for _d, s in row)
        assert rows[2] == rows[5] == [] and peak == 4
