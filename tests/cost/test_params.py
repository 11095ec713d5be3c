"""Parameter dataclasses and the JoinSide selection semantics."""

import math

import pytest

from repro.cost.params import JoinSide, QueryParams, SystemParams
from repro.errors import CostModelError
from repro.index.stats import CollectionStats


def stats(n=1000, k=100, t=5000):
    return CollectionStats("c", n, k, t)


class TestSystemParams:
    def test_paper_defaults(self):
        p = SystemParams()
        assert p.buffer_pages == 10_000
        assert p.page_bytes == 4096
        assert p.alpha == 5.0

    def test_with_buffer_and_alpha(self):
        p = SystemParams().with_buffer(500).with_alpha(2.0)
        assert p.buffer_pages == 500
        assert p.alpha == 2.0

    @pytest.mark.parametrize("kw", [{"buffer_pages": 0}, {"page_bytes": 0}, {"alpha": 0.5}])
    def test_validation(self, kw):
        with pytest.raises(CostModelError):
            SystemParams(**kw)


class TestQueryParams:
    def test_paper_defaults(self):
        q = QueryParams()
        assert q.lam == 20
        assert q.delta == 0.1

    @pytest.mark.parametrize("kw", [{"lam": 0}, {"delta": -0.1}, {"delta": 1.5}])
    def test_validation(self, kw):
        with pytest.raises(CostModelError):
            QueryParams(**kw)


class TestJoinSide:
    def test_unselected(self):
        side = JoinSide(stats())
        assert not side.is_selected
        assert side.n_participating == 1000

    def test_selected(self):
        side = JoinSide(stats(), participating=10)
        assert side.is_selected
        assert side.n_participating == 10

    def test_participating_equal_to_n_is_not_selected(self):
        side = JoinSide(stats(), participating=1000)
        assert not side.is_selected

    def test_participating_bounds(self):
        with pytest.raises(CostModelError):
            JoinSide(stats(), participating=-1)
        with pytest.raises(CostModelError):
            JoinSide(stats(), participating=1001)

    def test_selected_method(self):
        side = JoinSide(stats()).selected(5)
        assert side.n_participating == 5


class TestDocumentReadCost:
    def test_unselected_is_full_scan(self):
        side = JoinSide(stats())
        assert side.document_read_cost(alpha=5) == pytest.approx(side.stats.D)

    def test_small_selection_pays_random_reads(self):
        side = JoinSide(stats(), participating=10)
        expected = 10 * math.ceil(side.stats.S) * 5
        assert side.document_read_cost(alpha=5) == pytest.approx(expected)

    def test_large_selection_capped_at_full_scan(self):
        # Random-fetching 900 of 1000 sub-page docs would cost 900*1*5,
        # far beyond scanning the whole 122-page collection.
        side = JoinSide(stats(), participating=900)
        assert side.document_read_cost(alpha=5) == pytest.approx(side.stats.D)

    def test_alpha_scales_random_cost(self):
        side = JoinSide(stats(), participating=10)
        assert side.document_read_cost(10) == 2 * side.document_read_cost(5)

    def test_read_policy_is_the_priced_one(self):
        # the operators ask fetch_at_random; the model must price that choice
        assert not JoinSide(stats()).fetch_at_random(5)
        assert JoinSide(stats(), participating=10).fetch_at_random(5)
        assert not JoinSide(stats(), participating=900).fetch_at_random(5)
        for participating in range(0, 1000, 7):  # every one a selection
            side = JoinSide(stats(), participating=participating)
            scan, fetch = side.stats.D, side.random_fetch_cost(5)
            assert side.fetch_at_random(5) == (fetch < scan)
            assert side.document_read_cost(5) == min(scan, fetch)
