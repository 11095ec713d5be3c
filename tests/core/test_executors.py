"""The three join executors: correctness against a brute-force oracle,
cross-algorithm agreement and I/O accounting behaviour."""

import pytest

from repro.core.hhnl import run_hhnl, run_hhnl_backward
from repro.core.hvnl import run_hvnl
from repro.core.join import JoinEnvironment, TextJoinSpec
from repro.core.vvm import run_vvm
from repro.cost.params import SystemParams
from repro.storage.pages import PageGeometry
from repro.storage.policies import FIFOPolicy, LRUPolicy
from repro.text.collection import DocumentCollection
from repro.text.document import Document
from repro.text.similarity import cosine_similarity, dot_product

RUNNERS = {"HHNL": run_hhnl, "HVNL": run_hvnl, "VVM": run_vvm}


def oracle(c1, c2, lam, outer_ids=None, similarity=dot_product):
    """Quadratic reference result: top-lambda positive sims per outer doc."""
    outer_ids = outer_ids if outer_ids is not None else range(c2.n_documents)
    expected = {}
    for outer in outer_ids:
        candidates = []
        for inner_doc in c1:
            sim = similarity(c2[outer], inner_doc)
            if sim > 0:
                candidates.append((inner_doc.doc_id, sim))
        candidates.sort(key=lambda pair: (-pair[1], pair[0]))
        expected[outer] = candidates[:lam]
    return expected


@pytest.fixture(params=["HHNL", "HVNL", "VVM"])
def runner(request):
    return request.param, RUNNERS[request.param]


class TestCorrectness:
    def test_matches_oracle_tiny(self, tiny_pair, runner):
        name, run = runner
        c1, c2 = tiny_pair
        env = JoinEnvironment(c1, c2, PageGeometry(64))
        result = run(env, TextJoinSpec(lam=2), SystemParams(buffer_pages=32, page_bytes=64))
        assert result.algorithm == name
        assert result.matches == oracle(c1, c2, 2)

    def test_matches_oracle_synthetic(self, synthetic_pair, runner, small_system):
        name, run = runner
        c1, c2 = synthetic_pair
        env = JoinEnvironment(c1, c2, PageGeometry(small_system.page_bytes))
        result = run(env, TextJoinSpec(lam=4), small_system)
        assert result.matches == oracle(c1, c2, 4)

    def test_self_join_matches_oracle(self, runner, small_system):
        name, run = runner
        c = DocumentCollection.from_term_lists(
            "self", [[1, 2, 3], [2, 3], [3, 4], [5, 6], [1, 6]]
        )
        env = JoinEnvironment(c, c, PageGeometry(small_system.page_bytes))
        result = run(env, TextJoinSpec(lam=3), small_system)
        assert result.matches == oracle(c, c, 3)

    def test_no_overlap_produces_empty_matches(self, runner, small_system):
        name, run = runner
        c1 = DocumentCollection.from_term_lists("a", [[1], [2]])
        c2 = DocumentCollection.from_term_lists("b", [[10], [11]])
        env = JoinEnvironment(c1, c2, PageGeometry(small_system.page_bytes))
        result = run(env, TextJoinSpec(lam=2), small_system)
        assert result.matches == {0: [], 1: []}

    def test_lambda_one(self, synthetic_pair, runner, small_system):
        name, run = runner
        c1, c2 = synthetic_pair
        env = JoinEnvironment(c1, c2, PageGeometry(small_system.page_bytes))
        result = run(env, TextJoinSpec(lam=1), small_system)
        assert result.matches == oracle(c1, c2, 1)

    def test_lambda_larger_than_collection(self, tiny_pair, runner, small_system):
        name, run = runner
        c1, c2 = tiny_pair
        env = JoinEnvironment(c1, c2, PageGeometry(small_system.page_bytes))
        result = run(env, TextJoinSpec(lam=100), small_system)
        assert result.matches == oracle(c1, c2, 100)

    def test_normalized_similarity(self, tiny_pair, runner, small_system):
        name, run = runner
        c1, c2 = tiny_pair
        env = JoinEnvironment(c1, c2, PageGeometry(small_system.page_bytes))
        result = run(env, TextJoinSpec(lam=2, normalized=True), small_system)
        expected = oracle(c1, c2, 2, similarity=cosine_similarity)
        assert set(result.matches) == set(expected)
        for outer in expected:
            assert [d for d, _ in result.matches[outer]] == [d for d, _ in expected[outer]]
            for (_, got), (_, want) in zip(result.matches[outer], expected[outer]):
                assert got == pytest.approx(want)


class TestSelection:
    def test_only_selected_outer_docs_in_result(self, synthetic_pair, runner, small_system):
        name, run = runner
        c1, c2 = synthetic_pair
        env = JoinEnvironment(c1, c2, PageGeometry(small_system.page_bytes))
        chosen = [3, 17, 42]
        result = run(env, TextJoinSpec(lam=3), small_system, outer_ids=chosen)
        assert set(result.matches) == set(chosen)
        assert result.matches == oracle(c1, c2, 3, outer_ids=chosen)

    def test_selection_cheaper_than_full_join(self, synthetic_pair, runner, small_system):
        name, run = runner
        c1, c2 = synthetic_pair
        env = JoinEnvironment(c1, c2, PageGeometry(small_system.page_bytes))
        full = run(env, TextJoinSpec(lam=3), small_system)
        few = run(env, TextJoinSpec(lam=3), small_system, outer_ids=[1, 2])
        if name == "VVM":
            # VVM still scans both inverted files; selection can only
            # reduce passes, never the single-pass floor.
            assert few.weighted_cost(5) <= full.weighted_cost(5)
        else:
            assert few.weighted_cost(5) < full.weighted_cost(5)


class TestIOAccounting:
    def test_hhnl_io_matches_manual_count(self, synthetic_pair, small_system):
        c1, c2 = synthetic_pair
        env = JoinEnvironment(c1, c2, PageGeometry(small_system.page_bytes))
        result = run_hhnl(env, TextJoinSpec(lam=3), small_system)
        x = result.extras["x"]
        scans = result.extras["inner_scans"]
        assert scans == -(-c2.n_documents // x)
        expected_pages = env.docs2.n_pages + scans * env.docs1.n_pages
        assert result.io.total_reads == expected_pages
        assert result.io.random_reads == 0  # no interference

    def test_hvnl_btree_charged_once(self, synthetic_pair, small_system):
        c1, c2 = synthetic_pair
        env = JoinEnvironment(c1, c2, PageGeometry(small_system.page_bytes))
        result = run_hvnl(env, TextJoinSpec(lam=3), small_system)
        seq, rnd = result.io.by_extent["c1.btree"]
        assert seq == result.extras["btree_pages"]
        assert rnd == 0

    def test_vvm_scans_both_inverted_files_per_pass(self, synthetic_pair, small_system):
        c1, c2 = synthetic_pair
        env = JoinEnvironment(c1, c2, PageGeometry(small_system.page_bytes))
        result = run_vvm(env, TextJoinSpec(lam=3), small_system, delta=0.3)
        passes = result.extras["passes"]
        expected = passes * (env.inv1_extent.n_pages + env.inv2_extent.n_pages)
        assert result.io.total_reads == expected

    def test_interference_increases_cost(self, synthetic_pair, runner, small_system):
        name, run = runner
        c1, c2 = synthetic_pair
        env = JoinEnvironment(c1, c2, PageGeometry(small_system.page_bytes))
        calm = run(env, TextJoinSpec(lam=3), small_system, interference=False)
        noisy = run(env, TextJoinSpec(lam=3), small_system, interference=True)
        assert noisy.weighted_cost(5) > calm.weighted_cost(5)
        assert noisy.matches == calm.matches  # results unaffected

    def test_runs_do_not_leak_io_between_calls(self, synthetic_pair, small_system):
        c1, c2 = synthetic_pair
        env = JoinEnvironment(c1, c2, PageGeometry(small_system.page_bytes))
        first = run_hhnl(env, TextJoinSpec(lam=3), small_system)
        second = run_hhnl(env, TextJoinSpec(lam=3), small_system)
        assert first.io.total_reads == second.io.total_reads


class TestHVNLBuffer:
    def test_small_buffer_evicts(self, synthetic_pair):
        c1, c2 = synthetic_pair
        system = SystemParams(buffer_pages=14, page_bytes=512)
        env = JoinEnvironment(c1, c2, PageGeometry(512))
        result = run_hvnl(env, TextJoinSpec(lam=3), system)
        assert result.extras["buffer_evictions"] > 0

    def test_roomy_buffer_fetches_each_entry_once(self, synthetic_pair, roomy_system):
        c1, c2 = synthetic_pair
        env = JoinEnvironment(c1, c2, PageGeometry(roomy_system.page_bytes))
        result = run_hvnl(env, TextJoinSpec(lam=3), roomy_system)
        if not result.extras["bulk_loaded"]:
            needed_terms = c2.terms() & c1.terms()
            assert result.extras["entries_fetched"] == len(needed_terms)

    def test_alternative_policies_still_correct(self, synthetic_pair, small_system):
        c1, c2 = synthetic_pair
        env = JoinEnvironment(c1, c2, PageGeometry(small_system.page_bytes))
        expected = oracle(c1, c2, 3)
        for policy in (LRUPolicy(), FIFOPolicy()):
            result = run_hvnl(env, TextJoinSpec(lam=3), small_system, policy=policy)
            assert result.matches == expected

    def test_passed_policy_is_actually_used(self, synthetic_pair, small_system):
        # Regression: an *empty* policy is falsy (it has __len__), so a
        # `policy or default` dispatch silently dropped it once.
        c1, c2 = synthetic_pair
        env = JoinEnvironment(c1, c2, PageGeometry(small_system.page_bytes))

        class SpyPolicy(LRUPolicy):
            victim_calls = 0

            def victim(self):
                SpyPolicy.victim_calls += 1
                return super().victim()

        result = run_hvnl(
            env, TextJoinSpec(lam=3), small_system, policy=SpyPolicy()
        )
        if result.extras["buffer_evictions"] > 0:
            assert SpyPolicy.victim_calls > 0

    def test_paper_policy_beats_generic_ones_under_churn(self, synthetic_pair):
        # Section 4.2's argument made measurable: lowest-df eviction
        # fetches no more entries than LRU/FIFO on a churn-heavy run.
        from repro.storage.policies import LowestDocFrequencyPolicy

        c1, c2 = synthetic_pair
        system = SystemParams(buffer_pages=14, page_bytes=512)
        env = JoinEnvironment(c1, c2, PageGeometry(512))
        fetched = {}
        for name, policy in (
            ("df", LowestDocFrequencyPolicy()),
            ("lru", LRUPolicy()),
            ("fifo", FIFOPolicy()),
        ):
            result = run_hvnl(env, TextJoinSpec(lam=3), system, policy=policy)
            fetched[name] = result.extras["entries_fetched"]
        assert fetched["df"] <= fetched["lru"]
        assert fetched["df"] <= fetched["fifo"]


class TestVVMPasses:
    def test_multi_pass_matches_single_pass_result(self, synthetic_pair):
        c1, c2 = synthetic_pair
        geometry = PageGeometry(512)
        env = JoinEnvironment(c1, c2, geometry)
        single = run_vvm(env, TextJoinSpec(lam=3), SystemParams(buffer_pages=4096, page_bytes=512))
        multi = run_vvm(env, TextJoinSpec(lam=3), SystemParams(buffer_pages=16, page_bytes=512), delta=0.9)
        assert multi.extras["passes"] > 1
        assert single.extras["passes"] == 1
        assert multi.matches == single.matches

    def test_measured_delta_reported(self, synthetic_pair, small_system):
        c1, c2 = synthetic_pair
        env = JoinEnvironment(c1, c2, PageGeometry(small_system.page_bytes))
        result = run_vvm(env, TextJoinSpec(lam=3), small_system)
        assert 0.0 < result.extras["measured_delta"] <= 1.0


class TestResultObject:
    def test_pairs_stream(self, tiny_pair, small_system):
        c1, c2 = tiny_pair
        env = JoinEnvironment(c1, c2, PageGeometry(small_system.page_bytes))
        result = run_hhnl(env, TextJoinSpec(lam=2), small_system)
        pairs = list(result.pairs())
        assert all(len(p) == 3 for p in pairs)
        outers = [p[0] for p in pairs]
        assert outers == sorted(outers)

    def test_same_matches_as(self, tiny_pair, small_system):
        c1, c2 = tiny_pair
        env = JoinEnvironment(c1, c2, PageGeometry(small_system.page_bytes))
        a = run_hhnl(env, TextJoinSpec(lam=2), small_system)
        b = run_vvm(env, TextJoinSpec(lam=2), small_system)
        assert a.same_matches_as(b)

    def test_weighted_cost_uses_alpha(self, synthetic_pair, small_system):
        c1, c2 = synthetic_pair
        env = JoinEnvironment(c1, c2, PageGeometry(small_system.page_bytes))
        result = run_hvnl(env, TextJoinSpec(lam=2), small_system)
        assert result.weighted_cost(10) >= result.weighted_cost(2)


class TestSimilarityFiniteness:
    """Regression: non-finite similarities must never reach the results.

    The normalised path divides by the product of document norms; TopK
    now rejects non-finite offers outright, so even a degenerate
    normalisation cannot poison the heap.  These tests pin the
    end-to-end guarantee on the executors' real code path.
    """

    def test_normalized_hvnl_results_all_finite(self, synthetic_pair, small_system):
        import math

        c1, c2 = synthetic_pair
        env = JoinEnvironment(c1, c2, PageGeometry(small_system.page_bytes))
        result = run_hvnl(env, TextJoinSpec(lam=3, normalized=True), small_system)
        sims = [s for matches in result.matches.values() for _, s in matches]
        assert sims, "normalized join should still produce matches"
        assert all(math.isfinite(s) and s > 0.0 for s in sims)

    def test_all_runners_finite_when_normalized(self, tiny_pair, runner, small_system):
        import math

        name, run = runner
        c1, c2 = tiny_pair
        env = JoinEnvironment(c1, c2, PageGeometry(small_system.page_bytes))
        result = run(env, TextJoinSpec(lam=5, normalized=True), small_system)
        for matches in result.matches.values():
            assert all(math.isfinite(s) for _, s in matches)


@pytest.mark.parametrize("backward", [False, True])
def test_hhnl_charges_no_page_past_a_trailing_empty_document(backward):
    # 10-byte pages: c2's empty document sits at byte 10, on page 1 of a
    # 1-page extent; c1's sits at byte 15, on its real second page.
    c1 = DocumentCollection(
        "a", [Document(0, [(1, 2), (2, 1)]), Document(1, [(1, 1)]), Document(2, [])]
    )
    c2 = DocumentCollection(
        "b", [Document(0, [(1, 1)]), Document(1, [(2, 3)]), Document(2, [])]
    )
    environment = JoinEnvironment(c1, c2, PageGeometry(10))
    assert (environment.docs1.n_pages, environment.docs2.n_pages) == (2, 1)
    run = run_hhnl_backward if backward else run_hhnl
    result = run(
        environment, TextJoinSpec(lam=2), SystemParams(buffer_pages=40, page_bytes=10)
    )
    assert result.io.by_extent == {"c1.docs": (2, 0), "c2.docs": (1, 0)}
    assert result.matches == {0: [(0, 2.0), (1, 1.0)], 1: [(0, 3.0)], 2: []}
