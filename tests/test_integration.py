"""End-to-end integration: every layer working together.

Pipelines exercised here cross module boundaries on purpose: raw text →
tokenizer → vocabulary → collections → storage layout → (compressed)
indexes → optimizer → executor → SQL → persistence.
"""

import pytest

from repro.core.join import JoinEnvironment, TextJoinSpec
from repro.core.integrated import IntegratedJoin
from repro.core.optimizer import OptimizerConfig, execute_plan, optimize
from repro.cost.params import QueryParams, SystemParams
from repro.sql import Catalog, Relation, execute
from repro.storage.pages import PageGeometry
from repro.text import DocumentCollection, Tokenizer, Vocabulary
from repro.text.serialization import load_collection, save_collection
from repro.workloads.synthetic import SyntheticSpec, generate_collection

ABSTRACTS = [
    "efficient join processing for textual attributes in multidatabase systems",
    "inverted file organizations and buffer replacement policies",
    "cost models for nested loop and merge join algorithms",
    "vector space retrieval with term weighting and cosine similarity",
    "b-tree indexes for secondary storage access paths",
    "parallel query execution in shared nothing architectures",
]

PROFILES = [
    "query processing join algorithms cost models",
    "information retrieval inverted files ranking",
    "storage indexing b-trees buffer management",
]


@pytest.fixture(scope="module")
def corpus():
    vocabulary = Vocabulary()
    tokenizer = Tokenizer()
    abstracts = DocumentCollection.from_texts("abstracts", ABSTRACTS, vocabulary, tokenizer)
    profiles = DocumentCollection.from_texts("profiles", PROFILES, vocabulary, tokenizer)
    return abstracts, profiles


class TestTextToJoin:
    def test_full_pipeline(self, corpus):
        abstracts, profiles = corpus
        env = JoinEnvironment(abstracts, profiles)
        joiner = IntegratedJoin(env, SystemParams(buffer_pages=64))
        result = joiner.run(TextJoinSpec(lam=2))
        assert set(result.matches) == set(range(len(PROFILES)))
        # the retrieval profile should match the retrieval abstract best
        retrieval_hits = [doc for doc, _ in result.matches[1]]
        assert 3 in retrieval_hits  # "vector space retrieval ..."

    def test_pipeline_with_compression(self, corpus):
        abstracts, profiles = corpus
        plain = JoinEnvironment(abstracts, profiles)
        packed = JoinEnvironment(abstracts, profiles, codec="vbyte")
        system = SystemParams(buffer_pages=64)
        a = IntegratedJoin(plain, system).run(TextJoinSpec(lam=2))
        b = IntegratedJoin(packed, system).run(TextJoinSpec(lam=2))
        assert a.same_matches_as(b)


class TestPersistenceToJoin:
    def test_saved_collection_joins_identically(self, corpus, tmp_path):
        abstracts, profiles = corpus
        save_collection(abstracts, tmp_path)
        save_collection(profiles, tmp_path)
        reloaded_a = load_collection("abstracts", tmp_path)
        reloaded_p = load_collection("profiles", tmp_path)
        system = SystemParams(buffer_pages=64)
        original = IntegratedJoin(
            JoinEnvironment(abstracts, profiles), system
        ).run(TextJoinSpec(lam=2))
        reloaded = IntegratedJoin(
            JoinEnvironment(reloaded_a, reloaded_p), system
        ).run(TextJoinSpec(lam=2))
        assert original.same_matches_as(reloaded)


class TestOptimizerToSql:
    def test_optimizer_plan_equals_sql_result(self, corpus):
        abstracts, profiles = corpus
        system = SystemParams(buffer_pages=64)

        # through the optimizer API
        env = JoinEnvironment(abstracts, profiles)
        plan = optimize(
            *env.cost_sides(), system, QueryParams(lam=2),
            OptimizerConfig(consider_backward=False),
            q=env.measured_q(), p=env.measured_p(),
        )
        direct = execute_plan(plan.best, env, TextJoinSpec(lam=2), system)

        # through SQL
        papers = Relation.from_rows(
            "Papers", [{"Id": i} for i in range(len(ABSTRACTS))]
        ).bind_text("Abstract", abstracts)
        reviewers = Relation.from_rows(
            "Reviewers", [{"Name": f"r{i}"} for i in range(len(PROFILES))]
        ).bind_text("Profile", profiles)
        catalog = Catalog()
        catalog.register(papers)
        catalog.register(reviewers)
        result = execute(
            "SELECT R.Name, P.Id FROM Papers P, Reviewers R "
            "WHERE P.Abstract SIMILAR_TO(2) R.Profile",
            catalog,
            system,
        )
        sql_pairs = {
            (row["R.Name"], row["P.Id"]) for row in result.as_dicts()
        }
        direct_pairs = {
            (f"r{outer}", inner) for outer, inner, _ in direct.pairs()
        }
        assert sql_pairs == direct_pairs


class TestScaleSmoke:
    def test_mid_size_self_join_all_layers(self):
        collection = generate_collection(
            SyntheticSpec("mid", n_documents=250, avg_terms_per_doc=20,
                          vocabulary_size=900, seed=123)
        )
        env = JoinEnvironment(collection, collection, PageGeometry(512))
        system = SystemParams(buffer_pages=48, page_bytes=512)
        joiner = IntegratedJoin(env, system, consider_backward=True)
        result = joiner.run(TextJoinSpec(lam=5, normalized=True))
        assert len(result.matches) == 250
        # under cosine, every document's best match is itself
        for doc_id, hits in result.matches.items():
            assert hits[0][0] == doc_id
            assert hits[0][1] == pytest.approx(1.0)
