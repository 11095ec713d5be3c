"""SQL write path: INSERT INTO / DELETE FROM against a workspace."""

import pytest

from repro.errors import SqlSemanticError, SqlSyntaxError
from repro.sql import (
    DeleteStatement,
    InsertStatement,
    execute_mutation,
    parse,
    parse_statement,
)
from repro.text.collection import DocumentCollection
from repro.text.tokenizer import Tokenizer
from repro.text.vocabulary import Vocabulary
from repro.workloads.synthetic import SyntheticSpec, generate_collection
from repro.workspace import build_workspace, load_manifest, load_workspace


@pytest.fixture()
def workspace(tmp_path):
    """A numeric (no-vocabulary) workspace: INSERT text is term numbers."""
    c1 = generate_collection(
        SyntheticSpec("c1", n_documents=12, avg_terms_per_doc=5,
                      vocabulary_size=60, seed=3)
    )
    c2 = generate_collection(
        SyntheticSpec("c2", n_documents=9, avg_terms_per_doc=5,
                      vocabulary_size=60, seed=4)
    )
    build_workspace(tmp_path, c1, c2)
    return tmp_path


@pytest.fixture()
def prose_workspace(tmp_path):
    """A vocabulary workspace: INSERT text tokenizes against the standard."""
    vocabulary = Vocabulary()
    tokenizer = Tokenizer()
    c1 = DocumentCollection.from_texts(
        "c1", ["the quick brown fox", "lazy dogs sleep"], vocabulary, tokenizer
    )
    c2 = DocumentCollection.from_texts(
        "c2", ["quick dogs", "brown fox runs"], vocabulary, tokenizer
    )
    vocabulary.freeze()
    build_workspace(tmp_path, c1, c2, vocabulary=vocabulary)
    return tmp_path


class TestParsing:
    def test_insert_statement_parses(self):
        statement = parse_statement(
            "INSERT INTO R1 (Doc) VALUES ('1 2 3'), ('4 5')"
        )
        assert isinstance(statement, InsertStatement)
        assert statement.table.name == "R1"
        assert statement.column == "Doc"
        assert statement.values == ("1 2 3", "4 5")

    def test_delete_statement_parses(self):
        statement = parse_statement("DELETE FROM R2 WHERE Id = 3")
        assert isinstance(statement, DeleteStatement)
        assert statement.table.name == "R2"
        assert len(statement.predicates) == 1

    def test_statements_round_trip_through_to_sql(self):
        for sql in (
            "INSERT INTO R1 (Doc) VALUES ('1 2 3'), ('4 5')",
            "DELETE FROM R2 WHERE Id = 3 AND Id <> 5",
        ):
            statement = parse_statement(sql)
            assert parse_statement(statement.to_sql()) == statement

    def test_plain_parse_stays_select_only(self):
        with pytest.raises(SqlSyntaxError):
            parse("INSERT INTO R1 (Doc) VALUES ('1')")

    def test_delete_rejects_similar_to(self):
        with pytest.raises(SqlSyntaxError, match="SIMILAR_TO"):
            parse_statement(
                "DELETE FROM R1 WHERE R1.Doc SIMILAR_TO(3) R1.Doc"
            )

    def test_insert_requires_values(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement("INSERT INTO R1 (Doc) VALUES")


class TestExecuteMutation:
    def test_insert_appends_documents(self, workspace):
        stats = execute_mutation(
            "INSERT INTO R1 (Doc) VALUES ('1 2 2 7'), ('9')", workspace
        )
        assert stats.inserted == {"c1": 2, "c2": 0}
        factory = load_workspace(workspace)
        environment = factory.create()
        assert environment.collection1.n_documents == 14
        assert environment.collection1[12].cells == ((1, 1), (2, 2), (7, 1))

    def test_delete_uses_live_ids(self, workspace):
        stats = execute_mutation("DELETE FROM R2 WHERE Id < 2", workspace)
        assert stats.deleted == {"c1": 0, "c2": 2}
        manifest = load_manifest(workspace)
        assert manifest["collections"]["c2"]["n_documents"] == 7

    def test_unknown_relation_is_semantic_error(self, workspace):
        with pytest.raises(SqlSemanticError, match="unknown relation"):
            execute_mutation("INSERT INTO R7 (Doc) VALUES ('1')", workspace)

    def test_non_doc_column_is_semantic_error(self, workspace):
        with pytest.raises(SqlSemanticError, match="Doc"):
            execute_mutation("INSERT INTO R1 (Id) VALUES ('1')", workspace)

    def test_non_numeric_text_without_vocabulary(self, workspace):
        with pytest.raises(SqlSemanticError, match="whitespace-separated"):
            execute_mutation("INSERT INTO R1 (Doc) VALUES ('hello')", workspace)

    def test_delete_matching_nothing_is_semantic_error(self, workspace):
        with pytest.raises(SqlSemanticError, match="matches no rows"):
            execute_mutation("DELETE FROM R1 WHERE Id = 999", workspace)

    def test_select_is_rejected(self, workspace):
        with pytest.raises(SqlSemanticError, match="INSERT and DELETE"):
            execute_mutation("SELECT * FROM R1", workspace)

    def test_wrong_binding_in_delete_predicate(self, workspace):
        with pytest.raises(SqlSemanticError, match="does not belong"):
            execute_mutation("DELETE FROM R1 WHERE R2.Id = 1", workspace)


class TestVocabularyWorkspace:
    def test_prose_insert_tokenizes_against_the_standard(self, prose_workspace):
        stats = execute_mutation(
            "INSERT INTO R1 (Doc) VALUES ('quick brown dogs')", prose_workspace
        )
        assert stats.inserted["c1"] == 1
        environment = load_workspace(prose_workspace).create()
        assert environment.collection1.n_documents == 3

    def test_unknown_word_is_rejected(self, prose_workspace):
        with pytest.raises(SqlSemanticError, match="not in the"):
            execute_mutation(
                "INSERT INTO R1 (Doc) VALUES ('zebra')", prose_workspace
            )


    def test_a_statement_reads_each_small_file_once(self, prose_workspace, file_reads):
        from repro.workspace import MANIFEST_NAME, VOCABULARY_NAME

        execute_mutation("INSERT INTO R2 (Doc) VALUES ('lazy fox')", prose_workspace)
        reads = file_reads()
        execute_mutation("INSERT INTO R1 (Doc) VALUES ('quick brown dogs')", prose_workspace)
        for name in (MANIFEST_NAME, VOCABULARY_NAME):
            assert reads.count(str(prose_workspace / name)) == 1, name


class TestSelfJoinWorkspace:
    @pytest.fixture()
    def self_ws(self, tmp_path):
        c1 = generate_collection(
            SyntheticSpec("c1", n_documents=10, avg_terms_per_doc=5,
                          vocabulary_size=50, seed=5)
        )
        build_workspace(tmp_path, c1, None)
        return tmp_path

    def test_r2_mutations_land_on_the_single_collection(self, self_ws):
        stats = execute_mutation(
            "INSERT INTO R2 (Doc) VALUES ('3 4')", self_ws
        )
        assert stats.inserted == {"c1": 1}
        manifest = load_manifest(self_ws)
        assert manifest["collections"]["c1"]["n_documents"] == 11
