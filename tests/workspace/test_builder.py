"""build_workspace: the full artifact set, correctly checksummed."""

import pytest

from repro.core import EnvironmentSpec
from repro.errors import WorkspaceError
from repro.text.vocabulary import Vocabulary
from repro.workspace import (
    MANIFEST_NAME,
    VOCABULARY_NAME,
    build_workspace,
    collection_files,
    file_checksum,
    load_workspace,
    verify_workspace,
)


class TestArtifactSet:
    def test_cross_join_writes_both_sides(self, built):
        directory, manifest = built
        expected = set(collection_files("ws-c1")) | set(collection_files("ws-c2"))
        assert set(manifest["files"]) == expected
        for file_name in expected | {MANIFEST_NAME}:
            assert (directory / file_name).is_file()

    def test_self_join_writes_one_side(self, tmp_path, collections):
        c1, _ = collections
        manifest = build_workspace(tmp_path, c1)
        assert manifest["self_join"] is True
        assert set(manifest["files"]) == set(collection_files("ws-c1"))
        assert list(manifest["collections"]) == ["c1"]

    def test_passing_the_same_object_twice_is_a_self_join(self, tmp_path, collections):
        c1, _ = collections
        manifest = build_workspace(tmp_path, c1, c1)
        assert manifest["self_join"] is True

    def test_checksums_match_the_files(self, built):
        directory, manifest = built
        for file_name, entry in manifest["files"].items():
            path = directory / file_name
            assert path.stat().st_size == entry["bytes"]
            assert file_checksum(path) == entry["sha256"]

    def test_collection_statistics_recorded(self, built, collections):
        _, manifest = built
        c1, _ = collections
        entry = manifest["collections"]["c1"]
        assert entry["n_documents"] == c1.n_documents
        assert entry["total_bytes"] == c1.total_bytes
        assert entry["n_distinct_terms"] == c1.n_distinct_terms

    def test_vocabulary_is_saved_and_checksummed(self, tmp_path, collections):
        c1, _ = collections
        vocabulary = Vocabulary()
        vocabulary.add_all(["alpha", "beta"])
        manifest = build_workspace(tmp_path, c1, vocabulary=vocabulary)
        assert manifest["vocabulary"] == VOCABULARY_NAME
        assert VOCABULARY_NAME in manifest["files"]
        assert (tmp_path / VOCABULARY_NAME).is_file()


class TestRejections:
    def test_compressed_spec_builds_a_vbyte_workspace(self, tmp_path, collections):
        c1, _ = collections
        spec = EnvironmentSpec(codec="vbyte")
        manifest = build_workspace(tmp_path, c1, spec=spec)
        assert manifest["codec"] == "vbyte"
        assert verify_workspace(tmp_path) == []
        factory = load_workspace(tmp_path)
        assert factory.spec.codec == "vbyte"
        assert factory.derivation_events() == []

    def test_no_inverted_spec_rejected(self, tmp_path, collections):
        c1, _ = collections
        spec = EnvironmentSpec(build_inverted=False)
        with pytest.raises(WorkspaceError, match="inverted"):
            build_workspace(tmp_path, c1, spec=spec)

    def test_duplicate_cross_join_names_rejected(self, tmp_path, collections):
        from repro.workloads.synthetic import SyntheticSpec, generate_collection

        c1, _ = collections
        clash = generate_collection(
            SyntheticSpec("ws-c1", n_documents=5, avg_terms_per_doc=4,
                          vocabulary_size=50, seed=3)
        )
        with pytest.raises(WorkspaceError, match="distinct names"):
            build_workspace(tmp_path, c1, clash)


class TestLayoutParameters:
    def test_spec_parameters_land_in_the_manifest(self, tmp_path, collections):
        c1, _ = collections
        spec = EnvironmentSpec(page_bytes=1024, btree_order=8)
        manifest = build_workspace(tmp_path, c1, spec=spec)
        assert manifest["page_bytes"] == 1024
        assert manifest["btree_order"] == 8
