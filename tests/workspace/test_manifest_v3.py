"""Schema-generation compatibility: v2 manifests in a segmented world."""

import pytest

from repro.errors import WorkspaceError
from repro.workspace import (
    LEGACY_SEGMENT_ID,
    WORKSPACE_SCHEMA_V3,
    load_manifest,
    load_workspace,
    manifest_files,
    manifest_segments,
    manifest_version,
    validate_manifest,
    verify_workspace,
)


class TestV2ReadsAsSingleBaseSegment:
    def test_build_workspace_still_writes_v2(self, built):
        _, manifest = built
        assert manifest["schema"] == "repro-workspace/2"
        assert "segments" not in manifest

    def test_v2_normalises_to_one_synthetic_base(self, built):
        _, manifest = built
        records = manifest_segments(manifest)
        assert len(records) == 1
        assert records[0]["id"] == LEGACY_SEGMENT_ID
        assert records[0]["kind"] == "base"
        assert records[0]["path"] == ""
        assert records[0]["tombstones"] == {}

    def test_synthetic_segment_carries_the_artifact_files(self, built):
        _, manifest = built
        records = manifest_segments(manifest)
        assert set(records[0]["files"]) == set(manifest["files"])
        assert manifest_files(manifest) == manifest["files"]

    def test_v2_version_counts_as_one(self, built):
        _, manifest = built
        assert manifest_version(manifest) == 1

    def test_v2_workspace_loads_and_verifies_unchanged(self, built):
        directory, _ = built
        assert verify_workspace(directory) == []
        factory = load_workspace(directory)
        assert factory.create().collection1.n_documents == 40


class TestV2SegmentsClaimRejected:
    def test_v2_manifest_claiming_segments_is_rejected(self, built):
        directory, manifest = built
        bad = dict(manifest)
        bad["segments"] = manifest_segments(manifest)
        with pytest.raises(WorkspaceError, match="claims segments"):
            validate_manifest(bad)

    def test_rejection_happens_at_load_time_too(self, built):
        import json

        from repro.workspace import MANIFEST_NAME

        directory, manifest = built
        bad = dict(manifest)
        bad["segments"] = manifest_segments(manifest)
        (directory / MANIFEST_NAME).write_text(json.dumps(bad))
        with pytest.raises(WorkspaceError, match="claims segments"):
            load_manifest(directory)


class TestV3Validation:
    @pytest.fixture()
    def v3(self, built):
        from repro.workspace import MutationBatch, apply_mutations

        directory, _ = built
        apply_mutations(
            directory,
            MutationBatch.from_term_lists(inserts={"c1": [[1, 2]]}),
        )
        return directory, load_manifest(directory)

    def test_mutated_manifest_is_v3(self, v3):
        _, manifest = v3
        assert manifest["schema"] == WORKSPACE_SCHEMA_V3
        assert manifest_version(manifest) == 2
        validate_manifest(manifest)

    def test_v3_requires_a_segments_list(self, v3):
        _, manifest = v3
        bad = {k: v for k, v in manifest.items() if k != "segments"}
        with pytest.raises(WorkspaceError):
            validate_manifest(bad)

    def test_v3_requires_a_positive_version(self, v3):
        _, manifest = v3
        bad = dict(manifest)
        bad["version"] = 0
        with pytest.raises(WorkspaceError, match="version"):
            validate_manifest(bad)

    def test_only_the_last_segment_may_be_a_delta(self, v3):
        _, manifest = v3
        bad = dict(manifest)
        bad["segments"] = [dict(s) for s in manifest["segments"]]
        bad["segments"][0]["kind"] = "delta"
        with pytest.raises(WorkspaceError):
            validate_manifest(bad)

    def test_top_level_files_hold_only_the_vocabulary(self, v3):
        _, manifest = v3
        assert manifest["vocabulary"] is None
        assert manifest["files"] == {}
        assert len(manifest_files(manifest)) > 0

    def test_fingerprint_shifts_with_the_version(self, v3):
        from repro.workspace import manifest_fingerprint

        _, manifest = v3
        bumped = dict(manifest)
        bumped["version"] = manifest_version(manifest) + 1
        assert manifest_fingerprint(bumped) != manifest_fingerprint(manifest)


def _first_file(record):
    return next(iter(record["files"].values()))


#: field named by the error (plus a tag) -> an in-place manifest edit
HOSTILE_NUMBERS = {
    "bytes": lambda m: _first_file(m["segments"][1]).update(bytes=-5),
    "n_documents": lambda m: m["collections"]["c1"].update(n_documents=-1),
    "total_bytes": lambda m: m["segments"][0]["collections"]["c2"].update(
        total_bytes=-1
    ),
    "avg_terms_per_doc nan": lambda m: m["collections"]["c2"].update(
        avg_terms_per_doc=float("nan")
    ),
    "avg_terms_per_doc inf": lambda m: m["segments"][1]["collections"]["c1"].update(
        avg_terms_per_doc=float("inf")
    ),
}


class TestHostileRecords:
    """Hand-edited manifests that once loaded, and what they led to."""

    @pytest.fixture()
    def v3(self, built):
        from repro.workspace import MutationBatch, apply_mutations

        directory, _ = built
        apply_mutations(
            directory, MutationBatch.from_term_lists(inserts={"c1": [[1, 2]]})
        )
        return directory, load_manifest(directory)

    def test_dot_segment_path_is_rejected_and_compact_deletes_nothing(self, v3):
        # The fingerprint does not cover ``path``, so only the shape check
        # stands between this edit and ``rmtree(directory / ".")``.
        import json

        from repro.workspace import MANIFEST_NAME, compact

        directory, manifest = v3
        manifest["segments"][0]["path"] = "."
        (directory / MANIFEST_NAME).write_text(json.dumps(manifest))
        before = sorted(p.name for p in directory.iterdir())
        with pytest.raises(WorkspaceError, match="'path'"):
            load_workspace(directory)
        with pytest.raises(WorkspaceError, match="'path'"):
            compact(directory)
        assert sorted(p.name for p in directory.iterdir()) == before

    @pytest.mark.parametrize("edit", sorted(HOSTILE_NUMBERS))
    def test_negative_counts_and_non_finite_floats_are_rejected(self, v3, edit):
        import json

        from repro.workspace import MANIFEST_NAME

        directory, manifest = v3
        HOSTILE_NUMBERS[edit](manifest)
        # json writes NaN and Infinity, and json.loads reads them back
        (directory / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(WorkspaceError, match=repr(edit.split()[0])):
            load_manifest(directory)

