"""The segment layer: write/load round trips, merged views, error context."""

from types import SimpleNamespace

import pytest

from repro.core.environment import EnvironmentSpec
from repro.errors import ReproError
from repro.index.btree_io import layout_signature
from repro.index.codecs import resolve_codec
from repro.index.inverted import InvertedFile
from repro.text.collection import DocumentCollection
from repro.workspace import (
    LoadedSegment,
    load_segment,
    merged_view,
    write_segment,
)
from repro.workspace.segments import term_tree


@pytest.fixture()
def pair():
    c1 = DocumentCollection.from_term_lists(
        "seg1", [[1, 2, 3], [2, 4], [5, 5, 6], [1, 7]]
    )
    c2 = DocumentCollection.from_term_lists("seg2", [[2, 3], [1, 5, 8]])
    return c1, c2


@pytest.fixture()
def spec():
    return EnvironmentSpec(page_bytes=512)


class TestWriteLoadRoundTrip:
    def test_round_trip_preserves_documents(self, tmp_path, pair, spec):
        c1, c2 = pair
        record = write_segment(
            tmp_path, "seg-000001", {"c1": c1, "c2": c2}, {}, spec, kind="base"
        )
        loaded = load_segment(tmp_path, record, btree_order=spec.btree_order)
        assert loaded.segment_id == "seg-000001"
        for role, original in (("c1", c1), ("c2", c2)):
            assert [d.cells for d in loaded.collections[role]] == [
                d.cells for d in original
            ]

    def test_record_names_files_under_segment_path(self, tmp_path, pair, spec):
        c1, c2 = pair
        record = write_segment(
            tmp_path, "seg-000007", {"c1": c1, "c2": c2}, {}, spec
        )
        assert all(name.startswith("seg-000007/") for name in record["files"])
        assert (tmp_path / "seg-000007").is_dir()

    def test_tombstones_survive_the_round_trip(self, tmp_path, pair, spec):
        c1, _ = pair
        marks = {"c1": [("seg-000001", 0), ("seg-000001", 2)]}
        record = write_segment(
            tmp_path, "seg-000002", {"c1": c1}, marks, spec, kind="delta"
        )
        loaded = load_segment(tmp_path, record, btree_order=spec.btree_order)
        assert loaded.record["tombstones"] == {
            "c1": [["seg-000001", 0], ["seg-000001", 2]]
        }


class TestErrorContext:
    def test_load_failure_names_the_segment(self, tmp_path, pair, spec):
        """Satellite: error context names the failing segment id."""
        c1, c2 = pair
        record = write_segment(
            tmp_path, "seg-000003", {"c1": c1, "c2": c2}, {}, spec
        )
        victim = next(
            name for name in sorted(record["files"]) if name.endswith("docs.cells")
        )
        (tmp_path / victim).write_bytes(b"")
        with pytest.raises(ReproError) as excinfo:
            load_segment(tmp_path, record, btree_order=spec.btree_order)
        assert "seg-000003" in str(excinfo.value)

    def test_missing_file_names_the_segment(self, tmp_path, pair, spec):
        c1, c2 = pair
        record = write_segment(
            tmp_path, "seg-000004", {"c1": c1, "c2": c2}, {}, spec
        )
        victim = next(iter(sorted(record["files"])))
        (tmp_path / victim).unlink()
        with pytest.raises(ReproError) as excinfo:
            load_segment(tmp_path, record, btree_order=spec.btree_order)
        assert "seg-000004" in str(excinfo.value)


class TestMergedView:
    def _segments(self, tmp_path, spec, parts, tombstones_last=None):
        records = []
        for i, docs in enumerate(parts):
            collection = DocumentCollection.from_term_lists(f"m{i}", docs)
            marks = {}
            if tombstones_last and i == len(parts) - 1:
                marks = tombstones_last
            kind = "delta" if i == len(parts) - 1 else "base"
            records.append(
                write_segment(
                    tmp_path, f"seg-{i:06d}", {"c1": collection}, marks, spec,
                    kind=kind,
                )
            )
        return [
            load_segment(tmp_path, record, btree_order=spec.btree_order)
            for record in records
        ]

    def test_concatenates_in_segment_order(self, tmp_path, spec):
        segments = self._segments(
            tmp_path, spec, [[[1, 2], [3]], [[4, 5]]]
        )
        side = merged_view("c1", "merged", segments, spec)
        assert side.collection.n_documents == 3
        assert [sorted(t for t, _ in d.cells) for d in side.collection] == [
            [1, 2], [3], [4, 5]
        ]

    def test_tombstones_skip_documents_and_renumber(self, tmp_path, spec):
        segments = self._segments(
            tmp_path, spec,
            [[[1, 2], [3], [6]], [[4, 5]]],
            tombstones_last={"c1": [("seg-000000", 1)]},
        )
        side = merged_view("c1", "merged", segments, spec)
        assert side.collection.n_documents == 3
        assert [sorted(t for t, _ in d.cells) for d in side.collection] == [
            [1, 2], [6], [4, 5]
        ]
        # the id map points each live (segment, local) at its dense slot
        assert side.global_ids[("seg-000000", 0)] == 0
        assert side.global_ids[("seg-000000", 2)] == 1
        assert side.global_ids[("seg-000001", 0)] == 2
        assert ("seg-000000", 1) not in side.global_ids

    def test_merged_inverted_matches_cold_build(self, tmp_path, spec):
        from repro.index.inverted import InvertedFile

        segments = self._segments(
            tmp_path, spec,
            [[[1, 2], [3], [6]], [[2, 6], [1]]],
            tombstones_last={"c1": [("seg-000000", 2)]},
        )
        side = merged_view("c1", "merged", segments, spec)
        cold = InvertedFile.build(side.collection)
        assert side.inverted.entries == cold.entries


def _side_facts(side):
    return (
        [(d.doc_id, d.cells) for d in side.collection],
        [(e.term, e.postings, e.n_bytes) for e in side.inverted.entries],
        side.collection.document_frequency(),
    )


class TestSharedMerge:
    """The merged view shares its leading base instead of copying it."""

    BASE = [[1, 2], [2, 3], [3, 3, 4], [4, 5], [1, 9]]

    def _merged(self, tmp_path, codec, tombstoned=(), inserted=()):
        spec = EnvironmentSpec(page_bytes=512, codec=codec)
        base = write_segment(
            tmp_path,
            "seg-000000",
            {"c1": DocumentCollection.from_term_lists("m", self.BASE)},
            {},
            spec,
            kind="base",
        )
        delta = write_segment(
            tmp_path,
            "seg-000001",
            {"c1": DocumentCollection.from_term_lists("m", list(inserted))},
            {"c1": [("seg-000000", doc) for doc in tombstoned]},
            spec,
        )
        segments = [
            load_segment(tmp_path, record, btree_order=spec.btree_order)
            for record in (base, delta)
        ]
        side = merged_view("c1", "m", segments, spec)
        live = [t for i, t in enumerate(self.BASE) if i not in tombstoned]
        cold = DocumentCollection.from_term_lists("m", live + list(inserted))
        cold_side = SimpleNamespace(
            collection=cold,
            inverted=resolve_codec(codec).build(InvertedFile.build(cold)),
        )
        assert _side_facts(side) == _side_facts(cold_side)
        assert layout_signature(side.btree) == layout_signature(
            term_tree(side.inverted, spec.btree_order)
        )
        return segments[0], side

    @pytest.mark.parametrize("codec", ["raw", "vbyte"])
    @pytest.mark.parametrize(
        "tombstoned, inserted",
        [
            ((0,), ()),                    # the first document
            ((2,), ()),                    # a middle one
            ((4,), ()),                    # the last one
            ((1,), ([2, 7], [11])),        # delete, then insert
            ((4,), ([5],)),                # term 9 loses its every posting
            ((), ([1, 4, 12],)),           # insert only
            ((0, 1, 2, 3), ([8],)),        # nearly everything dies
        ],
    )
    def test_tombstones_equal_a_cold_build(self, tmp_path, codec, tombstoned, inserted):
        base, side = self._merged(tmp_path, codec, tombstoned, inserted)
        if tombstoned == (4,):
            assert 9 not in side.inverted

    @pytest.mark.parametrize("codec", ["raw", "vbyte"])
    def test_untouched_prefix_is_shared_not_copied(self, tmp_path, codec):
        base, side = self._merged(tmp_path, codec, (3,), ([2, 12],))
        # documents 0..2 keep their numbers: same objects; 4 renumbers to 3
        for doc_id in range(3):
            assert side.collection[doc_id] is base.collections["c1"][doc_id]
        assert side.collection[3] is not base.collections["c1"][4]
        # term 3 lives wholly in the prefix and the delta never mentions it
        assert side.inverted.entry(3) is base.inverted["c1"].entry(3)
        # term 2 is carried by the delta; 4 and 1 reach past the tombstone
        for term in (2, 4, 1):
            assert side.inverted.entry(term) is not base.inverted["c1"].entry(term)
        assert 5 not in side.inverted  # its only document died

    def test_entries_of_another_codec_are_not_shared(self, tmp_path):
        base_spec = EnvironmentSpec(page_bytes=512, codec="vbyte")
        record = write_segment(
            tmp_path,
            "seg-000000",
            {"c1": DocumentCollection.from_term_lists("m", self.BASE)},
            {},
            base_spec,
            kind="base",
        )
        segment = load_segment(tmp_path, record, btree_order=base_spec.btree_order)
        raw = merged_view("c1", "m", [segment], EnvironmentSpec(page_bytes=512))
        cold = InvertedFile.build(DocumentCollection.from_term_lists("m", self.BASE))
        assert [(e.term, e.postings, e.n_bytes) for e in raw.inverted.entries] == [
            (e.term, e.postings, e.n_bytes) for e in cold.entries
        ]


class TestHeldSegments:
    """load_segment hands back what the caller holds — keyed on the files."""

    def _written(self, tmp_path, spec, seg_id="seg-000001", docs=((1, 2), (2, 3))):
        record = write_segment(
            tmp_path,
            seg_id,
            {"c1": DocumentCollection.from_term_lists("h", [list(d) for d in docs])},
            {},
            spec,
        )
        return record, load_segment(tmp_path, record, btree_order=spec.btree_order)

    def test_matching_files_are_reused_without_reading(self, tmp_path, spec):
        import shutil

        record, held = self._written(tmp_path, spec)
        shutil.rmtree(tmp_path / "seg-000001")  # any read would now fail
        again = load_segment(
            tmp_path, record, btree_order=spec.btree_order, held=[held]
        )
        assert again.reused and not held.reused
        assert again.collections is held.collections
        assert again.inverted is held.inverted and again.btrees is held.btrees

    def test_reuse_survives_a_freeze(self, tmp_path, spec):
        from repro.workspace import segment_fingerprint

        record, held = self._written(tmp_path, spec)
        sealed = dict(record, kind="base")
        sealed["fingerprint"] = segment_fingerprint(sealed)
        assert sealed["fingerprint"] != record["fingerprint"]
        again = load_segment(
            tmp_path, sealed, btree_order=spec.btree_order, held=[held]
        )
        assert again.reused
        assert again.record == sealed and held.record == record

    def test_same_id_with_another_checksum_is_re_read(self, tmp_path, spec):
        _, held = self._written(tmp_path, spec)
        # the same segment id written again with different documents
        record, fresh = self._written(tmp_path, spec, docs=((7,), (8, 9)))
        assert record["id"] == held.record["id"]
        assert record["files"] != held.record["files"]
        again = load_segment(
            tmp_path, record, btree_order=spec.btree_order, held=[held]
        )
        assert not again.reused
        assert [d.cells for d in again.collections["c1"]] == [
            d.cells for d in fresh.collections["c1"]
        ]

    def test_another_codec_is_re_read(self, tmp_path, spec):
        record, held = self._written(tmp_path, spec)
        claimed = dict(held.record, codec="vbyte")
        stale = LoadedSegment(claimed, held.collections, held.inverted, held.btrees)
        again = load_segment(
            tmp_path, record, btree_order=spec.btree_order, held=[stale]
        )
        assert not again.reused


class TestHeldSides:
    """merged_sides hands back the held view exactly when its key matches."""

    def _segmented(self, tmp_path, pair):
        from repro.workspace import (
            MutationBatch,
            apply_mutations,
            build_workspace,
            load_manifest,
        )
        from repro.workspace.segments import load_segments

        c1, c2 = pair
        build_workspace(tmp_path, c1, c2)
        apply_mutations(
            tmp_path,
            MutationBatch.from_term_lists(
                inserts={"c1": [[1, 9]]}, deletes={"c2": [0]}
            ),
        )
        manifest = load_manifest(tmp_path)
        return manifest, load_segments(tmp_path, manifest)

    def test_a_matching_key_reuses_the_held_sides(self, tmp_path, pair):
        from repro.workspace import HeldSnapshot, freeze_delta, load_manifest
        from repro.workspace.segments import load_segments, merged_sides

        manifest, segments = self._segmented(tmp_path, pair)
        held = HeldSnapshot()
        sides = merged_sides(manifest, segments, held)
        assert held.sides is sides
        assert merged_sides(manifest, load_segments(tmp_path, manifest), held) is sides
        freeze_delta(tmp_path)  # kind and fingerprint move, no live document does
        frozen = load_manifest(tmp_path)
        assert merged_sides(frozen, load_segments(tmp_path, frozen), held) is sides
        assert merged_sides(frozen, segments, None) is not sides  # cold: always a fold

    @pytest.mark.parametrize(
        "field, value",
        [("id", "seg-999999"), ("files", {}), ("codec", "vbyte"), ("tombstones", {})],
    )
    def test_any_other_segment_change_moves_the_key(self, tmp_path, pair, field, value):
        from dataclasses import replace

        from repro.workspace.segments import sides_key

        manifest, segments = self._segmented(tmp_path, pair)
        delta = segments[-1]
        assert delta.record[field] != value
        record = dict(delta.record, **{field: value})
        altered = [*segments[:-1], replace(delta, record=record)]
        assert sides_key(manifest, altered) != sides_key(manifest, segments)
