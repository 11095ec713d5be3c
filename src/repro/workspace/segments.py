"""Segmented workspaces: per-segment artifacts and the merged live view.

A v3 workspace is an ordered list of segments — immutable *base*
segments plus at most one trailing mutable *delta* — each holding its
own Section 3 physical artifacts (packed d-cells, inverted extent,
B+-tree leaves) in the workspace codec of its write time.  Deletes are
tombstones: a later segment marks ``(earlier_segment, local_doc)``
pairs dead without touching the earlier segment's files.

This module is the segment layer's mechanics:

* :func:`write_segment` persists one segment directory from in-memory
  collections (the mutation path's workhorse);
* :func:`load_segment` reads one segment back, re-raising any artifact
  error with the segment id prefixed so a corrupt multi-segment
  workspace names the failing segment alongside the file/record/byte
  detail;
* :func:`merged_view` folds the loaded segments into one logical
  collection + inverted file + term tree per role.  Live documents are
  renumbered ``0..N-1`` in (segment, local) order and the per-term
  posting runs concatenate in that same order
  (:func:`repro.index.inverted.merge_inverted_segments`), so the merged
  artifacts are **value-identical to a cold rebuild** from the live
  document set — which is exactly why everything downstream (operators,
  kernels, IOStats, SQL rows) cannot tell the difference;
* :class:`HeldSnapshot` is a resident caller's copy of the version it
  last loaded — its segments, their merged sides and the *prefix fold*
  of every segment before the trailing delta — so a warm mutation
  re-reads no file it holds and folds only its delta onto the prefix.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.core.environment import EnvironmentFactory, EnvironmentSpec
from repro.errors import ReproError, WorkspaceError
from repro.index.bptree import BPlusTree
from repro.index.btree_io import load_btree, save_btree
from repro.index.codecs import resolve_codec
from repro.index.inverted import (
    InvertedFile,
    bulk_load_terms,
    merge_inverted_segments,
    renumber_entries,
)
from repro.text.collection import DocumentCollection
from repro.text.document import Document
from repro.text.serialization import (
    load_collection,
    load_inverted,
    save_collection,
    save_inverted,
)
from repro.workspace.builder import collection_files
from repro.workspace.manifest import (
    file_checksum,
    manifest_codec,
    manifest_segments,
    segment_fingerprint,
)


def segment_directory(directory: str | Path, record: Mapping[str, Any]) -> Path:
    """Where one segment's files live (the workspace root for ``path=""``)."""
    directory = Path(directory)
    path = record.get("path", "")
    return directory / path if path else directory


def manifest_roles(manifest: Mapping[str, Any]) -> tuple[str, ...]:
    """The collection roles a workspace stores (a self-join holds one)."""
    return ("c1",) if manifest["self_join"] else ("c1", "c2")


def manifest_spec(manifest: Mapping[str, Any]) -> EnvironmentSpec:
    """The physical parameters every artifact of the workspace shares."""
    return EnvironmentSpec(
        page_bytes=manifest["page_bytes"],
        btree_order=manifest["btree_order"],
        codec=manifest_codec(manifest),
    )


def collection_stats(collection: DocumentCollection) -> dict[str, Any]:
    """The manifest statistics block for one collection."""
    return {
        "name": collection.name,
        "n_documents": collection.n_documents,
        "avg_terms_per_doc": float(collection.avg_terms_per_document),
        "n_distinct_terms": collection.n_distinct_terms,
        "total_bytes": collection.total_bytes,
    }


def term_tree(inverted: InvertedFile, order: int) -> BPlusTree:
    """A fresh bulk load of ``term -> (record id, document frequency)``."""
    return bulk_load_terms(inverted.document_frequencies(), order)


@dataclass
class LoadedSegment:
    """One segment's record plus its materialised per-role artifacts."""

    record: dict[str, Any]
    collections: dict[str, DocumentCollection] = field(default_factory=dict)
    inverted: dict[str, InvertedFile] = field(default_factory=dict)
    btrees: dict[str, BPlusTree] = field(default_factory=dict)
    #: the artifacts came from a segment the caller held, not from disk
    reused: bool = False

    @property
    def segment_id(self) -> str:
        return self.record["id"]


def _reraise_with_segment(seg_id: str, exc: ReproError) -> None:
    """Prefix the segment id onto an artifact error, keeping its type.

    The narrow types (``DocumentFormatError`` with byte offsets,
    ``BPlusTreeError`` with node context...) carry the detail callers
    rely on, so the original class is preserved where its constructor
    allows; anything fancier degrades to :class:`WorkspaceError`.
    """
    message = f"segment {seg_id!r}: {exc}"
    try:
        wrapped = type(exc)(message)
    except TypeError:
        wrapped = WorkspaceError(message)
    raise wrapped from exc


def load_segment(
    directory: str | Path,
    record: Mapping[str, Any],
    *,
    btree_order: int,
    held: Sequence[LoadedSegment] = (),
) -> LoadedSegment:
    """Read one segment's artifacts for every role it carries.

    Segment files are write-once, so a ``held`` segment whose recorded
    checksummed ``files`` and ``codec`` equal this record's already *is*
    the answer and nothing is read.  The segment id and fingerprint are
    deliberately not part of the key: a freeze moves both without
    touching a byte.

    Any :class:`~repro.errors.ReproError` from the artifact readers is
    re-raised with the segment id prefixed — a multi-segment workspace
    that fails to load must say *which* segment is at fault, not just
    which file.
    """
    for segment in held:
        mine = segment.record
        if mine["files"] == record["files"] and mine["codec"] == record["codec"]:
            return replace(segment, record=dict(record), reused=True)
    seg_id = record["id"]
    seg_dir = segment_directory(directory, record)
    codec = resolve_codec(record["codec"])
    loaded = LoadedSegment(record=dict(record))
    for role, entry in sorted(record["collections"].items()):
        name = entry["name"]
        try:
            collection = load_collection(name, seg_dir)
            if collection.n_documents != entry["n_documents"]:
                raise WorkspaceError(
                    f"collection {name!r} loads {collection.n_documents} "
                    f"documents, the segment records {entry['n_documents']}"
                )
            inverted = load_inverted(name, seg_dir, codec=codec)
            btree = load_btree(seg_dir / f"{name}.btree")
            if btree.order != btree_order:
                raise WorkspaceError(
                    f"{name}.btree stores order {btree.order}, the workspace "
                    f"uses {btree_order}"
                )
        except ReproError as exc:
            _reraise_with_segment(seg_id, exc)
        except OSError as exc:
            # A vanished or unreadable artifact has no ReproError type of
            # its own; still name the segment at fault.
            raise WorkspaceError(f"segment {seg_id!r}: {exc}") from exc
        loaded.collections[role] = collection
        loaded.inverted[role] = inverted
        loaded.btrees[role] = btree
    return loaded


def load_segments(
    directory: str | Path,
    manifest: Mapping[str, Any],
    held: HeldSnapshot | None = None,
) -> list[LoadedSegment]:
    """Load every segment the manifest lists, in order.

    ``held`` is the caller's copy of an earlier load of this directory —
    a cache of file *contents*, never of what the workspace *is*: the
    manifest decides which segments exist, ``held.segments`` only spares
    re-reading those whose files it has (:func:`load_segment`).  Its
    segments are replaced with the result, ready for the next load.
    """
    segments = [
        load_segment(
            directory,
            record,
            btree_order=manifest["btree_order"],
            held=() if held is None else held.segments,
        )
        for record in manifest_segments(manifest)
    ]
    if held is not None:
        held.segments = segments
    return segments


def write_segment(
    directory: str | Path,
    seg_id: str,
    collections: Mapping[str, DocumentCollection],
    tombstones: Mapping[str, list[tuple[str, int]]],
    spec: EnvironmentSpec,
    *,
    kind: str = "delta",
    clamp_weights: bool = False,
) -> dict[str, Any]:
    """Persist one segment directory and return its manifest record.

    Roles with zero documents are omitted entirely (a fresh inversion
    of nothing writes nothing); tombstones are metadata, so a pure
    delete batch can produce a segment with tombstones and no files.
    """
    directory = Path(directory)
    seg_dir = directory / seg_id
    if seg_dir.exists():
        # A crashed earlier mutation may have left a half-written
        # directory under this (never-referenced) id; start clean.
        shutil.rmtree(seg_dir)
    seg_dir.mkdir(parents=True)
    codec = resolve_codec(spec.codec)

    record_collections: dict[str, Any] = {}
    file_names: list[str] = []
    for role, collection in sorted(collections.items()):
        if collection.n_documents == 0:
            continue
        save_collection(collection, seg_dir, clamp_weights=clamp_weights)
        inverted = codec.build(InvertedFile.build(collection))
        save_inverted(inverted, seg_dir, clamp_weights=clamp_weights, codec=codec)
        save_btree(
            term_tree(inverted, spec.btree_order), seg_dir / f"{collection.name}.btree"
        )
        file_names.extend(collection_files(collection.name))
        record_collections[role] = collection_stats(collection)

    files = {
        f"{seg_id}/{file_name}": {
            "bytes": (seg_dir / file_name).stat().st_size,
            "sha256": file_checksum(seg_dir / file_name),
        }
        for file_name in file_names
    }
    record = {
        "id": seg_id,
        "kind": kind,
        "path": seg_id,
        "codec": spec.codec,
        "collections": record_collections,
        "tombstones": {
            role: [[target, doc] for target, doc in marks]
            for role, marks in sorted(tombstones.items())
            if marks
        },
        "files": files,
    }
    record["fingerprint"] = segment_fingerprint(record)
    return record


def tombstones_by_target(
    records: list[Mapping[str, Any]],
) -> dict[tuple[str, str], set[int]]:
    """``{(role, target_segment_id): {local_doc, ...}}`` across all segments."""
    dead: dict[tuple[str, str], set[int]] = {}
    for record in records:
        for role, marks in record.get("tombstones", {}).items():
            for target, local_doc in marks:
                dead.setdefault((role, target), set()).add(local_doc)
    return dead


@dataclass
class MergedSide:
    """One role's merged live view plus where each live document came from."""

    collection: DocumentCollection
    inverted: InvertedFile
    #: the term tree (a held prefix fold, never served, has none)
    btree: BPlusTree | None
    #: ``{(segment_id, local_doc): global_doc}`` for every live document
    global_ids: dict[tuple[str, int], int]
    #: ``{term: document frequency}`` in term order — the inverted file's
    #: columns, which the next fold and the term tree start from
    frequencies: dict[int, int]


def _leading(
    role: str,
    name: str,
    segment: LoadedSegment,
    dead: Mapping[tuple[str, str], set[int]],
    spec: EnvironmentSpec,
) -> MergedSide:
    """The live view of the leading segment alone, where a cold fold starts.

    A segment without tombstones, stored in the workspace codec under the
    view's name, *is* its own live view: nothing is copied or rebuilt.
    Otherwise its live documents renumber densely; the documents before
    the first tombstone keep their numbers and stay the same objects, and
    so do the entries whose postings all lie among them.
    """
    codec = resolve_codec(spec.codec)
    seg_id = segment.segment_id
    collection = segment.collections.get(role)
    if collection is None:
        empty = DocumentCollection(name, [], document_frequency={}, total_cells=0)
        return MergedSide(empty, codec.build(InvertedFile(name, [])), None, {}, {})
    inverted = segment.inverted[role]
    dead_locals = dead.get((role, seg_id), set())
    same_codec = segment.record["codec"] == spec.codec
    if (
        not dead_locals
        and same_codec
        and collection.name == inverted.collection_name == name
    ):
        return MergedSide(
            collection,
            inverted,
            segment.btrees.get(role),
            {(seg_id, local): local for local in range(collection.n_documents)},
            inverted.document_frequencies(),
        )
    docs: list[Document] = []
    doc_map: dict[int, int] = {}
    cells = 0
    for doc in collection:
        if doc.doc_id in dead_locals:
            continue
        global_id = len(docs)
        doc_map[doc.doc_id] = global_id
        docs.append(doc if doc.doc_id == global_id else Document(global_id, doc.cells))
        cells += len(doc.cells)
    # Entries are shared only in the workspace codec's own form.
    kept = min(dead_locals, default=len(docs)) if same_codec else 0
    folded = codec.build(
        InvertedFile(name, renumber_entries(inverted.entries, doc_map, kept))
    )
    frequencies = folded.document_frequencies()
    return MergedSide(
        DocumentCollection(
            name, docs, document_frequency=frequencies, total_cells=cells
        ),
        folded,
        None,
        {(seg_id, local): global_id for local, global_id in doc_map.items()},
        frequencies,
    )


def _append(
    role: str,
    name: str,
    start: MergedSide,
    tail: Sequence[LoadedSegment],
    dead: Mapping[tuple[str, str], set[int]],
    spec: EnvironmentSpec,
) -> MergedSide:
    """``start`` plus the live documents of the ``tail`` segments, in order.

    The view's documents and entries are reused as the same objects; the
    tail's documents take the next global numbers, their postings are
    concatenated onto the entries they touch and new terms are inserted
    in order (:func:`~repro.index.inverted.merge_inverted_segments`), and
    the statistics add up from the parts.  The work is proportional to
    the tail, plus list copies of the view.
    """
    docs = list(start.collection.documents)
    global_ids = dict(start.global_ids)
    cells = start.collection.total_cells
    appended: dict[int, list[tuple[int, int]]] = {}
    for segment in tail:
        collection = segment.collections.get(role)
        if collection is None:
            continue
        seg_id = segment.segment_id
        dead_locals = dead.get((role, seg_id), set())
        for doc in collection:
            if doc.doc_id in dead_locals:
                continue
            global_id = len(docs)
            global_ids[(seg_id, doc.doc_id)] = global_id
            docs.append(
                doc if doc.doc_id == global_id else Document(global_id, doc.cells)
            )
            cells += len(doc.cells)
            for term, weight in doc.cells:
                appended.setdefault(term, []).append((global_id, weight))
    if len(docs) == start.collection.n_documents:
        return start
    entries, frequencies = merge_inverted_segments(
        start.inverted.entries, start.frequencies, appended
    )
    return MergedSide(
        DocumentCollection(
            name, docs, document_frequency=frequencies, total_cells=cells
        ),
        resolve_codec(spec.codec).build(InvertedFile(name, entries)),
        None,
        global_ids,
        frequencies,
    )


def _fold(
    role: str,
    name: str,
    segments: Sequence[LoadedSegment],
    dead: Mapping[tuple[str, str], set[int]],
    spec: EnvironmentSpec,
) -> MergedSide:
    """The leading segment's live view with every later segment appended."""
    return _append(
        role, name, _leading(role, name, segments[0], dead, spec), segments[1:], dead, spec
    )


def merged_view(
    role: str,
    name: str,
    segments: list[LoadedSegment],
    spec: EnvironmentSpec,
    prefix: MergedSide | None = None,
) -> MergedSide:
    """Fold the loaded segments into one logical side.

    Value-identical to cold construction over the live documents: the
    collection renumbers live docs in (segment, local) order, the
    inverted file is the order-preserving posting concatenation in the
    workspace codec, and the term tree is a fresh bulk load at the
    workspace order — the same recipe
    :class:`~repro.core.environment.EnvironmentFactory` uses.

    The fold starts from ``prefix`` — the view of every segment before
    the trailing one, with the trailing one's tombstones applied (see
    :func:`merged_sides`) — when the caller holds it, and appends only
    the trailing segment: O(delta).  Otherwise it starts from the leading
    segment and appends the rest.  Either way the documents and entries
    no later segment touches are the start's own objects, not copies.
    """
    dead = tombstones_by_target([segment.record for segment in segments])
    if prefix is None:
        view = _fold(role, name, segments, dead, spec)
    else:
        view = _append(role, name, prefix, segments[-1:], dead, spec)
    if view.btree is None:
        view = replace(view, btree=bulk_load_terms(view.frequencies, spec.btree_order))
    return view


def sides_key(manifest: Mapping[str, Any], segments: list[LoadedSegment]) -> tuple:
    """Everything :func:`merged_sides` reads, as one comparable value.

    Per segment: its id (tombstones and the global id map name it), its
    checksummed ``files`` and ``codec`` (:func:`load_segment`'s reuse
    rule: the same files are the same documents) and its tombstones; per
    workspace: the codec, the B+-tree order and the collection names.
    A segment's ``kind`` and ``fingerprint`` are left out: a freeze moves
    both and changes no live document.
    """
    return (
        manifest_codec(manifest),
        manifest["btree_order"],
        {
            role: manifest["collections"][role]["name"]
            for role in manifest_roles(manifest)
        },
        [
            (
                segment.record["id"],
                segment.record["files"],
                segment.record["codec"],
                segment.record.get("tombstones", {}),
            )
            for segment in segments
        ],
    )


@dataclass
class HeldSnapshot:
    """A resident caller's copy of the workspace version it last loaded.

    ``segments`` spare re-reading files (:func:`load_segments`);
    ``sides`` are the merged view :func:`merged_sides` last built, valid
    for the segments ``key`` (:func:`sides_key`) names; ``prefix`` is the
    fold of every segment before the trailing one with the trailing one's
    tombstones applied, valid for ``prefix_key`` (the prefix segments'
    :func:`sides_key` plus those tombstones), from which the next
    version's view is the prefix plus its trailing delta; ``factory`` is
    the last factory loaded from it.  All are
    caches of contents the caller owns for as long as its snapshot lives —
    the manifest alone still decides what the workspace is.  They are
    replaced, never changed in place, so a copy of the snapshot keeps its
    own.
    """

    segments: list[LoadedSegment] = field(default_factory=list)
    sides: dict[str, MergedSide] = field(default_factory=dict)
    key: tuple | None = None
    prefix: dict[str, MergedSide] = field(default_factory=dict)
    prefix_key: tuple | None = None
    #: the factory :func:`~repro.workspace.loader.load_workspace` last built
    #: from this snapshot, whose extent layouts the next one starts from
    factory: EnvironmentFactory | None = None


def _held_prefix(
    manifest: Mapping[str, Any], segments: list[LoadedSegment], held: HeldSnapshot
) -> dict[str, MergedSide] | None:
    """The prefix fold of ``segments``, from ``held`` or folded once and held.

    A held view whose segments are exactly the prefix serves as the
    prefix when the trailing segment adds no tombstone — a freeze sealed
    the view's delta and the next write appended a new one.  A batch that
    adds a tombstone folds the prefix here once; later batches reuse it.
    """
    if len(segments) < 2:
        return None
    applied = segments[-1].record.get("tombstones", {})
    key = (sides_key(manifest, segments[:-1]), applied)
    if held.prefix_key != key:
        if held.key == key[0] and not any(applied.values()):
            held.prefix = held.sides
        else:
            dead = tombstones_by_target([segment.record for segment in segments])
            spec = manifest_spec(manifest)
            held.prefix = {
                role: _fold(
                    role, manifest["collections"][role]["name"], segments[:-1], dead, spec
                )
                for role in manifest_roles(manifest)
            }
        held.prefix_key = key
    return held.prefix


def merged_sides(
    manifest: Mapping[str, Any],
    segments: list[LoadedSegment],
    held: HeldSnapshot | None,
) -> dict[str, MergedSide]:
    """The merged live view of every role the workspace stores.

    With ``held``, a view already merged from the same :func:`sides_key`
    is returned as it is; otherwise each role is folded once from the
    held prefix (:func:`merged_view`) and ``held`` keeps the result.  A
    cold caller passes ``None`` and always folds in full.
    """
    key = prefix = None
    if held is not None:
        key = sides_key(manifest, segments)
        if held.key == key:
            return held.sides
        prefix = _held_prefix(manifest, segments, held)
    spec = manifest_spec(manifest)
    sides = {
        role: merged_view(
            role,
            manifest["collections"][role]["name"],
            segments,
            spec,
            None if prefix is None else prefix[role],
        )
        for role in manifest_roles(manifest)
    }
    if held is not None:
        held.sides, held.key = sides, key
    return sides


__all__ = [
    "HeldSnapshot",
    "LoadedSegment",
    "MergedSide",
    "collection_stats",
    "load_segment",
    "load_segments",
    "manifest_roles",
    "manifest_spec",
    "merged_sides",
    "merged_view",
    "segment_directory",
    "sides_key",
    "term_tree",
    "tombstones_by_target",
    "write_segment",
]
