"""Load and verify workspaces: query-time construction without rebuild.

:func:`load_workspace` turns a workspace directory into a pre-populated
:class:`~repro.core.environment.EnvironmentFactory`.  Both manifest
generations go through the same segment path
(:func:`~repro.workspace.manifest.manifest_segments` presents a v1/v2
build-once workspace as one synthetic base segment):

* a single clean base segment preloads its artifacts directly —
  collections off the packed d-cell files, inverted files off the
  i-cell files, term trees off the ``.btree`` leaf images — so the
  factory's expensive derivation paths never run and its build log
  shows ``load:`` events only;
* multiple segments (or tombstones) additionally fold into the merged
  live view (:func:`~repro.workspace.segments.merged_view`), recorded
  as a ``merge:`` build-log event.  The merged artifacts are
  value-identical to a cold rebuild over the live documents, so
  everything downstream is oblivious to segmentation.

``factory.derivation_events()`` stays empty either way, which is the
checkable meaning of "build once, join many".

:func:`verify_workspace` is the paranoid counterpart: instead of
trusting the manifest it re-checksums every file across every segment,
replays each segment's inverted file against its collection and its
term tree against a fresh bulk load, cross-checks per-segment manifest
statistics, then folds the segments together and proves the manifest's
top-level statistics describe the merged *live* view.  Any problem is
reported with the owning segment id up front.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping

from repro.core.environment import EnvironmentFactory
from repro.errors import ReproError, WorkspaceError
from repro.index.bptree import BPlusTree
from repro.index.btree_io import layout_signature
from repro.index.codecs import resolve_codec
from repro.index.inverted import InvertedEntry, InvertedFile
from repro.text.collection import DocumentCollection
from repro.text.vocabulary import Vocabulary
from repro.workspace.manifest import (
    file_checksum,
    load_manifest,
    manifest_files,
    manifest_segments,
)
from repro.workspace.segments import (
    HeldSnapshot,
    LoadedSegment,
    collection_stats,
    load_segment,
    load_segments,
    manifest_roles,
    manifest_spec,
    merged_sides,
    merged_view,
    term_tree,
)


def _check_sizes(directory: Path, manifest: Mapping[str, Any]) -> None:
    """Cheap pre-flight: every checksummed file exists with its size."""
    for file_name, entry in manifest_files(manifest).items():
        path = directory / file_name
        if not path.is_file():
            raise WorkspaceError(f"workspace is missing artifact file {path}")
        actual_bytes = path.stat().st_size
        if actual_bytes != entry["bytes"]:
            raise WorkspaceError(
                f"{path}: has {actual_bytes} bytes, manifest records "
                f"{entry['bytes']} (truncated or replaced artifact)"
            )


def _is_single_clean_base(records: list[dict[str, Any]]) -> bool:
    return (
        len(records) == 1
        and records[0]["kind"] == "base"
        and not any(records[0].get("tombstones", {}).values())
    )


def load_workspace(
    directory: str | Path, held: HeldSnapshot | None = None
) -> EnvironmentFactory:
    """A factory pre-populated from a workspace directory.

    Returns an :class:`~repro.core.environment.EnvironmentFactory` whose
    inverted files and term trees were read from disk — its build log
    shows ``load:`` events (plus a ``merge:`` event per side when the
    workspace holds several segments), never ``invert:`` or
    ``bulk-load:``.  The workspace vocabulary, when present, is attached
    as ``factory.vocabulary``.  Malformed directories raise
    :class:`~repro.errors.WorkspaceError` (or the narrower
    :class:`~repro.errors.DocumentFormatError` /
    :class:`~repro.errors.BPlusTreeError` with byte-level context); in a
    segmented workspace the message leads with the failing segment id.

    ``held`` (:class:`~repro.workspace.segments.HeldSnapshot`) spares
    re-reading segments the caller already has in memory and re-merging
    a view it already holds, lets the new factory's extents start from
    the layouts of the one it last built, and is left holding this
    load's; the manifest alone decides what is loaded.
    """
    directory = Path(directory)
    manifest = load_manifest(directory)
    _check_sizes(directory, manifest)
    spec = manifest_spec(manifest)
    roles = manifest_roles(manifest)
    segments = load_segments(directory, manifest, held)

    merged = not _is_single_clean_base([segment.record for segment in segments])
    if merged:
        views = {
            role: (side.collection, side.inverted, side.btree)
            for role, side in merged_sides(manifest, segments, held).items()
        }
    else:
        # The build-once fast path (every v1/v2 workspace, and any v3
        # workspace after compaction): the stored artifacts ARE the live
        # view, so they preload directly with no merge work at all.
        only = segments[0]
        views = {
            role: (only.collections[role], only.inverted[role], only.btrees[role])
            for role in roles
        }
    for role in roles:
        declared = manifest["collections"][role]
        found = views[role][0].n_documents
        if found != declared["n_documents"]:
            how = f"merges to {found} live" if merged else f"loads {found}"
            raise WorkspaceError(
                f"collection {declared['name']!r} {how} documents, manifest "
                f"records {declared['n_documents']}"
            )
    collection2 = None if manifest["self_join"] else views["c2"][0]
    factory = EnvironmentFactory(
        views["c1"][0],
        collection2,
        spec,
        previous=None if held is None else held.factory,
    )
    if held is not None:
        held.factory = factory
    for side_number, role in enumerate(roles, start=1):
        _, inverted, btree = views[role]
        if merged:
            factory.preload_merged_side(
                side_number, inverted, btree, n_segments=len(segments)
            )
        else:
            factory.preload_side(side_number, inverted, btree)

    if manifest["vocabulary"] is not None:
        factory.vocabulary = Vocabulary.load(directory / manifest["vocabulary"])
    return factory


def _verify_side(
    context: str,
    name: str,
    collection: DocumentCollection,
    inverted: Any,
    btree: BPlusTree | None,
    codec_name: str,
    btree_order: int,
) -> list[str]:
    """Semantic replay of one (collection, inverted, btree) triple."""
    problems: list[str] = []
    codec = resolve_codec(codec_name)
    logical = inverted
    if codec.compressed:
        # Decode-replay: every stored payload must decode, re-encode to
        # the identical bytes (the codec is canonical), and the decoded
        # postings must agree with the collection below.
        replayed = []
        try:
            for inv_entry in inverted.entries:
                postings = inv_entry.postings
                encoded = codec.encode_postings(postings)
                if encoded != inv_entry.data:
                    problems.append(
                        f"{context}: inverted file of {name!r}: term "
                        f"{inv_entry.term} payload is not canonical "
                        f"{codec.name} (re-encoding {len(inv_entry.data)} "
                        f"stored bytes gives {len(encoded)})"
                    )
                replayed.append(InvertedEntry(inv_entry.term, postings))
        except ReproError as exc:
            problems.append(
                f"{context}: inverted file of {name!r} does not "
                f"decode-replay: {exc}"
            )
            return problems
        logical = InvertedFile(name, replayed)
    try:
        logical.verify_against(collection)
    except ReproError as exc:
        problems.append(
            f"{context}: inverted file of {name!r} disagrees with its "
            f"collection: {exc}"
        )
    if btree is not None:
        fresh = term_tree(inverted, btree_order)
        if layout_signature(btree) != layout_signature(fresh):
            problems.append(
                f"{context}: {name}.btree layout differs from a fresh bulk "
                f"load (stored {layout_signature(btree)}, fresh "
                f"{layout_signature(fresh)})"
            )
    return problems


def _stats_problems(
    context: str, name: str, actual: Mapping[str, Any], declared: Mapping[str, Any]
) -> list[str]:
    problems = []
    for field_name in ("n_documents", "n_distinct_terms", "total_bytes"):
        if actual[field_name] != declared[field_name]:
            problems.append(
                f"{context}: collection {name!r}: loaded "
                f"{field_name}={actual[field_name]}, manifest records "
                f"{declared[field_name]}"
            )
    if abs(actual["avg_terms_per_doc"] - declared["avg_terms_per_doc"]) > 1e-9:
        problems.append(
            f"{context}: collection {name!r}: loaded avg_terms_per_doc="
            f"{actual['avg_terms_per_doc']!r}, manifest records "
            f"{declared['avg_terms_per_doc']!r}"
        )
    return problems


def verify_workspace(directory: str | Path) -> list[str]:
    """Deep-check a workspace; returns human-readable problems (empty = ok).

    Five layers, cheapest first: manifest well-formedness (including the
    segment invariants — tombstones only target earlier segments, live
    counts add up, per-segment fingerprints hold), per-file SHA-256
    checksums across every segment, per-segment semantic replay (each
    inverted file against its collection, each stored tree against a
    fresh bulk load, per-segment manifest statistics against the loaded
    data), the merged-view check (the manifest's top-level statistics
    must describe the folded live documents), and vocabulary coverage.
    """
    directory = Path(directory)
    problems: list[str] = []
    try:
        manifest = load_manifest(directory)
    except ReproError as exc:
        return [str(exc)]

    for file_name, entry in sorted(manifest_files(manifest).items()):
        path = directory / file_name
        if not path.is_file():
            problems.append(f"missing artifact file {file_name}")
            continue
        actual_bytes = path.stat().st_size
        if actual_bytes != entry["bytes"]:
            problems.append(
                f"{file_name}: has {actual_bytes} bytes, manifest records "
                f"{entry['bytes']}"
            )
            continue
        digest = file_checksum(path)
        if digest != entry["sha256"]:
            problems.append(
                f"{file_name}: checksum {digest[:12]}… does not match the "
                f"manifest ({entry['sha256'][:12]}…)"
            )
    if problems:
        return problems

    roles = manifest_roles(manifest)
    records = manifest_segments(manifest)
    single_clean = _is_single_clean_base(records)
    segments: list[LoadedSegment] = []
    for record in records:
        seg_id = record["id"]
        try:
            segment = load_segment(
                directory, record, btree_order=manifest["btree_order"]
            )
        except ReproError as exc:
            problems.append(f"segment {seg_id!r} does not load: {exc}")
            continue
        segments.append(segment)
        context = f"segment {seg_id!r}"
        for role, entry in sorted(record["collections"].items()):
            collection = segment.collections[role]
            problems.extend(
                _stats_problems(
                    context, entry["name"], collection_stats(collection), entry
                )
            )
            problems.extend(
                _verify_side(
                    context,
                    entry["name"],
                    collection,
                    segment.inverted[role],
                    segment.btrees[role],
                    record["codec"],
                    manifest["btree_order"],
                )
            )
    if problems or len(segments) != len(records):
        return problems

    spec = manifest_spec(manifest)
    max_term = -1
    for role in roles:
        declared = manifest["collections"][role]
        name = declared["name"]
        try:
            side = merged_view(role, name, segments, spec)
        except ReproError as exc:
            problems.append(f"merged view of {name!r} does not build: {exc}")
            continue
        problems.extend(
            _stats_problems(
                "merged live view", name, collection_stats(side.collection), declared
            )
        )
        if not single_clean:
            # The merged artifacts never touched disk, so replay them
            # too: the folded inverted file must transpose the folded
            # collection (no btree to compare — it IS a fresh bulk load).
            problems.extend(
                _verify_side(
                    "merged live view",
                    name,
                    side.collection,
                    side.inverted,
                    None,
                    spec.codec,
                    manifest["btree_order"],
                )
            )
        if side.collection.terms():
            max_term = max(max_term, max(side.collection.terms()))

    if manifest["vocabulary"] is not None and not problems:
        try:
            vocabulary = Vocabulary.load(directory / manifest["vocabulary"])
        except ReproError as exc:
            problems.append(f"vocabulary does not load: {exc}")
        else:
            if max_term >= len(vocabulary):
                problems.append(
                    f"vocabulary holds {len(vocabulary)} terms but the "
                    f"collections use term number {max_term}"
                )
    return problems


__all__ = ["load_workspace", "verify_workspace"]
