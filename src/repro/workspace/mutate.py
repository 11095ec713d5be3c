"""The workspace write path: apply mutations, freeze deltas, compact.

LSM discipline over the Section 3 physical format.  A mutation batch
never touches an existing segment's files:

* **inserts** land as new documents of a freshly written delta segment;
* **deletes** of base-segment documents become tombstones carried by
  that same delta; deletes of current-delta documents simply drop out
  of the rewrite (the delta is the one small mutable tail);
* :func:`freeze_delta` flips the delta's kind to ``base`` — a
  metadata-only manifest bump, the LSM "seal";
* :func:`compact` rewrites the whole live document set as one fresh
  base segment (value-identical to a cold rebuild) and drops every
  tombstone and superseded file.

Every operation writes a **new manifest version atomically**
(:func:`~repro.workspace.manifest.save_manifest` is temp-file +
``os.replace``), so a concurrent reader sees either the previous
complete workspace or the new one.  Pre-v3 manifests upgrade on first
mutation: their build-once artifacts become the first base segment in
place, no files moved or rewritten.

Pages stay the currency of record: each operation returns a
:class:`MutationStats` whose :class:`~repro.storage.iostats.IOStats`
charges whole pages per artifact file under per-segment extent names
(``seg-000002/c1.docs.cells``...), cross-checked by
:mod:`repro.cost.incremental`'s analytic model.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.errors import WorkspaceError
from repro.storage.iostats import IOStats
from repro.storage.pages import PageGeometry  # repro: ignore[RA-CORE-IO] -- maintenance pricing, not query I/O
from repro.text.collection import DocumentCollection
from repro.text.document import Document
from repro.text.vocabulary import Vocabulary
from repro.workspace.manifest import (
    build_manifest,
    load_manifest,
    manifest_codec,
    manifest_fingerprint,
    manifest_segments,
    manifest_version,
    save_manifest,
    segment_fingerprint,
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
    write_segment,
)

#: one inserted document: its d-cells, ``(term, weight)`` sorted by term
DocCells = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class MutationBatch:
    """One atomic batch of inserts and deletes, keyed by role.

    ``inserts`` maps roles (``"c1"``/``"c2"``) to new documents as
    d-cell tuples; ``deletes`` maps roles to *live global* document ids
    — positions in the current merged view, the same numbering query
    results use.  The batch is applied all-or-nothing.
    """

    inserts: Mapping[str, tuple[DocCells, ...]] = field(default_factory=dict)
    deletes: Mapping[str, tuple[int, ...]] = field(default_factory=dict)

    @classmethod
    def from_term_lists(
        cls,
        inserts: Mapping[str, Sequence[Sequence[int]]] | None = None,
        deletes: Mapping[str, Sequence[int]] | None = None,
    ) -> "MutationBatch":
        """Build a batch from raw term-number sequences per new document."""
        cells: dict[str, tuple[DocCells, ...]] = {}
        for role, term_lists in (inserts or {}).items():
            cells[role] = tuple(
                Document.from_terms(0, terms).cells for terms in term_lists
            )
        return cls(
            inserts=cells,
            deletes={role: tuple(ids) for role, ids in (deletes or {}).items()},
        )

    @property
    def empty(self) -> bool:
        return not any(self.inserts.values()) and not any(self.deletes.values())


@dataclass(frozen=True)
class MutationStats:
    """What one workspace operation did, priced in whole pages."""

    operation: str
    changed: bool
    version: int
    fingerprint: str
    inserted: Mapping[str, int] = field(default_factory=dict)
    deleted: Mapping[str, int] = field(default_factory=dict)
    tombstones_added: int = 0
    segments: tuple[str, ...] = ()
    pages_written: int = 0
    pages_read: int = 0
    #: per-segment extent breakdown of the pages above (reads and writes
    #: both appear as ``sequential`` — segment files are streamed whole)
    io_written: IOStats = field(default_factory=IOStats)
    io_read: IOStats = field(default_factory=IOStats)

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready summary (the service's ``/mutate`` response body)."""
        return {
            "operation": self.operation,
            "changed": self.changed,
            "version": self.version,
            "fingerprint": self.fingerprint,
            "inserted": dict(self.inserted),
            "deleted": dict(self.deleted),
            "tombstones_added": self.tombstones_added,
            "segments": list(self.segments),
            "pages_written": self.pages_written,
            "pages_read": self.pages_read,
            "written_by_extent": {
                name: seq for name, (seq, _) in sorted(self.io_written.by_extent.items())
            },
            "read_by_extent": {
                name: seq for name, (seq, _) in sorted(self.io_read.by_extent.items())
            },
        }


def _file_pages(files: Mapping[str, Any], geometry: PageGeometry, io: IOStats) -> int:
    """Charge whole pages per checksummed file; returns the total."""
    total = 0
    for name, entry in sorted(files.items()):
        pages = geometry.whole_pages(entry["bytes"])
        io.record(name, sequential=pages)
        total += pages
    return total


def _check_vocabulary(vocabulary: Vocabulary | None, batch: MutationBatch) -> None:
    """Inserted terms must stay inside the workspace vocabulary."""
    if vocabulary is None:
        return
    for role, docs in batch.inserts.items():
        for cells in docs:
            for term, _ in cells:
                if term >= len(vocabulary):
                    raise WorkspaceError(
                        f"insert into {role!r} uses term number {term} but the "
                        f"workspace vocabulary holds {len(vocabulary)} terms; "
                        "a frozen standard vocabulary admits no new words"
                    )


def _publish(
    directory: Path,
    manifest: Mapping[str, Any],
    collections: Mapping[str, Any],
    records: list[dict[str, Any]],
) -> dict[str, Any]:
    """Atomically write the next manifest version over ``records``."""
    vocabulary = manifest.get("vocabulary")
    new_manifest = build_manifest(
        page_bytes=manifest["page_bytes"],
        btree_order=manifest["btree_order"],
        self_join=manifest["self_join"],
        collections=collections,
        files={
            name: entry
            for name, entry in manifest["files"].items()
            if name == vocabulary
        },
        vocabulary=vocabulary,
        codec=manifest_codec(manifest),
        segments=records,
        version=manifest_version(manifest) + 1,
    )
    save_manifest(new_manifest, directory)
    return new_manifest


def _remove_segment_files(directory: Path, record: Mapping[str, Any]) -> None:
    """Delete one unreferenced segment's files (directory or root-level)."""
    path = record.get("path", "")
    if path:
        shutil.rmtree(directory / path, ignore_errors=True)
        return
    # The upgraded legacy segment lives at the workspace root alongside
    # the manifest and vocabulary; remove exactly its own files.
    for name in record["files"]:
        try:
            (directory / name).unlink()
        except OSError:
            pass


def _validate_batch(
    manifest: Mapping[str, Any], batch: MutationBatch, live: Mapping[str, int]
) -> None:
    roles = manifest_roles(manifest)
    for section_name, section in (("inserts", batch.inserts), ("deletes", batch.deletes)):
        unknown = sorted(set(section) - set(roles))
        if unknown:
            raise WorkspaceError(
                f"mutation {section_name} name unknown roles {unknown}; this "
                f"workspace holds {list(roles)}"
            )
    for role, docs in batch.inserts.items():
        for position, cells in enumerate(docs):
            if not cells:
                raise WorkspaceError(
                    f"insert {position} into {role!r} has no terms; empty "
                    "documents cannot participate in a text join"
                )
            # Document validation enforces sorted terms/positive weights.
            Document(0, cells)
    for role, doc_ids in batch.deletes.items():
        seen: set[int] = set()
        for doc_id in doc_ids:
            if not 0 <= doc_id < live[role]:
                raise WorkspaceError(
                    f"delete of document {doc_id} from {role!r} is out of "
                    f"range; the live collection holds {live[role]} documents"
                )
            if doc_id in seen:
                raise WorkspaceError(
                    f"document {doc_id} of {role!r} is deleted twice in one batch"
                )
            seen.add(doc_id)


def apply_mutations(
    directory: str | Path,
    batch: MutationBatch,
    *,
    clamp_weights: bool = False,
    held: HeldSnapshot | None = None,
    manifest: Mapping[str, Any] | None = None,
    vocabulary: Vocabulary | None = None,
) -> MutationStats:
    """Apply one batch atomically; returns the page-priced summary.

    Rewrites the (small) delta segment — its surviving documents, the
    batch's inserts, and the union of tombstones — as a brand-new
    segment directory, then atomically publishes a manifest version
    referencing it.  Base segments are never touched, which is what
    keeps the write cost proportional to the delta, not the dataset.

    A pre-v3 workspace is upgraded in place: its artifacts become the
    first base segment without being rewritten.

    ``held`` (:class:`~repro.workspace.segments.HeldSnapshot`) spares
    re-reading segments the caller has in memory and re-merging the
    version it last loaded, and ends up holding the committed version's
    segments and merged sides; ``manifest``/``vocabulary`` are the
    directory's own when the caller has just read them.  None changes
    the result.
    """
    directory = Path(directory)
    if manifest is None:
        manifest = load_manifest(directory)
    if batch.empty:
        raise WorkspaceError("a mutation batch must insert or delete something")
    spec = manifest_spec(manifest)
    geometry = spec.geometry()
    roles = manifest_roles(manifest)
    segments = load_segments(directory, manifest, held)
    sides = merged_sides(manifest, segments, held)
    _validate_batch(
        manifest,
        batch,
        {role: sides[role].collection.n_documents for role in roles},
    )
    if vocabulary is None and manifest.get("vocabulary") is not None:
        vocabulary = Vocabulary.load(directory / manifest["vocabulary"])
    _check_vocabulary(vocabulary, batch)

    old_delta: LoadedSegment | None = None
    base_segments = segments
    if segments[-1].record["kind"] == "delta":
        old_delta = segments[-1]
        base_segments = segments[:-1]

    # Resolve global delete ids to (segment, local) through the merged
    # view's id map; split them into delta-local drops and tombstones.
    inserted = {role: len(batch.inserts.get(role, ())) for role in roles}
    deleted = {role: len(batch.deletes.get(role, ())) for role in roles}
    drop_delta: dict[str, set[int]] = {role: set() for role in roles}
    new_tombstones: dict[str, list[tuple[str, int]]] = {role: [] for role in roles}
    delta_id = None if old_delta is None else old_delta.segment_id
    for role, doc_ids in batch.deletes.items():
        if not doc_ids:
            continue
        by_global = {g: place for place, g in sides[role].global_ids.items()}
        for doc_id in doc_ids:
            seg_id, local = by_global[doc_id]
            if seg_id == delta_id:
                drop_delta[role].add(local)
            else:
                new_tombstones[role].append((seg_id, local))

    live_after = {
        role: sides[role].collection.n_documents - deleted[role] + inserted[role]
        for role in roles
    }
    for role in roles:
        if live_after[role] <= 0:
            raise WorkspaceError(
                f"the batch would delete every live document of {role!r}; a "
                "workspace collection must keep at least one document "
                "(rebuild instead of mutating to empty)"
            )

    # Compose the new delta: surviving old-delta docs + inserts, plus the
    # union of old and new tombstones (all of which target base segments).
    version = manifest_version(manifest) + 1
    seg_id = f"seg-{version:06d}"
    delta_collections: dict[str, DocumentCollection] = {}
    tombstones: dict[str, list[tuple[str, int]]] = {}
    for role in roles:
        name = manifest["collections"][role]["name"]
        cells_list: list[DocCells] = []
        if old_delta is not None:
            old_docs = old_delta.collections.get(role)
            if old_docs is not None:
                cells_list.extend(
                    doc.cells
                    for doc in old_docs
                    if doc.doc_id not in drop_delta[role]
                )
        cells_list.extend(batch.inserts.get(role, ()))
        delta_collections[role] = DocumentCollection(
            name, [Document(i, cells) for i, cells in enumerate(cells_list)]
        )
        marks: list[tuple[str, int]] = []
        if old_delta is not None:
            marks.extend(
                (target, doc)
                for target, doc in old_delta.record.get("tombstones", {}).get(role, ())
            )
        marks.extend(new_tombstones[role])
        if marks:
            tombstones[role] = sorted(set(marks))

    io_read = IOStats()  # repro: ignore[RA-CONTEXT] -- maintenance I/O, outside any query context
    pages_read = 0
    if old_delta is not None:
        pages_read = _file_pages(old_delta.record["files"], geometry, io_read)

    new_records = [dict(segment.record) for segment in base_segments]
    has_delta = any(c.n_documents for c in delta_collections.values()) or any(
        tombstones.values()
    )
    io_written = IOStats()  # repro: ignore[RA-CONTEXT] -- maintenance I/O, outside any query context
    pages_written = 0
    new_segments = list(base_segments)
    if has_delta:
        record = write_segment(
            directory,
            seg_id,
            delta_collections,
            tombstones,
            spec,
            kind="delta",
            clamp_weights=clamp_weights,
        )
        pages_written = _file_pages(record["files"], geometry, io_written)
        new_records.append(record)
        new_segments.append(
            load_segment(directory, record, btree_order=spec.btree_order)
        )

    stats = {
        role: collection_stats(side.collection)
        for role, side in merged_sides(manifest, new_segments, held).items()
    }
    new_manifest = _publish(directory, manifest, stats, new_records)
    if old_delta is not None:
        _remove_segment_files(directory, old_delta.record)
    if held is not None:
        held.segments = new_segments
    return MutationStats(
        operation="apply_mutations",
        changed=True,
        version=version,
        fingerprint=manifest_fingerprint(new_manifest),
        inserted=inserted,
        deleted=deleted,
        tombstones_added=sum(len(marks) for marks in new_tombstones.values()),
        segments=tuple(record["id"] for record in new_records),
        pages_written=pages_written,
        pages_read=pages_read,
        io_written=io_written,
        io_read=io_read,
    )


def freeze_delta(directory: str | Path) -> MutationStats:
    """Seal the delta into an immutable base segment (metadata only).

    The segment's files are untouched — only its manifest ``kind``
    flips, its fingerprint moves, and the manifest version bumps.  A
    workspace without a delta is a no-op (``changed=False``).
    """
    directory = Path(directory)
    manifest = load_manifest(directory)
    records = manifest_segments(manifest)
    if records[-1]["kind"] != "delta":
        return MutationStats(
            operation="freeze_delta",
            changed=False,
            version=manifest_version(manifest),
            fingerprint=manifest_fingerprint(manifest),
            segments=tuple(record["id"] for record in records),
        )
    sealed = dict(records[-1])
    sealed["kind"] = "base"
    sealed["fingerprint"] = segment_fingerprint(sealed)
    new_records = records[:-1] + [sealed]
    new_manifest = _publish(directory, manifest, manifest["collections"], new_records)
    return MutationStats(
        operation="freeze_delta",
        changed=True,
        version=manifest_version(new_manifest),
        fingerprint=manifest_fingerprint(new_manifest),
        segments=tuple(record["id"] for record in new_records),
    )


def compact(directory: str | Path, *, clamp_weights: bool = False) -> MutationStats:
    """Rewrite the live document set as one fresh base segment.

    Reads every live segment (priced in pages), writes the merged
    artifacts — value-identical to a cold rebuild — as a single new
    segment, publishes the manifest atomically, then removes every
    superseded segment file.  An already-compacted workspace (one clean
    base segment, v3) is a no-op.
    """
    directory = Path(directory)
    manifest = load_manifest(directory)
    records = manifest_segments(manifest)
    spec = manifest_spec(manifest)
    geometry = spec.geometry()
    already_compact = (
        manifest["schema"] == "repro-workspace/3"
        and len(records) == 1
        and records[0]["kind"] == "base"
        and not any(records[0].get("tombstones", {}).values())
    )
    if already_compact:
        return MutationStats(
            operation="compact",
            changed=False,
            version=manifest_version(manifest),
            fingerprint=manifest_fingerprint(manifest),
            segments=(records[0]["id"],),
        )

    segments = load_segments(directory, manifest)
    io_read = IOStats()  # repro: ignore[RA-CONTEXT] -- maintenance I/O, outside any query context
    pages_read = 0
    for record in records:
        pages_read += _file_pages(record["files"], geometry, io_read)

    sides = merged_sides(manifest, segments, None)
    version = manifest_version(manifest) + 1
    seg_id = f"seg-{version:06d}"
    record = write_segment(
        directory,
        seg_id,
        {role: side.collection for role, side in sides.items()},
        {},
        spec,
        kind="base",
        clamp_weights=clamp_weights,
    )
    io_written = IOStats()  # repro: ignore[RA-CONTEXT] -- maintenance I/O, outside any query context
    pages_written = _file_pages(record["files"], geometry, io_written)
    stats = {role: collection_stats(side.collection) for role, side in sides.items()}
    new_manifest = _publish(directory, manifest, stats, [record])
    for old in records:
        _remove_segment_files(directory, old)
    return MutationStats(
        operation="compact",
        changed=True,
        version=version,
        fingerprint=manifest_fingerprint(new_manifest),
        segments=(seg_id,),
        pages_written=pages_written,
        pages_read=pages_read,
        io_written=io_written,
        io_read=io_read,
    )


__all__ = [
    "MutationBatch",
    "MutationStats",
    "apply_mutations",
    "compact",
    "freeze_delta",
]
