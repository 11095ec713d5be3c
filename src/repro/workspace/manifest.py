"""The workspace manifest: one schema-tagged JSON catalog per dataset.

A workspace directory is self-describing: ``workspace.json`` records the
schema version, the layout parameters (page size, tree order), per-
collection statistics and a SHA-256 checksum for every artifact file.
:func:`validate_manifest` is deliberately strict — an unknown schema
tag, a missing section or a wrongly-typed field raises
:class:`~repro.errors.WorkspaceError` — because a manifest that *looks*
loadable but lies about its files is worse than no manifest.

:func:`manifest_fingerprint` condenses the checksums into one short hex
tag; the experiment engine mixes it into sweep-point memo keys so
results computed over different workspace contents never share a cache
entry.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path
from typing import Any, Mapping

from repro.errors import WorkspaceError

#: versioned schema tag written into every new build-once manifest
WORKSPACE_SCHEMA = "repro-workspace/2"

#: the pre-codec schema; still accepted, its inverted extents are ``raw``
WORKSPACE_SCHEMA_V1 = "repro-workspace/1"

#: the segmented schema: an ordered list of immutable base segments plus
#: at most one trailing mutable delta, deletes as tombstones in later
#: segments.  Written by :mod:`repro.workspace.mutate`; v1/v2 manifests
#: are normalised to a single synthetic base segment on load
#: (:func:`manifest_segments`), so the two generations share one loader.
WORKSPACE_SCHEMA_V3 = "repro-workspace/3"

#: every schema tag :func:`validate_manifest` accepts
ACCEPTED_SCHEMAS = (WORKSPACE_SCHEMA_V3, WORKSPACE_SCHEMA, WORKSPACE_SCHEMA_V1)

#: the synthetic segment id v1/v2 manifests are normalised under
LEGACY_SEGMENT_ID = "seg-000000"

#: segment kinds a v3 manifest may carry
SEGMENT_KINDS = ("base", "delta")

#: file name of the manifest inside a workspace directory
MANIFEST_NAME = "workspace.json"

#: file name of the optional shared vocabulary inside a workspace
VOCABULARY_NAME = "vocabulary.json"

_COLLECTION_FIELDS = (
    ("name", str),
    ("n_documents", int),
    ("avg_terms_per_doc", float),
    ("n_distinct_terms", int),
    ("total_bytes", int),
)


def file_checksum(path: str | Path) -> str:
    """Hex SHA-256 of one artifact file's bytes."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def build_manifest(
    *,
    page_bytes: int,
    btree_order: int,
    self_join: bool,
    collections: Mapping[str, Mapping[str, Any]],
    files: Mapping[str, Mapping[str, Any]],
    vocabulary: str | None = None,
    codec: str = "raw",
    segments: list[Mapping[str, Any]] | None = None,
    version: int = 1,
) -> dict[str, Any]:
    """Assemble and validate a manifest dictionary.

    ``collections`` maps the roles (``"c1"``, and ``"c2"`` unless
    ``self_join``) to their statistics; ``files`` maps artifact file
    names to ``{"bytes": int, "sha256": hex}`` entries; ``codec`` names
    the postings codec the ``.inv.cells`` records are encoded in.

    Passing ``segments`` emits the segmented v3 schema: ``collections``
    then describes the *merged live* view, ``files`` holds only the
    workspace-level files (the vocabulary), and each segment record
    carries its own checksummed file map.  ``version`` is the manifest
    version number every mutation bumps.
    """
    if segments is None:
        manifest = {
            "schema": WORKSPACE_SCHEMA,
            "page_bytes": page_bytes,
            "btree_order": btree_order,
            "self_join": self_join,
            "codec": codec,
            "collections": {role: dict(entry) for role, entry in collections.items()},
            "files": {name: dict(entry) for name, entry in files.items()},
            "vocabulary": vocabulary,
        }
    else:
        manifest = {
            "schema": WORKSPACE_SCHEMA_V3,
            "version": version,
            "page_bytes": page_bytes,
            "btree_order": btree_order,
            "self_join": self_join,
            "codec": codec,
            "collections": {role: dict(entry) for role, entry in collections.items()},
            "files": {name: dict(entry) for name, entry in files.items()},
            "vocabulary": vocabulary,
            "segments": [dict(segment) for segment in segments],
        }
    validate_manifest(manifest)
    return manifest


def manifest_codec(manifest: Mapping[str, Any]) -> str:
    """The postings codec of a validated manifest (v1 implies ``raw``)."""
    return manifest.get("codec", "raw")


def validate_manifest(manifest: Mapping[str, Any]) -> None:
    """Raise :class:`~repro.errors.WorkspaceError` unless well-formed."""
    if not isinstance(manifest, Mapping):
        raise WorkspaceError("workspace manifest must be a mapping")
    schema = manifest.get("schema")
    if schema not in ACCEPTED_SCHEMAS:
        raise WorkspaceError(
            f"unsupported workspace schema {schema!r}, expected one of "
            f"{ACCEPTED_SCHEMAS!r}"
        )
    codec = manifest.get("codec")
    if schema == WORKSPACE_SCHEMA_V1:
        # v1 predates the codec layer: its inverted extents are raw
        # i-cells, and a codec claim would be unverifiable.
        if codec is not None:
            raise WorkspaceError(
                "a v1 workspace manifest cannot declare a postings codec; "
                "rebuild the workspace to use one"
            )
    else:
        from repro.index.codecs import CODEC_NAMES

        if codec not in CODEC_NAMES:
            raise WorkspaceError(
                f"workspace manifest names unknown postings codec {codec!r}; "
                f"this build understands {CODEC_NAMES} — the workspace was "
                "written by a newer version or the manifest is corrupt"
            )
    for key, kind in (
        ("page_bytes", int),
        ("btree_order", int),
        ("self_join", bool),
        ("collections", Mapping),
        ("files", Mapping),
    ):
        if not isinstance(manifest.get(key), kind):
            raise WorkspaceError(
                f"manifest field {key!r} missing or not a {kind.__name__}"
            )
    if manifest["page_bytes"] <= 0:
        raise WorkspaceError(f"page_bytes must be positive, got {manifest['page_bytes']}")
    if manifest["btree_order"] < 3:
        raise WorkspaceError(
            f"btree_order must be at least 3, got {manifest['btree_order']}"
        )
    vocabulary = manifest.get("vocabulary")
    if vocabulary is not None and not isinstance(vocabulary, str):
        raise WorkspaceError("manifest field 'vocabulary' must be a file name or null")

    roles = ("c1",) if manifest["self_join"] else ("c1", "c2")
    collections = manifest["collections"]
    unknown = sorted(set(collections) - set(roles))
    if unknown:
        raise WorkspaceError(f"manifest lists unknown collection roles: {unknown}")
    for role in roles:
        entry = collections.get(role)
        if not isinstance(entry, Mapping):
            raise WorkspaceError(f"manifest is missing collection role {role!r}")
        _validate_collection_entry(entry, f"collection {role!r}")
    if not manifest["self_join"]:
        names = {collections[role]["name"] for role in roles}
        if len(names) != len(roles):
            raise WorkspaceError(
                "a cross-join workspace needs distinctly named collections, "
                f"got {sorted(collections[role]['name'] for role in roles)}"
            )

    _validate_file_map(manifest["files"], "manifest")
    if vocabulary is not None and vocabulary not in manifest["files"]:
        raise WorkspaceError(
            f"manifest names vocabulary {vocabulary!r} but does not checksum it"
        )

    if schema != WORKSPACE_SCHEMA_V3:
        if "segments" in manifest:
            raise WorkspaceError(
                f"manifest claims segments but its schema is {schema!r}; "
                f"segmented workspaces must declare {WORKSPACE_SCHEMA_V3!r} "
                "(the manifest was hand-edited or written by a broken tool)"
            )
        if "version" in manifest:
            raise WorkspaceError(
                f"manifest field 'version' is a {WORKSPACE_SCHEMA_V3!r} "
                f"field; schema {schema!r} manifests do not carry it"
            )
        return
    version = manifest.get("version")
    if not isinstance(version, int) or isinstance(version, bool) or version < 1:
        raise WorkspaceError(
            "a v3 manifest needs an integer 'version' >= 1, got "
            f"{version!r}"
        )
    _validate_segments(manifest)


def _validate_collection_entry(entry: Mapping[str, Any], owner: str) -> None:
    """Field types, counts >= 0 and a finite, non-negative average."""
    for field_name, kind in _COLLECTION_FIELDS:
        value = entry.get(field_name)
        if kind is float and isinstance(value, int):
            value = float(value)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise WorkspaceError(
                f"{owner} field {field_name!r} missing or not a {kind.__name__}"
            )
        if kind is not str and not 0 <= value < math.inf:
            raise WorkspaceError(
                f"{owner} field {field_name!r} must be finite and >= 0, "
                f"got {value!r}"
            )


def _validate_file_map(files: Mapping[str, Any], owner: str) -> None:
    """Shared shape check for one checksummed file map."""
    for file_name, entry in files.items():
        if not isinstance(file_name, str) or not file_name:
            raise WorkspaceError(f"{owner} file names must be non-empty strings")
        parts = file_name.split("/")
        if file_name.startswith("/") or ".." in parts or "." in parts:
            raise WorkspaceError(
                f"{owner} file name {file_name!r} must be a plain relative path"
            )
        if not isinstance(entry, Mapping):
            raise WorkspaceError(f"{owner} file entry {file_name!r} is not a mapping")
        size = entry.get("bytes")
        if not isinstance(size, int) or isinstance(size, bool) or size < 0:
            raise WorkspaceError(
                f"file {file_name!r} entry has no integer 'bytes' >= 0, got {size!r}"
            )
        digest = entry.get("sha256")
        if not isinstance(digest, str) or len(digest) != 64:
            raise WorkspaceError(f"file {file_name!r} entry has no hex 'sha256'")


def _validate_segment_collections(
    segment: Mapping[str, Any], roles: tuple[str, ...], manifest: Mapping[str, Any]
) -> None:
    seg_id = segment["id"]
    collections = segment["collections"]
    unknown = sorted(set(collections) - set(roles))
    if unknown:
        raise WorkspaceError(f"segment {seg_id!r} lists unknown roles: {unknown}")
    for role, entry in collections.items():
        if not isinstance(entry, Mapping):
            raise WorkspaceError(
                f"segment {seg_id!r} collection {role!r} is not a mapping"
            )
        _validate_collection_entry(entry, f"segment {seg_id!r} collection {role!r}")
        workspace_name = manifest["collections"][role]["name"]
        if entry["name"] != workspace_name:
            raise WorkspaceError(
                f"segment {seg_id!r} names collection {role!r} "
                f"{entry['name']!r} but the workspace names it "
                f"{workspace_name!r}"
            )


def _validate_segments(manifest: Mapping[str, Any]) -> None:
    """The v3 segment-list invariants (metadata only, no file I/O)."""
    from repro.index.codecs import CODEC_NAMES

    segments = manifest.get("segments")
    if not isinstance(segments, list) or not segments:
        raise WorkspaceError(
            "a v3 manifest needs a non-empty 'segments' list"
        )
    roles = ("c1",) if manifest["self_join"] else ("c1", "c2")
    seen_ids: dict[str, int] = {}
    seen_files: set[str] = set(manifest["files"])
    live: dict[str, int] = {role: 0 for role in roles}
    for position, segment in enumerate(segments):
        if not isinstance(segment, Mapping):
            raise WorkspaceError(f"segment at position {position} is not a mapping")
        seg_id = segment.get("id")
        if not isinstance(seg_id, str) or not seg_id or "/" in seg_id:
            raise WorkspaceError(
                f"segment at position {position} has no usable 'id', got {seg_id!r}"
            )
        if seg_id in seen_ids:
            raise WorkspaceError(f"duplicate segment id {seg_id!r}")
        seen_ids[seg_id] = position
        kind = segment.get("kind")
        if kind not in SEGMENT_KINDS:
            raise WorkspaceError(
                f"segment {seg_id!r} has kind {kind!r}, expected one of "
                f"{SEGMENT_KINDS}"
            )
        if kind == "delta" and position != len(segments) - 1:
            raise WorkspaceError(
                f"segment {seg_id!r} is a delta but is not the last segment; "
                "a workspace holds at most one trailing delta"
            )
        path = segment.get("path")
        if not isinstance(path, str) or "/" in path or path in (".", ".."):
            raise WorkspaceError(
                f"segment {seg_id!r} 'path' must be '' or one plain directory "
                f"name, got {path!r}"
            )
        if segment.get("codec") not in CODEC_NAMES:
            raise WorkspaceError(
                f"segment {seg_id!r} names unknown postings codec "
                f"{segment.get('codec')!r}; this build understands {CODEC_NAMES}"
            )
        if not isinstance(segment.get("collections"), Mapping):
            raise WorkspaceError(f"segment {seg_id!r} has no 'collections' mapping")
        _validate_segment_collections(segment, roles, manifest)
        if not isinstance(segment.get("files"), Mapping):
            raise WorkspaceError(f"segment {seg_id!r} has no 'files' mapping")
        _validate_file_map(segment["files"], f"segment {seg_id!r}")
        overlap = seen_files & set(segment["files"])
        if overlap:
            raise WorkspaceError(
                f"segment {seg_id!r} re-checksums files already claimed "
                f"elsewhere: {sorted(overlap)}"
            )
        seen_files |= set(segment["files"])
        fingerprint = segment.get("fingerprint")
        if fingerprint != segment_fingerprint(segment):
            raise WorkspaceError(
                f"segment {seg_id!r} fingerprint {fingerprint!r} does not match "
                "its own contents (the record was edited without re-fingerprinting)"
            )
        for role in roles:
            entry = segment["collections"].get(role)
            if entry is not None:
                live[role] += entry["n_documents"]

    # Tombstones may only point at strictly earlier base segments, at
    # in-range local documents, and never twice at the same document.
    seen_tombstones: set[tuple[str, str, int]] = set()
    for segment in segments:
        seg_id = segment["id"]
        tombstones = segment.get("tombstones")
        if not isinstance(tombstones, Mapping):
            raise WorkspaceError(f"segment {seg_id!r} has no 'tombstones' mapping")
        unknown = sorted(set(tombstones) - set(roles))
        if unknown:
            raise WorkspaceError(
                f"segment {seg_id!r} tombstones list unknown roles: {unknown}"
            )
        for role, marks in tombstones.items():
            if not isinstance(marks, list):
                raise WorkspaceError(
                    f"segment {seg_id!r} tombstones for {role!r} must be a list"
                )
            for mark in marks:
                if (
                    not isinstance(mark, list)
                    or len(mark) != 2
                    or not isinstance(mark[0], str)
                    or not isinstance(mark[1], int)
                    or isinstance(mark[1], bool)
                ):
                    raise WorkspaceError(
                        f"segment {seg_id!r} tombstone {mark!r} for {role!r} "
                        "must be a [segment_id, local_doc] pair"
                    )
                target_id, local_doc = mark
                target_position = seen_ids.get(target_id)
                if target_position is None:
                    raise WorkspaceError(
                        f"segment {seg_id!r} tombstones unknown segment "
                        f"{target_id!r}"
                    )
                if target_position >= seen_ids[seg_id]:
                    raise WorkspaceError(
                        f"segment {seg_id!r} tombstones {target_id!r}, which "
                        "is not an earlier segment"
                    )
                target = segments[target_position]
                target_entry = target["collections"].get(role)
                n_docs = 0 if target_entry is None else target_entry["n_documents"]
                if not 0 <= local_doc < n_docs:
                    raise WorkspaceError(
                        f"segment {seg_id!r} tombstones document {local_doc} of "
                        f"{target_id!r}/{role}, which holds {n_docs} documents"
                    )
                key = (role, target_id, local_doc)
                if key in seen_tombstones:
                    raise WorkspaceError(
                        f"document {local_doc} of {target_id!r}/{role} is "
                        "tombstoned twice"
                    )
                seen_tombstones.add(key)
                live[role] -= 1

    for role in roles:
        declared = manifest["collections"][role]["n_documents"]
        if live[role] != declared:
            raise WorkspaceError(
                f"manifest declares {declared} live documents for {role!r} but "
                f"the segments account for {live[role]}"
            )


def save_manifest(manifest: Mapping[str, Any], directory: str | Path) -> Path:
    """Validate and write the manifest into a workspace directory.

    The write is atomic (temp file + ``os.replace``): a reader — or a
    crash — mid-save sees either the old complete manifest or the new
    one, never a torn file.  This is the pivot the mutation path's
    snapshot guarantee rests on.
    """
    validate_manifest(manifest)
    path = Path(directory) / MANIFEST_NAME
    temp = path.with_name(MANIFEST_NAME + ".tmp")
    temp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    os.replace(temp, path)
    return path


def load_manifest(directory: str | Path) -> dict[str, Any]:
    """Read and validate the manifest of a workspace directory."""
    path = Path(directory) / MANIFEST_NAME
    try:
        raw = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise WorkspaceError(f"cannot read workspace manifest {path}: {exc}") from exc
    validate_manifest(raw)
    return raw


def manifest_fingerprint(manifest: Mapping[str, Any]) -> str:
    """A short stable tag over the manifest's contents and checksums.

    Two workspaces with byte-identical artifacts *and* the same layout
    parameters share a fingerprint; any content change — one flipped bit
    in one cell file, a different page size or tree order — produces a
    different one.  Suitable as the ``dataset`` component of
    :class:`~repro.experiments.engine.SweepPoint` memo keys.
    """
    validate_manifest(manifest)
    digest = hashlib.sha256()
    # The layout parameters change physical page counts (hence measured
    # I/O) even over byte-identical cell files, so they are part of the
    # dataset's identity.
    header = (
        f"{manifest['schema']};{manifest['page_bytes']};"
        f"{manifest['btree_order']};{manifest['self_join']}"
    )
    if manifest["schema"] != WORKSPACE_SCHEMA_V1:
        # The codec changes the physical inverted extents, so it is part
        # of the dataset's identity; v1 headers stay as they were so
        # fingerprints of existing workspaces do not shift.
        header += f";{manifest_codec(manifest)}"
    if manifest["schema"] == WORKSPACE_SCHEMA_V3:
        # Every mutation bumps the version, so the fingerprint moves
        # even when a compaction happens to reproduce identical bytes —
        # memoised results computed before the mutation never collide
        # with results computed after it.
        header += f";{manifest['version']}"
    digest.update(header.encode("ascii"))
    for file_name in sorted(manifest["files"]):
        digest.update(file_name.encode("utf-8"))
        digest.update(manifest["files"][file_name]["sha256"].encode("ascii"))
    for segment in manifest.get("segments", ()):
        digest.update(segment["fingerprint"].encode("ascii"))
    return digest.hexdigest()[:16]


def segment_fingerprint(segment: Mapping[str, Any]) -> str:
    """A short stable tag over one segment record's identity.

    Covers the id, kind, codec, tombstones and file checksums — so a
    metadata-only change (freezing a delta into a base) moves the
    fingerprint just like a content change does.
    """
    digest = hashlib.sha256()
    tombstones = {
        role: sorted((target, doc) for target, doc in marks)
        for role, marks in segment.get("tombstones", {}).items()
        if marks
    }
    header = (
        f"{segment['id']};{segment['kind']};{segment['codec']};"
        f"{json.dumps(tombstones, sort_keys=True)}"
    )
    digest.update(header.encode("utf-8"))
    for file_name in sorted(segment["files"]):
        digest.update(file_name.encode("utf-8"))
        digest.update(segment["files"][file_name]["sha256"].encode("ascii"))
    return digest.hexdigest()[:16]


def manifest_version(manifest: Mapping[str, Any]) -> int:
    """The manifest version (pre-v3 manifests count as version 1)."""
    return manifest.get("version", 1)


def manifest_segments(manifest: Mapping[str, Any]) -> list[dict[str, Any]]:
    """The ordered segment records, normalising pre-v3 manifests.

    A v1/v2 manifest — one build-once set of artifacts at the directory
    root — is presented as a single synthetic base segment
    (:data:`LEGACY_SEGMENT_ID`, ``path=""``) whose file map is the
    manifest's own minus the vocabulary, so the loader and verifier have
    exactly one code path over both generations.
    """
    if manifest["schema"] == WORKSPACE_SCHEMA_V3:
        return [dict(segment) for segment in manifest["segments"]]
    vocabulary = manifest.get("vocabulary")
    files = {
        name: dict(entry)
        for name, entry in manifest["files"].items()
        if name != vocabulary
    }
    segment = {
        "id": LEGACY_SEGMENT_ID,
        "kind": "base",
        "path": "",
        "codec": manifest_codec(manifest),
        "collections": {
            role: dict(entry) for role, entry in manifest["collections"].items()
        },
        "tombstones": {},
        "files": files,
    }
    segment["fingerprint"] = segment_fingerprint(segment)
    return [segment]


def manifest_files(manifest: Mapping[str, Any]) -> dict[str, dict[str, Any]]:
    """Every checksummed file of the workspace, across all segments."""
    files = {name: dict(entry) for name, entry in manifest["files"].items()}
    for segment in manifest.get("segments", ()):
        files.update(
            {name: dict(entry) for name, entry in segment["files"].items()}
        )
    return files


__all__ = [
    "ACCEPTED_SCHEMAS",
    "LEGACY_SEGMENT_ID",
    "MANIFEST_NAME",
    "SEGMENT_KINDS",
    "VOCABULARY_NAME",
    "WORKSPACE_SCHEMA",
    "WORKSPACE_SCHEMA_V1",
    "WORKSPACE_SCHEMA_V3",
    "build_manifest",
    "file_checksum",
    "load_manifest",
    "manifest_codec",
    "manifest_files",
    "manifest_fingerprint",
    "manifest_segments",
    "manifest_version",
    "save_manifest",
    "segment_fingerprint",
    "validate_manifest",
]
