"""Persistent dataset workspaces: build the physical dataset once, mutate incrementally.

The paper's Section 5 cost models price the *join*, not the dataset
construction — yet historically every environment construction paid for
tokenisation, inversion and bulk loading again.  A **workspace** is a
versioned on-disk directory holding the packed Section 3 artifacts of
one join's collections:

* :func:`build_workspace` derives and persists everything (d-cells,
  i-cells, term-tree leaves, optional vocabulary, checksummed
  manifest);
* :func:`load_workspace` turns the directory back into a pre-populated
  :class:`~repro.core.environment.EnvironmentFactory` whose
  ``derivation_events()`` stay empty — environments assembled from it
  are byte-identical to in-memory construction, fresh I/O counters
  included;
* :func:`verify_workspace` deep-checks checksums, statistics, inverted
  files and tree layout across every segment;
* :func:`workspace_catalog` binds the workspace into the SQL layer.

Schema ``repro-workspace/3`` adds the **incremental write path**
(:mod:`repro.workspace.mutate`): a workspace becomes an ordered list of
immutable base segments plus one trailing mutable delta, deletes become
tombstones, and

* :func:`apply_mutations` applies one insert/delete batch atomically by
  rewriting only the small delta;
* :func:`freeze_delta` seals the delta into a base segment (metadata
  only);
* :func:`compact` folds everything back into one clean base segment,
  value-identical to a cold rebuild.

Pre-v3 workspaces load unchanged (normalised to a single synthetic base
segment) and upgrade to v3 on their first mutation.

See ``docs/WORKSPACE.md`` for the file format and workflow.
"""

from repro.workspace.builder import build_workspace, collection_files
from repro.workspace.catalog import workspace_catalog
from repro.workspace.loader import load_workspace, verify_workspace
from repro.workspace.manifest import (
    LEGACY_SEGMENT_ID,
    MANIFEST_NAME,
    VOCABULARY_NAME,
    WORKSPACE_SCHEMA,
    WORKSPACE_SCHEMA_V1,
    WORKSPACE_SCHEMA_V3,
    build_manifest,
    file_checksum,
    load_manifest,
    manifest_fingerprint,
    manifest_files,
    manifest_segments,
    manifest_version,
    save_manifest,
    segment_fingerprint,
    validate_manifest,
)
from repro.workspace.mutate import (
    MutationBatch,
    MutationStats,
    apply_mutations,
    compact,
    freeze_delta,
)
from repro.workspace.segments import (
    HeldSnapshot,
    LoadedSegment,
    MergedSide,
    load_segment,
    merged_view,
    write_segment,
)

__all__ = [
    "HeldSnapshot",
    "LEGACY_SEGMENT_ID",
    "LoadedSegment",
    "MANIFEST_NAME",
    "MergedSide",
    "MutationBatch",
    "MutationStats",
    "VOCABULARY_NAME",
    "WORKSPACE_SCHEMA",
    "WORKSPACE_SCHEMA_V1",
    "WORKSPACE_SCHEMA_V3",
    "apply_mutations",
    "build_manifest",
    "build_workspace",
    "collection_files",
    "compact",
    "file_checksum",
    "freeze_delta",
    "load_manifest",
    "load_segment",
    "load_workspace",
    "manifest_files",
    "manifest_fingerprint",
    "manifest_segments",
    "manifest_version",
    "merged_view",
    "save_manifest",
    "segment_fingerprint",
    "validate_manifest",
    "verify_workspace",
    "workspace_catalog",
    "write_segment",
]
