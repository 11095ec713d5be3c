"""Property: any mutation interleaving equals the cold rebuild exactly.

Hypothesis drives random sequences of insert/delete batches, delta
freezes and compactions against a small workspace while a model keeps
the live documents' d-cells in merged order.  After the sequence:

* the loaded merged view must hold exactly the model's documents;
* a text join over the mutated workspace must equal the same join over
  an in-memory environment built cold from the model;
* :func:`~repro.workspace.loader.verify_workspace` must report a clean
  workspace after every freeze and compaction (and at the end);
* a *held snapshot* — mutations and loads handed the segments and merged
  sides the previous step ended on, the way a resident service runs
  them — must equal a cold ``load_workspace`` after every single step.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hhnl import run_hhnl
from repro.core.hvnl import run_hvnl
from repro.core.integrated import IntegratedJoin
from repro.core.join import JoinEnvironment, TextJoinSpec
from repro.core.vvm import run_vvm
from repro.cost.params import SystemParams
from repro.index.btree_io import layout_signature
from repro.storage.pages import PageGeometry
from repro.text.collection import DocumentCollection
from repro.text.document import Document
from repro.workspace import (
    HeldSnapshot,
    MutationBatch,
    apply_mutations,
    build_workspace,
    compact,
    freeze_delta,
    load_workspace,
    verify_workspace,
)

VOCABULARY = 30
PAGE_BYTES = 512

# one operation: ("mutate", inserts, delete_picks) | ("freeze",) | ("compact",)
_term_list = st.lists(
    st.integers(min_value=0, max_value=VOCABULARY - 1), min_size=1, max_size=6
)
_mutation = st.tuples(
    st.just("mutate"),
    st.lists(_term_list, min_size=0, max_size=3),          # c1 inserts
    st.lists(st.integers(min_value=0, max_value=10 ** 6),  # c1 delete picks
             min_size=0, max_size=3, unique=True),
)
_operation = st.one_of(
    _mutation, st.tuples(st.just("freeze")), st.tuples(st.just("compact"))
)


def _apply_to_model(model: list, operation) -> MutationBatch | None:
    """Mirror one operation onto the model; returns the batch to apply.

    Delete picks are arbitrary integers; they select live ids modulo the
    current size, deduplicated, and never empty the collection — the
    same constraints :func:`apply_mutations` enforces.
    """
    _, inserts, picks = operation
    doc_ids = sorted({pick % len(model) for pick in picks})
    if len(doc_ids) >= len(model) + len(inserts):
        doc_ids = doc_ids[: len(model) + len(inserts) - 1]
    if not inserts and not doc_ids:
        return None
    dead = set(doc_ids)
    model[:] = [cells for i, cells in enumerate(model) if i not in dead]
    model.extend(Document.from_terms(0, terms).cells for terms in inserts)
    batch = MutationBatch.from_term_lists(
        inserts={"c1": inserts} if inserts else None,
        deletes={"c1": doc_ids} if doc_ids else None,
    )
    return batch


def _cold_environment(model: list) -> JoinEnvironment:
    collection = DocumentCollection(
        "prop-c1", [Document(i, cells) for i, cells in enumerate(model)]
    )
    return JoinEnvironment(collection, collection, PageGeometry(PAGE_BYTES))


@settings(max_examples=15, deadline=None)
@given(
    initial=st.lists(_term_list, min_size=2, max_size=6),
    operations=st.lists(_operation, min_size=1, max_size=5),
)
def test_interleavings_preserve_cold_rebuild_equality(
    tmp_path_factory, initial, operations
):
    from repro.core.environment import EnvironmentSpec

    directory = tmp_path_factory.mktemp("prop-inc") / "ws"
    model = [Document.from_terms(0, terms).cells for terms in initial]
    collection = DocumentCollection(
        "prop-c1", [Document(i, cells) for i, cells in enumerate(model)]
    )
    build_workspace(
        directory, collection, None, spec=EnvironmentSpec(page_bytes=PAGE_BYTES)
    )

    for operation in operations:
        if operation[0] == "mutate":
            batch = _apply_to_model(model, operation)
            if batch is not None:
                apply_mutations(directory, batch)
        elif operation[0] == "freeze":
            freeze_delta(directory)
            assert verify_workspace(directory) == []
        else:
            compact(directory)
            assert verify_workspace(directory) == []

    assert verify_workspace(directory) == []

    environment = load_workspace(directory).create()
    assert [d.cells for d in environment.collection1] == model

    system = SystemParams(buffer_pages=64, page_bytes=PAGE_BYTES)
    spec = TextJoinSpec(lam=2)
    mutated = IntegratedJoin(environment, system).run(spec)
    cold = IntegratedJoin(_cold_environment(model), system).run(spec)
    assert mutated.matches == cold.matches
    assert mutated.io.by_extent == cold.io.by_extent


@settings(max_examples=10, deadline=None)
@given(operations=st.lists(_operation, min_size=1, max_size=4))
def test_verify_stays_clean_under_any_interleaving(tmp_path_factory, operations):
    from repro.core.environment import EnvironmentSpec

    directory = tmp_path_factory.mktemp("prop-verify") / "ws"
    model = [((1, 1), (2, 1)), ((3, 2),), ((1, 1), (4, 1))]
    model = list(model)
    collection = DocumentCollection(
        "prop-c1", [Document(i, cells) for i, cells in enumerate(model)]
    )
    build_workspace(
        directory, collection, None, spec=EnvironmentSpec(page_bytes=PAGE_BYTES)
    )
    for operation in operations:
        if operation[0] == "mutate":
            batch = _apply_to_model(model, operation)
            if batch is not None:
                apply_mutations(directory, batch)
        elif operation[0] == "freeze":
            freeze_delta(directory)
        else:
            compact(directory)
        assert verify_workspace(directory) == []


def _observable(factory) -> dict:
    """Everything downstream code can see of a loaded workspace."""
    system = SystemParams(buffer_pages=64, page_bytes=PAGE_BYTES)
    spec = TextJoinSpec(lam=2)
    seen = {
        "documents": [(doc.doc_id, doc.cells) for doc in factory.collection1],
        "entries": [
            (entry.term, entry.postings, entry.n_bytes)
            for entry in factory.inverted(1).entries
        ],
        "btree": layout_signature(factory.btree(1)),
        "stats": factory.stats(1),
        "build_log": list(factory.build_log),
    }
    for name, run in (("HHNL", run_hhnl), ("HVNL", run_hvnl), ("VVM", run_vvm)):
        result = run(factory.create(), spec, system)
        seen[name] = (result.matches, result.io.by_extent, result.extras)
    return seen


@settings(max_examples=15, deadline=None)
@given(
    codec=st.sampled_from(("raw", "vbyte")),
    initial=st.lists(_term_list, min_size=2, max_size=6),
    operations=st.lists(_operation, min_size=1, max_size=5),
)
def test_held_snapshot_equals_cold_load_after_every_step(
    tmp_path_factory, codec, initial, operations
):
    from repro.core.environment import EnvironmentSpec

    directory = tmp_path_factory.mktemp("prop-held") / "ws"
    model = [Document.from_terms(0, terms).cells for terms in initial]
    collection = DocumentCollection(
        "prop-c1", [Document(i, cells) for i, cells in enumerate(model)]
    )
    build_workspace(
        directory,
        collection,
        None,
        spec=EnvironmentSpec(page_bytes=PAGE_BYTES, codec=codec),
    )
    held = HeldSnapshot()
    load_workspace(directory, held)

    for operation in operations:
        if operation[0] == "mutate":
            batch = _apply_to_model(model, operation)
            if batch is not None:
                apply_mutations(directory, batch, held=held)
        elif operation[0] == "freeze":
            freeze_delta(directory)
        else:
            compact(directory)
        warm = load_workspace(directory, held)
        assert [doc.cells for doc in warm.collection1] == model
        assert _observable(warm) == _observable(load_workspace(directory))
    assert verify_workspace(directory) == []


def _fields(side) -> tuple:
    """Every field of one merged side, in comparable form."""
    collection, inverted = side.collection, side.inverted
    assert list(side.frequencies) == sorted(side.frequencies)  # the tree's columns
    return (
        collection.name,
        [(doc.doc_id, doc.cells) for doc in collection],
        collection.document_frequency(),
        collection.total_cells,
        collection.total_bytes,
        inverted.collection_name,
        [
            (entry.term, entry.postings, entry.n_bytes, getattr(entry, "data", None))
            for entry in inverted.entries
        ],
        layout_signature(side.btree),
        list(side.btree.items()),
        side.global_ids,
        side.frequencies,
    )


_role_mutation = st.tuples(
    st.just("mutate"),
    st.sampled_from(("c1", "c2")),
    st.lists(_term_list, min_size=0, max_size=3),
    st.lists(
        st.integers(min_value=0, max_value=10 ** 6), min_size=0, max_size=2, unique=True
    ),
)
_step = st.one_of(
    _role_mutation,
    _role_mutation,
    st.tuples(st.just("freeze")),
    st.tuples(st.just("compact")),
)


@settings(max_examples=20, deadline=None)
@given(
    codec=st.sampled_from(("raw", "vbyte")),
    steps=st.lists(_step, min_size=1, max_size=8),
)
def test_the_held_view_equals_a_cold_fold_after_every_step(
    tmp_path_factory, codec, steps
):
    """The warm fold — held prefix plus trailing delta — against a full
    fold from the leading segment, field by field."""
    from repro.core.environment import EnvironmentSpec
    from repro.workspace import load_manifest
    from repro.workspace.segments import load_segments, merged_sides

    directory = tmp_path_factory.mktemp("prop-fold") / "ws"
    build_workspace(
        directory,
        DocumentCollection.from_term_lists("fold-c1", [[1, 2], [2, 5, 5], [7], [1, 9]]),
        DocumentCollection.from_term_lists("fold-c2", [[2, 3], [4], [5, 7, 7]]),
        spec=EnvironmentSpec(page_bytes=PAGE_BYTES, codec=codec),
    )
    held = HeldSnapshot()
    load_workspace(directory, held)
    for step in steps:
        if step[0] == "mutate":
            _, role, inserts, picks = step
            live = load_manifest(directory)["collections"][role]["n_documents"]
            doc_ids = sorted({pick % live for pick in picks})[: live + len(inserts) - 1]
            if inserts or doc_ids:
                batch = MutationBatch.from_term_lists(
                    inserts={role: inserts} if inserts else None,
                    deletes={role: doc_ids} if doc_ids else None,
                )
                apply_mutations(directory, batch, held=held)
        elif step[0] == "freeze":
            freeze_delta(directory)
        else:
            compact(directory)
        manifest = load_manifest(directory)
        warm = merged_sides(manifest, load_segments(directory, manifest, held), held)
        cold = merged_sides(manifest, load_segments(directory, manifest), None)
        for role in cold:
            assert _fields(warm[role]) == _fields(cold[role]), (role, step)
