"""What HVNL and VVM charge is what their scores were computed from.

HVNL scores a block of outer documents ahead from the in-memory
``environment.inverted1`` and charges each document's probes —
``btree1.search`` then a read of ``inv1_extent`` — only when the
document's turn comes.  That is exact only if, for every term of C2, the
probed record *is* the in-memory entry, and a term is absent from the
tree exactly when it is absent from the inverted file.

VVM charges a merge of ``inv2_extent`` per pass but scores the pass
from the forward view ``docs2``.  That is exact only if every C2
document's cells are exactly its postings in ``inverted2``, and the
charged records are the in-memory entries.

Both are checked on a built factory, a loaded workspace, and a merged
multi-segment view reloaded the way the service reloads after a
mutation.
"""

import pytest

from repro.core.environment import EnvironmentFactory
from repro.workspace import (
    MutationBatch,
    apply_mutations,
    freeze_delta,
    load_manifest,
    load_workspace,
    manifest_segments,
)


def assert_probes_fetch_inverted1(factory):
    environment = factory.create()
    inverted1, btree1 = environment.inverted1, environment.btree1
    extent = environment.inv1_extent
    terms = {term for doc in environment.collection2 for term, _ in doc.cells}
    present = 0
    for term in sorted(terms):
        location = btree1.search(term)
        entry = inverted1.get(term)
        assert (location is None) == (entry is None) == (term not in inverted1)
        if location is not None:
            assert extent.payload(location[0]) == entry
            present += 1
    assert 0 < present < len(terms)  # both branches are exercised


def assert_forward_view_is_inverted2(factory):
    environment = factory.create()
    inverted2 = environment.inverted2
    stored = [entry for _, entry in environment.inv2_extent.records()]
    assert stored == list(inverted2.entries)
    postings = {}
    for entry in inverted2.entries:
        for doc_id, weight in entry.postings:
            postings.setdefault(doc_id, set()).add((entry.term, weight))
    docs2 = environment.docs2
    for doc_id in range(len(docs2)):
        cells = docs2.payload(doc_id).cells
        assert len(set(cells)) == len(cells)
        assert set(cells) == postings.pop(doc_id, set())
    assert postings == {}  # no posting names a document docs2 lacks


def assert_views_agree(factory):
    assert_probes_fetch_inverted1(factory)
    assert_forward_view_is_inverted2(factory)


def test_a_built_factory(collections):
    assert_views_agree(EnvironmentFactory(*collections))


def test_a_loaded_workspace(built):
    directory, _ = built
    assert_views_agree(load_workspace(directory))


@pytest.mark.parametrize("freeze", [False, True])
def test_a_merged_view_after_mutations(built, freeze):
    directory, _ = built
    held = []
    load_workspace(directory, held)
    batches = [
        # a term new to both sides, and C2 documents that probe it
        MutationBatch.from_term_lists(
            inserts={"c1": [[3, 5, 5, 9], [149, 1]], "c2": [[149, 3], [148]]},
            deletes={"c1": [0, 7]},
        ),
        MutationBatch.from_term_lists(deletes={"c1": [2], "c2": [1]}),
    ]
    for batch in batches:
        apply_mutations(directory, batch, held=held)
        if freeze:
            freeze_delta(directory)
        factory = load_workspace(directory, held)
        assert len(manifest_segments(load_manifest(directory))) > 1
        assert any(event.startswith("merge:") for event in factory.build_log)
        assert_views_agree(factory)
