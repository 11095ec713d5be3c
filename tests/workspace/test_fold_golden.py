"""Golden pin: the view a resident service holds after every write step.

A seeded script drives :meth:`JoinService.mutate` over raw, vbyte and
self-join workspaces: INSERTs into each role, a DELETE of a delta
document, a DELETE of a base document, and a ``freeze_delta`` and a
``compact`` made behind the service's back.  After every step the held
view of each role is reduced to one digest of everything downstream
code can observe — each document's cells, each entry's term, postings
and stored bytes, the term tree's layout and items, the global-id map,
document frequencies, the manifest statistics block, the measured
collection statistics and every extent's record placement — and
compared with the digest recorded before the delta fold and the
arithmetic extent layout existed.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.core.environment import EnvironmentSpec
from repro.index.btree_io import layout_signature
from repro.workloads.synthetic import SyntheticSpec, generate_collection
from repro.workspace import build_workspace, compact, freeze_delta
from repro.workspace.segments import collection_stats

VOCABULARY = 90

#: workspace kind -> digest after each step of :func:`_script`
GOLDEN = {
    "raw": [
        "a02a582fa5247837", "357262692b5d00b4", "0357bda9004338b7", "9dc6acf53e458d55",
        "f78a0e0e7bd8c306", "cf57505b141f5843", "cf57505b141f5843", "8edd2e542921a59b",
        "babcd17edad77100", "f09c1556eabbcf08", "f09c1556eabbcf08", "0e709349c295cac4",
        "acafa789d61df3ce", "234cef8eee605eaa", "eb9242c72618a2db",
    ],
    "vbyte": [
        "d66f0498ed2b533b", "4ccda4ca1254a8ce", "851937db6e2a1e60", "e9b837cee359d6ca",
        "dc62622fae70e9c5", "5fd14c17160a2b26", "5fd14c17160a2b26", "516f9f2617b4b823",
        "db170cdb2fb9b948", "dcb9fa54f9daaa17", "dcb9fa54f9daaa17", "41912bac50d405d5",
        "9971673f2c0855df", "bf830d1d01697a7f", "4b443aa70cdde54e",
    ],
    "self": [
        "606ddda2c81d1b7a", "1cbeeddf489bf7c3", "13fdda2ecaa4e3f0", "20acae599b2a1a4a",
        "f5ce7d51de36899f", "385aa931fed3ceea", "385aa931fed3ceea", "7f3509b8a4eaa264",
        "955dc145882755e6", "e1df580d22e9730c", "e1df580d22e9730c", "d235c7f8dfb1044b",
        "6347172ce0fd1621", "2f2eeabaa9dada6e", "75d8e6febe82e33b",
    ],
}


def _workspace(directory, kind):
    c1 = generate_collection(
        SyntheticSpec("fold-c1", n_documents=30, avg_terms_per_doc=7,
                      vocabulary_size=VOCABULARY, seed=36)
    )
    c2 = generate_collection(
        SyntheticSpec("fold-c2", n_documents=24, avg_terms_per_doc=6,
                      vocabulary_size=VOCABULARY, seed=37)
    )
    spec = EnvironmentSpec(page_bytes=256, btree_order=4,
                           codec="vbyte" if kind == "vbyte" else "raw")
    build_workspace(directory, c1, None if kind == "self" else c2, spec=spec)


def _insert(rng, table, rows):
    values = ", ".join(
        "('" + " ".join(str(t) for t in rng.sample(range(VOCABULARY), rng.randint(1, 6))) + "')"
        for _ in range(rows)
    )
    return f"INSERT INTO {table} (Doc) VALUES {values}"


def _script(kind):
    """The seeded steps: SQL for the service, or a behind-the-back call."""
    rng = random.Random(f"fold-golden:{kind}")
    other = "R1" if kind == "self" else "R2"
    return [
        _insert(rng, "R1", 2),
        _insert(rng, other, 1),
        _insert(rng, "R1", 1),
        "DELETE FROM R1 WHERE Id = 31",   # a delta document
        f"DELETE FROM {other} WHERE Id = 4",  # a base document
        "freeze",
        _insert(rng, "R1", 2),
        f"DELETE FROM {other} WHERE Id = 0",  # a tombstone into the sealed base
        _insert(rng, other, 1),
        "compact",
        _insert(rng, other, 2),
        _insert(rng, "R1", 1),
        "DELETE FROM R1 WHERE Id = 2",
        _insert(rng, "R1", 1),
    ]


def _extent_layout(extent):
    return [
        (span.start_byte, span.n_bytes, span.first_page, span.last_page)
        for span, _ in extent.records()
    ]


def _digest(handle) -> str:
    """One hash of everything the held snapshot shows, per role."""
    factory = handle.factory
    roles = ("c1",) if handle.self_join else ("c1", "c2")
    facts = {}
    for side, role in enumerate(roles, start=1):
        collection = factory.collection(side)
        inverted = factory.inverted(side)
        btree = factory.btree(side)
        held = handle.held.sides.get(role)
        facts[role] = (
            [(doc.doc_id, doc.cells) for doc in collection],
            [
                (entry.term, entry.postings, entry.n_bytes, getattr(entry, "data", None))
                for entry in inverted.entries
            ],
            layout_signature(btree),
            list(btree.items()),
            None if held is None else sorted(held.global_ids.items()),
            sorted(collection.document_frequency().items()),
            collection_stats(collection),
            factory.stats(side),
            _extent_layout(factory.docs_extent(side)),
            _extent_layout(factory.inverted_extent(side)),
        )
    return hashlib.sha256(repr(facts).encode()).hexdigest()[:16]


def _run(directory, kind):
    from repro.service import JoinService, MutateRequest

    _workspace(directory, kind)
    service = JoinService({"ws": str(directory)}, max_workers=2)
    digests = [_digest(service._workspaces["ws"])]
    for step in _script(kind):
        if step == "freeze":
            freeze_delta(directory)
        elif step == "compact":
            compact(directory)
        else:
            service.mutate(MutateRequest(sql=step, workspace="ws"))
        digests.append(_digest(service._workspaces["ws"]))
    return digests


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_the_held_view_matches_the_recorded_fold(tmp_path, kind):
    assert _run(tmp_path / "ws", kind) == GOLDEN[kind]
