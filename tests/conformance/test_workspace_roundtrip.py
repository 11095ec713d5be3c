"""The workspace round-trip check: exact equivalence, and teeth."""

from repro.conformance.equivalence import equivalence
from repro.conformance.workspace import WorkspaceAxis
from repro.core.environment import EnvironmentFactory, EnvironmentSpec
from repro.index.bptree import BPlusTree
from repro.index.inverted import InvertedFile
from repro.workspace import load_manifest, load_workspace


def sweep(seed, trials, loader=None, fail_fast=False):
    axis = WorkspaceAxis() if loader is None else WorkspaceAxis(loader=loader)
    return equivalence("workspace-roundtrip", seed, trials, axis, fail_fast=fail_fast)


class TestPassingSweep:
    def test_roundtrip_is_exact(self):
        outcome = sweep(seed=101, trials=6)
        assert outcome.passed
        assert outcome.trials_run == 6
        assert outcome.comparisons + sum(outcome.skips.values()) == 6 * 3
        assert outcome.divergences == []

    def test_deterministic_for_a_seed(self):
        first = sweep(seed=33, trials=3)
        second = sweep(seed=33, trials=3)
        assert first.to_dict() == second.to_dict()

    def test_divergences_carry_the_check_name(self):
        outcome = sweep(
            seed=55, trials=4, loader=_dropping_loader, fail_fast=True
        )
        assert not outcome.passed
        assert all(d.check == "workspace-roundtrip" for d in outcome.divergences)


def _dropping_loader(directory: str) -> EnvironmentFactory:
    """A corrupting loader: silently drops the last inverted entry of side 1.

    Models the bug class the check exists for — a loader that loses data
    but still produces a structurally valid factory.  ``preload_side``
    refuses to overwrite a loaded factory's artifacts, so the mutant
    builds a *fresh* factory over the honestly-loaded collections and
    preloads the mutated artifacts into it.
    """
    good = load_workspace(directory)
    manifest = load_manifest(directory)
    spec = EnvironmentSpec(
        page_bytes=manifest["page_bytes"], btree_order=manifest["btree_order"]
    )
    collection2 = None if good.self_join else good.collection2
    mutant = EnvironmentFactory(good.collection1, collection2, spec)

    entries = list(good.inverted(1).entries)[:-1]
    dropped = InvertedFile(good.collection1.name, entries)
    btree = BPlusTree.bulk_load(
        [
            (entry.term, (record_id, entry.document_frequency))
            for record_id, entry in enumerate(entries)
        ],
        order=spec.btree_order,
    )
    mutant.preload_side(1, dropped, btree)
    if not good.self_join:
        mutant.preload_side(2, good.inverted(2), good.btree(2))
    return mutant


class TestMutantLoaderCaught:
    def test_dropped_inverted_entry_diverges(self):
        honest = sweep(seed=55, trials=4)
        assert honest.passed
        mutant = sweep(seed=55, trials=4, loader=_dropping_loader)
        assert not mutant.passed
        assert mutant.divergences

    def test_fail_fast_stops_at_the_first_bad_trial(self):
        outcome = sweep(
            seed=55, trials=4, loader=_dropping_loader, fail_fast=True
        )
        assert outcome.divergences
        first_bad = outcome.divergences[0].trial
        assert all(d.trial == first_bad for d in outcome.divergences)
        assert outcome.trials_run == first_bad + 1
