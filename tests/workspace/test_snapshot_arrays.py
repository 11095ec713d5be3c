"""numpy's ``rank`` arrays live and die with their snapshot.

The numpy backend slices C1's postings and C2's rows from arrays it
builds once per immutable inverted file and collection, held in a
kernel-private weak map.  Nothing is pickled with them, nothing keys
them on a query, and a mutation builds new snapshot objects, so: a
pickled environment carries no arrays, a sharded pool equals the
sequential run, a mutated view ranks from fresh arrays while a held old
snapshot ranks as before, and an entry dies with its snapshot.
"""

import gc
import pickle

import pytest

pytest.importorskip("numpy")

from repro.core.environment import EnvironmentFactory
from repro.core.hvnl import run_hvnl
from repro.core.join import TextJoinSpec
from repro.core.vvm import run_vvm
from repro.cost.params import SystemParams
from repro.kernels import vector
from repro.parallel.runner import run_sharded
from repro.text.collection import DocumentCollection
from repro.workspace import HeldSnapshot, MutationBatch, apply_mutations, load_workspace

SPEC = TextJoinSpec(lam=3)
#: a few buffer pages: VVM merges in several passes, HVNL evicts
SYSTEM = SystemParams(buffer_pages=4, page_bytes=512, alpha=5.0)


def factory_of(collections, kernel="numpy"):
    factory = EnvironmentFactory(*collections)
    factory.kernel = kernel
    return factory


def observed(result):
    return result.matches, result.io.by_extent, result.extras


def test_a_pickled_ranked_factory_carries_no_arrays(collections):
    factory = factory_of(collections)
    factory.create()  # derive every artifact before the first pickle
    unranked = pickle.dumps(factory)
    run_vvm(factory.create(), SPEC, SYSTEM)
    run_hvnl(factory.create(), SPEC, SYSTEM)
    assert factory.inverted(1) in vector._ARRAYS
    assert factory.collection2 in vector._ARRAYS
    assert pickle.dumps(factory) == unranked
    copy = pickle.loads(unranked)
    assert copy.inverted(1) not in vector._ARRAYS
    assert observed(run_vvm(copy.create(), SPEC, SYSTEM)) == observed(
        run_vvm(factory.create(), SPEC, SYSTEM)
    )


@pytest.mark.parametrize("algorithm", ["VVM", "HVNL"])
def test_four_shards_on_two_jobs_equal_sequential(collections, algorithm):
    factory = factory_of(collections)
    results = [
        run_sharded(algorithm, SPEC, SYSTEM, factory=factory, shards=4, jobs=jobs)
        for jobs in (0, 2)
    ]
    assert results[1].matches == results[0].matches
    assert dict(results[1].io.by_extent) == dict(results[0].io.by_extent)


def test_a_mutation_ranks_from_fresh_arrays(built):
    directory, _ = built
    held = HeldSnapshot()
    old = load_workspace(directory, held)
    old.kernel = "numpy"
    before = observed(run_vvm(old.create(), SPEC, SYSTEM))
    old_arrays = vector._ARRAYS[old.inverted(1)], vector._ARRAYS[old.collection2]
    apply_mutations(
        directory,
        MutationBatch.from_term_lists(
            inserts={"c1": [[3, 5, 5, 9]], "c2": [[3, 9, 9]]}, deletes={"c1": [0]}
        ),
        held=held,
    )
    new = load_workspace(directory, held)
    new.kernel = "numpy"
    after = observed(run_vvm(new.create(), SPEC, SYSTEM))
    assert new.inverted(1) is not old.inverted(1)
    assert new.collection2 is not old.collection2
    assert vector._ARRAYS[new.inverted(1)] is not old_arrays[0]
    assert vector._ARRAYS[new.collection2] is not old_arrays[1]
    new.kernel = "scalar"  # the oracle reads the new snapshot's tuples
    assert after == observed(run_vvm(new.create(), SPEC, SYSTEM))
    assert after != before
    # the held old snapshot still ranks from its own arrays
    assert observed(run_vvm(old.create(), SPEC, SYSTEM)) == before
    assert vector._ARRAYS[old.inverted(1)] is old_arrays[0]


def test_an_entry_dies_with_its_snapshot(collections):
    fresh = [DocumentCollection(c.name, c.documents) for c in collections]
    gc.collect()
    held = len(vector._ARRAYS)
    factory = factory_of(fresh)
    run_vvm(factory.create(), SPEC, SYSTEM)
    assert len(vector._ARRAYS) == held + 2  # C1's inverted file, C2's collection
    del factory, fresh
    gc.collect()
    assert len(vector._ARRAYS) == held
