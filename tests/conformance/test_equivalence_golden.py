"""Golden pin for the five equivalence checks and every mutant they catch.

Three tables, recorded before the five trial loops became one harness
and unchanged since:

* ``HONEST`` — each check's ``run_conformance(seed=0, trials=10)``
  section minus ``comparisons``: trials run, skips per executor, the
  verdict and the divergences;
* ``FIRST_DIVERGENCE`` — the ``(executor, trial)`` of the first
  divergence of every mutant the check suites inject;
* ``FEASIBILITY`` — the same summary for executors that run out of
  memory on purpose, which is what pins each check's infeasibility rule
  (the honest sweep never runs out of memory).

Only the functions below the tables, which run each sweep, may change
with the harness's API.
"""

import pytest

from repro.conformance import DEFAULT_EXECUTORS, DEFAULT_STREAMERS, run_conformance
from repro.conformance import incrementalcheck
from repro.conformance.equivalence import StreamingAxis, equivalence
from repro.conformance.incrementalcheck import IncrementalAxis
from repro.conformance.kernelcheck import KernelAxis
from repro.conformance.parallelcheck import ParallelAxis, sharded_run
from repro.conformance.workspace import WorkspaceAxis
from repro.core.environment import EnvironmentFactory, EnvironmentSpec
from repro.errors import InsufficientMemoryError
from repro.exec.stream import MatchBlock
from repro.index.bptree import BPlusTree
from repro.index.inverted import InvertedFile
from repro.workspace import load_manifest, load_workspace

EQUIVALENCE_CHECKS = (
    "streaming-equivalence",
    "workspace-roundtrip",
    "parallel-equivalence",
    "kernel-equivalence",
    "incremental-equivalence",
)

HONEST = {
    name: {"trials_run": 10, "skips": {}, "passed": True, "divergences": []}
    for name in EQUIVALENCE_CHECKS
}

FIRST_DIVERGENCE = {
    "incremental: dropped match": ["HHNL", 0],
    "incremental: dropped match, seed 5": ["HHNL", 0],
    "incremental: stale held snapshot": ["HHNL", 0],
    "kernel: dropped HVNL outer": ["HVNL", 0],
    "kernel: perturbed HHNL": ["HHNL", 0],
    "kernel: phantom-IO VVM": ["VVM", 0],
    "kernel: similarity-type drift": ["VVM", 2],
    "parallel: corrupting runner": ["HHNL", 0],
    "parallel: inflating runner": ["HHNL", 0],
    "parallel: popping runner": ["HHNL", 0],
    "streaming: corrupted similarity": ["VVM", 0],
    "streaming: dropped block": ["HHNL", 0],
    "streaming: dropped block, no fail-fast": ["HHNL", 0],
    "streaming: duplicated block": ["HHNL", 0],
    "streaming: reordered blocks": ["HVNL", 0],
    "workspace: dropping loader": ["HVNL", 3],
}

FEASIBILITY = {
    "streaming-equivalence": {
        "every second run":
            {"trials_run": 4, "skips": {"HHNL": 2}, "passed": True, "first": None},
        "small buffer":
            {"trials_run": 4, "skips": {"VVM": 3}, "passed": True, "first": None},
        "stdlib backend":
            {"trials_run": 4, "skips": {}, "passed": True, "first": None},
        "vbyte codec":
            {"trials_run": 4, "skips": {}, "passed": True, "first": None},
    },
    "workspace-roundtrip": {
        "every second run":
            {"trials_run": 4, "skips": {}, "passed": False, "first": ["HHNL", 0]},
        "small buffer":
            {"trials_run": 4, "skips": {"VVM": 3}, "passed": True, "first": None},
        "stdlib backend":
            {"trials_run": 4, "skips": {}, "passed": True, "first": None},
        "vbyte codec":
            {"trials_run": 4, "skips": {}, "passed": True, "first": None},
    },
    "parallel-equivalence": {
        "every second run":
            {"trials_run": 4, "skips": {"HHNL": 2}, "passed": True, "first": None},
        "small buffer":
            {"trials_run": 4, "skips": {"VVM": 3}, "passed": True, "first": None},
        "stdlib backend":
            {"trials_run": 4, "skips": {}, "passed": True, "first": None},
        "vbyte codec":
            {"trials_run": 4, "skips": {}, "passed": True, "first": None},
    },
    "kernel-equivalence": {
        "every second run":
            {"trials_run": 4, "skips": {}, "passed": False, "first": ["HHNL", 0]},
        "small buffer":
            {"trials_run": 4, "skips": {"VVM": 3}, "passed": True, "first": None},
        "stdlib backend":
            {"trials_run": 4, "skips": {}, "passed": False, "first": ["HVNL", 0]},
        "vbyte codec":
            {"trials_run": 4, "skips": {}, "passed": True, "first": None},
    },
    "incremental-equivalence": {
        "every second run":
            {"trials_run": 4, "skips": {}, "passed": False, "first": ["HHNL", 0]},
        "small buffer":
            {"trials_run": 4, "skips": {"VVM": 2}, "passed": True, "first": None},
        "stdlib backend":
            {"trials_run": 4, "skips": {}, "passed": True, "first": None},
        "vbyte codec":
            {"trials_run": 4, "skips": {"HHNL": 2, "HVNL": 2, "VVM": 2},
             "passed": True, "first": None},
    },
}


# -- sweeps ----------------------------------------------------------------

AXES = {
    "streaming-equivalence": StreamingAxis,
    "workspace-roundtrip": WorkspaceAxis,
    "parallel-equivalence": ParallelAxis,
    "kernel-equivalence": KernelAxis,
    "incremental-equivalence": IncrementalAxis,
}


def workspace(seed, trials, loader, fail_fast=False):
    return equivalence(
        "workspace-roundtrip", seed, trials, WorkspaceAxis(loader=loader),
        fail_fast=fail_fast,
    )


def parallel(seed, trials, runner, fail_fast=False):
    return equivalence(
        "parallel-equivalence", seed, trials, ParallelAxis(runner=runner),
        fail_fast=fail_fast,
    )


def sharded(algorithm, config, factory, shards):
    return sharded_run(algorithm, config, factory, shards)


def kernel(seed, trials, executors):
    return equivalence(
        "kernel-equivalence", seed, trials, KernelAxis(), executors=executors,
        fail_fast=True,
    )


def incremental(seed, trials, executors=None):
    return equivalence(
        "incremental-equivalence", seed, trials, IncrementalAxis(),
        executors=executors, fail_fast=True,
    )


def streaming(seed, trials, streamers, fail_fast=True):
    return equivalence(
        "streaming-equivalence", seed, trials, StreamingAxis(streamers),
        fail_fast=fail_fast,
    )


def stale_held(monkeypatch):
    real = incrementalcheck.load_workspace
    first = {}

    def sticky(directory, held=None):
        if held is None:
            return real(directory)
        if str(directory) not in first:
            first[str(directory)] = real(directory, held)
        return first[str(directory)]

    monkeypatch.setattr(incrementalcheck, "load_workspace", sticky)
    return incremental(7, 3)


def check(name, seed, trials, executors):
    return equivalence(name, seed, trials, AXES[name](), executors=executors)


# -- mutants ---------------------------------------------------------------


def dropping_loader(directory):
    good = load_workspace(directory)
    manifest = load_manifest(directory)
    spec = EnvironmentSpec(
        page_bytes=manifest["page_bytes"], btree_order=manifest["btree_order"]
    )
    mutant = EnvironmentFactory(
        good.collection1, None if good.self_join else good.collection2, spec
    )
    entries = list(good.inverted(1).entries)[:-1]
    btree = BPlusTree.bulk_load(
        [(e.term, (i, e.document_frequency)) for i, e in enumerate(entries)],
        order=spec.btree_order,
    )
    mutant.preload_side(1, InvertedFile(good.collection1.name, entries), btree)
    if not good.self_join:
        mutant.preload_side(2, good.inverted(2), good.btree(2))
    return mutant


def corrupting_runner(algorithm, config, factory, shards):
    result = sharded(algorithm, config, factory, shards)
    if shards > 1 and result.matches:
        first = next(iter(result.matches))
        if result.matches[first]:
            result.matches[first] = result.matches[first][1:]
    return result


def inflating_runner(algorithm, config, factory, shards):
    result = sharded(algorithm, config, factory, shards)
    result.io.record("phantom", sequential=1)
    return result


def popping_runner(algorithm, config, factory, shards):
    result = sharded(algorithm, config, factory, shards)
    result.matches.pop(next(iter(result.matches)), None)
    return result


def off_reference(name, change):
    """``name``'s executor with ``change`` applied off the scalar backend."""

    def executor(environment, config):
        result = DEFAULT_EXECUTORS[name](environment, config)
        if environment.kernels.name != "scalar":
            change(result)
        return result

    return {name: executor}


def perturb(result):
    if result.matches:
        first = next(iter(result.matches))
        result.matches[first] = [(d, s + 1) for d, s in result.matches[first]]


def retype(result):
    result.matches = {
        outer: [(d, float(s)) for d, s in hits]
        for outer, hits in result.matches.items()
    }


def dropping_executors():
    state = {"calls": 0}

    def dropping(environment, config):
        result = DEFAULT_EXECUTORS["HHNL"](environment, config)
        state["calls"] += 1
        if state["calls"] % 2 == 0 and result.matches:
            del result.matches[next(iter(result.matches))]
        return result

    return {"HHNL": dropping}


def stream_mutant(name, rewrite):
    def mutant(environment, config):
        yield from rewrite(DEFAULT_STREAMERS[name](environment, config))

    return dict(DEFAULT_STREAMERS, **{name: mutant})


def drop_first(blocks):
    blocks = iter(blocks)
    next(blocks, None)
    yield from blocks


def scale(blocks):
    for block in blocks:
        yield MatchBlock(
            outer_doc=block.outer_doc,
            matches=tuple((d, s * 1.001) for d, s in block.matches),
        )


def twice(blocks):
    for block in blocks:
        yield block
        yield block


MUTANTS = {
    "workspace: dropping loader": lambda mp: workspace(55, 4, dropping_loader),
    "parallel: corrupting runner": lambda mp: parallel(7, 4, corrupting_runner),
    "parallel: inflating runner": lambda mp: parallel(7, 2, inflating_runner, True),
    "parallel: popping runner": lambda mp: parallel(5, 2, popping_runner, True),
    "kernel: perturbed HHNL": lambda mp: kernel(11, 3, off_reference("HHNL", perturb)),
    "kernel: phantom-IO VVM": lambda mp: kernel(
        11, 3, off_reference("VVM", lambda r: r.io.record("phantom", sequential=1))
    ),
    "kernel: similarity-type drift": lambda mp: kernel(
        11, 3, off_reference("VVM", retype)
    ),
    "kernel: dropped HVNL outer": lambda mp: kernel(
        6, 2, off_reference("HVNL", lambda r: r.matches.pop(min(r.matches), None))
    ),
    "incremental: dropped match": lambda mp: incremental(7, 3, dropping_executors()),
    "incremental: dropped match, seed 5": lambda mp: incremental(
        5, 2, dropping_executors()
    ),
    "incremental: stale held snapshot": stale_held,
    "streaming: dropped block": lambda mp: streaming(
        0, 25, stream_mutant("HHNL", drop_first)
    ),
    "streaming: reordered blocks": lambda mp: streaming(
        0, 25, stream_mutant("HVNL", lambda blocks: reversed(list(blocks)))
    ),
    "streaming: corrupted similarity": lambda mp: streaming(
        0, 25, stream_mutant("VVM", scale)
    ),
    "streaming: duplicated block": lambda mp: streaming(
        0, 25, stream_mutant("HHNL", twice)
    ),
    "streaming: dropped block, no fail-fast": lambda mp: streaming(
        0, 10, stream_mutant("HHNL", drop_first), fail_fast=False
    ),
}


def raising_when(predicate, names=("HHNL", "HVNL", "VVM")):
    """Executors that raise InsufficientMemoryError where ``predicate``
    holds for (environment, config, call number)."""
    state = {"calls": 0}

    def wrap(name):
        def executor(environment, config):
            state["calls"] += 1
            if predicate(environment, config, state["calls"]):
                raise InsufficientMemoryError(f"{name} does not fit")
            return DEFAULT_EXECUTORS[name](environment, config)

        return executor

    return {
        name: wrap(name) if name in names else DEFAULT_EXECUTORS[name]
        for name in DEFAULT_EXECUTORS
    }


INFEASIBLE = {
    # a small buffer fails everywhere: every check must call it a skip
    "small buffer": lambda: raising_when(
        lambda env, config, call: config.buffer_pages < 40, names=("VVM",)
    ),
    # only the compressed codec fails: ignored where it is a re-run
    "vbyte codec": lambda: raising_when(
        lambda env, config, call: env.codec == "vbyte"
    ),
    # only one backend fails: a divergence where the base fits
    "stdlib backend": lambda: raising_when(
        lambda env, config, call: env.kernels.name == "stdlib", names=("HVNL",)
    ),
    # every second run fails: one-sided infeasibility
    "every second run": lambda: raising_when(
        lambda env, config, call: call % 2 == 0, names=("HHNL",)
    ),
}


def summary(outcome):
    return {
        "trials_run": outcome.trials_run,
        "skips": dict(outcome.skips),
        "passed": outcome.passed,
        "first": (
            None
            if outcome.passed
            else [outcome.divergences[0].executor, outcome.divergences[0].trial]
        ),
    }


def test_honest_sections_are_pinned():
    report = run_conformance(seed=0, trials=10, checks=EQUIVALENCE_CHECKS)
    sections = {
        name: {key: section[key]
               for key in ("trials_run", "skips", "passed", "divergences")}
        for name, section in report["checks"].items()
    }
    assert sections == HONEST


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_mutant_first_divergence_is_pinned(mutant, monkeypatch):
    outcome = MUTANTS[mutant](monkeypatch)
    assert not outcome.passed
    first = outcome.divergences[0]
    assert [first.executor, first.trial] == FIRST_DIVERGENCE[mutant]


@pytest.mark.parametrize("case", sorted(INFEASIBLE))
@pytest.mark.parametrize("name", EQUIVALENCE_CHECKS)
def test_infeasibility_rules_are_pinned(name, case):
    outcome = check(name, 0, 4, INFEASIBLE[case]())
    assert summary(outcome) == FEASIBILITY[name][case]
