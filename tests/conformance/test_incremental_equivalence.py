"""The incremental-equivalence check: exact cold-rebuild parity, and teeth."""

from repro.conformance import incrementalcheck, run_conformance
from repro.conformance.equivalence import equivalence
from repro.conformance.incrementalcheck import IncrementalAxis
from repro.conformance.trials import DEFAULT_EXECUTORS


def sweep(seed, trials, executors=None, fail_fast=False):
    return equivalence(
        "incremental-equivalence", seed, trials, IncrementalAxis(),
        executors=executors, fail_fast=fail_fast,
    )


class TestPassingSweep:
    def test_mutated_workspaces_equal_cold_rebuilds(self):
        outcome = sweep(seed=101, trials=5)
        assert outcome.passed
        assert outcome.trials_run == 5
        assert outcome.divergences == []

    def test_deterministic_for_a_seed(self):
        first = sweep(seed=33, trials=3)
        second = sweep(seed=33, trials=3)
        assert first.to_dict() == second.to_dict()

    def test_reproduction_carries_the_operation_log(self):
        outcome = sweep(
            seed=5, trials=2, executors=_dropping_executors(), fail_fast=True
        )
        assert not outcome.passed
        divergence = outcome.divergences[0]
        assert divergence.check == "incremental-equivalence"
        ops = divergence.reproduction["operations"]
        assert ops and all("op" in op for op in ops)


class TestTeeth:
    def test_catches_an_executor_that_drops_a_match(self):
        outcome = sweep(
            seed=7, trials=3, executors=_dropping_executors(), fail_fast=True
        )
        assert not outcome.passed
        assert any("differ" in d.detail for d in outcome.divergences)


    def test_catches_a_held_snapshot_that_went_stale(self, monkeypatch):
        """The held axis: a reuse-path load that keeps answering with what
        the workspace *was* must diverge from the cold rebuild."""
        real = incrementalcheck.load_workspace
        first: dict = {}

        def sticky(directory, held=None):
            if held is None:
                return real(directory)
            if str(directory) not in first:
                first[str(directory)] = real(directory, held)
            return first[str(directory)]

        monkeypatch.setattr(incrementalcheck, "load_workspace", sticky)
        outcome = sweep(seed=7, trials=3, fail_fast=True)
        assert not outcome.passed
        assert any(d.detail.startswith("held snapshot:") for d in outcome.divergences)


class TestRunnerIntegration:
    def test_selected_through_run_conformance(self):
        report = run_conformance(
            seed=11, trials=2, checks=["incremental-equivalence"]
        )
        assert report["passed"]
        assert set(report["checks"]) == {"incremental-equivalence"}
        section = report["checks"]["incremental-equivalence"]
        assert section["trials_run"] == 2


def _dropping_executors():
    """HHNL that silently loses one outer document on every second run.

    The cold run executes first in the check's loop, so the corrupted
    second run models an incremental (workspace) side that lost data.
    """
    real = DEFAULT_EXECUTORS["HHNL"]
    state = {"calls": 0}

    def dropping(environment, config):
        result = real(environment, config)
        state["calls"] += 1
        if state["calls"] % 2 == 0 and result.matches:
            del result.matches[next(iter(result.matches))]
        return result

    return {"HHNL": dropping}
