"""Parallel-equivalence conformance: clean sweeps pass, mutations are caught."""

import pytest

from repro.conformance import run_conformance
from repro.conformance.equivalence import equivalence
from repro.conformance.parallelcheck import ParallelAxis, sharded_run
from repro.errors import ConformanceError


def sweep(seed, trials, runner=sharded_run, fail_fast=False):
    return equivalence(
        "parallel-equivalence", seed, trials, ParallelAxis(runner=runner),
        fail_fast=fail_fast,
    )


class TestCleanSweep:
    def test_randomized_trials_pass(self):
        outcome = sweep(seed=7, trials=6)
        assert outcome.passed
        assert outcome.trials_run == 6
        # three executors x three shard counts per feasible trial
        assert outcome.comparisons > 0
        assert outcome.divergences == []

    def test_check_is_wired_into_the_report(self):
        report = run_conformance(
            seed=3, trials=3, checks=["parallel-equivalence"]
        )
        assert report["passed"]
        assert "parallel-equivalence" in report["checks"]
        section = report["checks"]["parallel-equivalence"]
        assert section["divergences"] == []

    def test_unknown_check_name_still_rejected(self):
        with pytest.raises(ConformanceError):
            run_conformance(seed=0, trials=1, checks=["parallel-nonsense"])


class TestMutationDetection:
    """The harness must catch a broken merge, not just bless a good one."""

    def test_dropped_shard_matches_surface_as_divergence(self):
        def corrupting_runner(algorithm, config, factory, shards):
            result = sharded_run(algorithm, config, factory, shards)
            if shards > 1 and result.matches:
                # drop the best hit of the first outer document
                first = next(iter(result.matches))
                if result.matches[first]:
                    result.matches[first] = result.matches[first][1:]
            return result

        outcome = sweep(
            seed=7, trials=4, runner=corrupting_runner
        )
        assert not outcome.passed
        assert any(
            "matches" in d.detail for d in outcome.divergences
        )
        assert all(
            d.check == "parallel-equivalence" for d in outcome.divergences
        )

    def test_inflated_shard_io_breaks_additivity(self):
        def inflating_runner(algorithm, config, factory, shards):
            result = sharded_run(algorithm, config, factory, shards)
            # a phantom page on the merged counter only: the per-shard
            # sum no longer explains the total
            result.io.record("phantom", sequential=1)
            return result

        outcome = sweep(
            seed=7, trials=2, runner=inflating_runner, fail_fast=True
        )
        assert not outcome.passed
        assert any("sum" in d.detail for d in outcome.divergences)

    def test_divergences_carry_reproduction_parameters(self):
        def corrupting_runner(algorithm, config, factory, shards):
            result = sharded_run(algorithm, config, factory, shards)
            result.matches.pop(next(iter(result.matches)), None)
            return result

        outcome = sweep(
            seed=5, trials=2, runner=corrupting_runner, fail_fast=True
        )
        assert outcome.divergences
        repro = outcome.divergences[0].reproduction
        assert {"trial", "spec1", "lam", "buffer_pages"} <= set(repro)
