"""Kernel-equivalence conformance: backends are byte-identical, breakage is caught."""

import pytest

from repro.conformance import run_conformance
from repro.conformance.equivalence import equivalence
from repro.conformance.kernelcheck import REFERENCE_KERNEL, KernelAxis, candidate_kernels
from repro.errors import ConformanceError
from repro.kernels import numpy_available


def sweep(seed, trials, executors=None, fail_fast=False):
    return equivalence(
        "kernel-equivalence", seed, trials, KernelAxis(), executors=executors,
        fail_fast=fail_fast,
    )


class TestCleanSweep:
    def test_randomized_trials_pass(self):
        outcome = sweep(seed=11, trials=5)
        assert outcome.passed
        assert outcome.trials_run == 5
        assert outcome.comparisons > 0
        assert outcome.divergences == []

    def test_check_is_wired_into_the_report(self):
        report = run_conformance(seed=4, trials=3, checks=["kernel-equivalence"])
        assert report["passed"]
        section = report["checks"]["kernel-equivalence"]
        assert section["divergences"] == []

    def test_unknown_check_name_still_rejected(self):
        with pytest.raises(ConformanceError):
            run_conformance(seed=0, trials=1, checks=["kernel-nonsense"])

    def test_reference_backend_is_scalar(self):
        assert REFERENCE_KERNEL == "scalar"
        assert REFERENCE_KERNEL not in candidate_kernels()

    @pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
    def test_numpy_backend_is_exercised_when_available(self):
        assert "numpy" in candidate_kernels()


class TestMutationDetection:
    """The harness must catch a lying backend, not just bless a good one."""

    def test_perturbed_matches_surface_as_divergence(self):
        def perturbing_executor(environment, config):
            from repro.conformance.trials import DEFAULT_EXECUTORS

            result = DEFAULT_EXECUTORS["HHNL"](environment, config)
            # A non-scalar backend nudging one similarity must be caught;
            # the scalar reference run keeps its exact figures.
            if environment.kernels.name != REFERENCE_KERNEL and result.matches:
                first = next(iter(result.matches))
                result.matches[first] = [
                    (doc, sim + 1) for doc, sim in result.matches[first]
                ]
            return result

        outcome = sweep(
            seed=11, trials=3, executors={"HHNL": perturbing_executor},
            fail_fast=True,
        )
        assert not outcome.passed
        assert any("matches" in d.detail for d in outcome.divergences)
        assert all(d.check == "kernel-equivalence" for d in outcome.divergences)

    def test_phantom_io_surfaces_as_divergence(self):
        def inflating_executor(environment, config):
            from repro.conformance.trials import DEFAULT_EXECUTORS

            result = DEFAULT_EXECUTORS["VVM"](environment, config)
            if environment.kernels.name != REFERENCE_KERNEL:
                result.io.record("phantom", sequential=1)
            return result

        outcome = sweep(
            seed=11, trials=3, executors={"VVM": inflating_executor},
            fail_fast=True,
        )
        assert not outcome.passed
        assert any("reads differ" in d.detail for d in outcome.divergences)

    def test_similarity_type_drift_surfaces_as_divergence(self):
        # Regression: VVM's numpy backend once yielded float 22.0 where
        # the scalar accumulator yields int 22 — equal by ==, different
        # when rendered.  The check must pin the type, not just the value.
        def retyping_executor(environment, config):
            from repro.conformance.trials import DEFAULT_EXECUTORS

            result = DEFAULT_EXECUTORS["VVM"](environment, config)
            if environment.kernels.name != REFERENCE_KERNEL:
                result.matches = {
                    outer: [(doc, float(sim)) for doc, sim in hits]
                    for outer, hits in result.matches.items()
                }
            return result

        outcome = sweep(
            seed=11, trials=3, executors={"VVM": retyping_executor},
            fail_fast=True,
        )
        assert not outcome.passed
        assert any("similarity type" in d.detail for d in outcome.divergences)

    def test_divergences_carry_reproduction_parameters(self):
        def dropping_executor(environment, config):
            from repro.conformance.trials import DEFAULT_EXECUTORS

            result = DEFAULT_EXECUTORS["HVNL"](environment, config)
            if environment.kernels.name != REFERENCE_KERNEL:
                result.matches.pop(next(iter(result.matches)), None)
            return result

        outcome = sweep(
            seed=6, trials=2, executors={"HVNL": dropping_executor},
            fail_fast=True,
        )
        assert outcome.divergences
        repro = outcome.divergences[0].reproduction
        assert {"trial", "spec1", "lam", "buffer_pages"} <= set(repro)
