"""Streaming equivalence: iter_* flattens to run_*, mutants are caught."""

import pytest

from repro.conformance import DEFAULT_STREAMERS
from repro.conformance.equivalence import StreamingAxis, equivalence
from repro.exec.stream import MatchBlock


def sweep(seed, trials, streamers=DEFAULT_STREAMERS, fail_fast=False):
    return equivalence(
        "streaming-equivalence", seed, trials, StreamingAxis(streamers),
        fail_fast=fail_fast,
    )


class TestAgreement:
    def test_short_sweep_passes(self):
        outcome = sweep(0, 5)
        assert outcome.passed, outcome.first_divergence
        assert outcome.trials_run == 5
        # three algorithms per trial, minus InsufficientMemory skips
        assert outcome.comparisons + sum(outcome.skips.values()) == 15

    def test_outcome_dict_shape(self):
        summary = sweep(1, 3).to_dict()
        assert summary["seed"] == 1
        assert summary["trials_requested"] == 3
        assert summary["passed"] is True
        assert summary["divergences"] == []

    @pytest.mark.conformance
    @pytest.mark.slow
    def test_full_sweep_passes(self):
        outcome = sweep(0, 25)
        assert outcome.passed, outcome.first_divergence


class TestMutantDetection:
    """Acceptance: a corrupted stream is caught within 25 trials."""

    def caught(self, streamers, expect_name):
        outcome = sweep(
            0, 25, streamers=streamers, fail_fast=True
        )
        assert not outcome.passed
        first = outcome.first_divergence
        assert first.executor == expect_name
        assert first.check == "streaming-equivalence"
        assert first.trial < 25
        return first

    def test_dropped_block_caught(self):
        def mutant(environment, config):
            stream = DEFAULT_STREAMERS["HHNL"](environment, config)
            first_skipped = False
            for block in stream:
                if not first_skipped:
                    first_skipped = True
                    continue
                yield block

        self.caught(dict(DEFAULT_STREAMERS, HHNL=mutant), "HHNL")

    def test_reordered_blocks_caught(self):
        def mutant(environment, config):
            blocks = list(DEFAULT_STREAMERS["HVNL"](environment, config))
            yield from reversed(blocks)

        first = self.caught(dict(DEFAULT_STREAMERS, HVNL=mutant), "HVNL")
        assert first.reproduction["trial"] == first.trial

    def test_corrupted_similarity_caught(self):
        def mutant(environment, config):
            for block in DEFAULT_STREAMERS["VVM"](environment, config):
                yield MatchBlock(
                    outer_doc=block.outer_doc,
                    matches=tuple(
                        (doc, sim * 1.001) for doc, sim in block.matches
                    ),
                )

        self.caught(dict(DEFAULT_STREAMERS, VVM=mutant), "VVM")

    def test_duplicated_block_caught(self):
        def mutant(environment, config):
            for block in DEFAULT_STREAMERS["HHNL"](environment, config):
                yield block
                yield block

        self.caught(dict(DEFAULT_STREAMERS, HHNL=mutant), "HHNL")

    def test_dropped_summary_caught(self):
        # a relaying generator that forgets ``return (yield from ...)``
        def mutant(environment, config):
            for block in DEFAULT_STREAMERS["HVNL"](environment, config):
                yield block

        first = self.caught(dict(DEFAULT_STREAMERS, HVNL=mutant), "HVNL")
        assert "StreamSummary" in first.detail

    def test_other_algorithms_unaffected(self):
        def mutant(environment, config):
            stream = DEFAULT_STREAMERS["HHNL"](environment, config)
            skipped = False
            for block in stream:
                if not skipped:
                    skipped = True
                    continue
                yield block

        outcome = sweep(
            0, 10, streamers=dict(DEFAULT_STREAMERS, HHNL=mutant)
        )
        assert {d.executor for d in outcome.divergences} == {"HHNL"}
