"""ExecutionContext: budgets, cancellation, phases, hooks, scoping."""

import pytest

from repro.errors import (
    BudgetExceededError,
    ExecutionCancelledError,
    InvalidParameterError,
)
from repro.exec.context import (
    ExecutionBudget,
    ExecutionContext,
    MetricsHooks,
    NullHooks,
    ensure_context,
)
from repro.storage.iostats import IOStats


class TestBudgetValidation:
    def test_defaults_are_unlimited(self):
        budget = ExecutionBudget()
        assert budget.pages is None
        assert budget.seconds is None
        assert budget.unlimited

    def test_any_ceiling_is_not_unlimited(self):
        assert not ExecutionBudget(pages=10).unlimited
        assert not ExecutionBudget(seconds=1.0).unlimited

    @pytest.mark.parametrize("pages", [0, -1])
    def test_rejects_non_positive_pages(self, pages):
        with pytest.raises(InvalidParameterError):
            ExecutionBudget(pages=pages)

    @pytest.mark.parametrize("seconds", [0.0, -2.5])
    def test_rejects_non_positive_seconds(self, seconds):
        with pytest.raises(InvalidParameterError):
            ExecutionBudget(seconds=seconds)


class TestGuard:
    def test_counts_pages_recorded_under_the_guard(self):
        ctx = ExecutionContext()
        stats = IOStats()
        with ctx.guard(stats):
            stats.record("a", sequential=3, random=2)
        assert ctx.pages_used == 5

    def test_detaches_on_exit(self):
        ctx = ExecutionContext()
        stats = IOStats()
        with ctx.guard(stats):
            stats.record("a", sequential=1)
        stats.record("a", sequential=10)
        assert ctx.pages_used == 1
        assert ctx.partial_stats() is None

    def test_page_budget_raises_at_the_crossing_record(self):
        ctx = ExecutionContext(budget=ExecutionBudget(pages=4))
        stats = IOStats()
        with pytest.raises(BudgetExceededError) as info:
            with ctx.guard(stats):
                stats.record("a", sequential=3)
                stats.record("a", sequential=3)  # 6 > 4: raises here
                stats.record("a", sequential=100)  # never reached
        assert info.value.pages_used == 6
        assert info.value.stats is not None
        assert info.value.stats.total_reads == 6
        assert stats.total_reads == 6

    def test_partial_stats_is_the_delta_inside_the_guard(self):
        ctx = ExecutionContext()
        stats = IOStats()
        stats.record("before", sequential=7)
        with ctx.guard(stats):
            stats.record("a", random=2)
            partial = ctx.partial_stats()
        assert partial.total_reads == 2
        assert partial.by_extent == {"a": (0, 2)}

    def test_nested_guard_keeps_the_outer_scope(self):
        ctx = ExecutionContext()
        outer, inner = IOStats(), IOStats()
        with ctx.guard(outer):
            with ctx.guard(inner):
                outer.record("a", sequential=1)
                inner.record("b", sequential=1)  # unwatched: outer scope rules
            outer.record("a", sequential=1)  # outer guard still attached
        assert ctx.pages_used == 2

    def test_accounting_accumulates_across_sequential_guards(self):
        ctx = ExecutionContext()
        for _ in range(2):
            stats = IOStats()
            with ctx.guard(stats):
                stats.record("a", sequential=3)
        assert ctx.pages_used == 6


class TestCheckpoint:
    def test_noop_without_budget_or_cancel(self):
        ExecutionContext().checkpoint()

    def test_cancellation_raises(self):
        cancelled = {"flag": False}
        ctx = ExecutionContext(cancel_check=lambda: cancelled["flag"])
        ctx.checkpoint()
        cancelled["flag"] = True
        with pytest.raises(ExecutionCancelledError):
            ctx.checkpoint()

    def test_time_budget_observed_at_checkpoints(self):
        fake = {"now": 0.0}
        ctx = ExecutionContext(
            budget=ExecutionBudget(seconds=5.0), clock=lambda: fake["now"]
        )
        with ctx.guard(IOStats()):  # starts the clock
            pass
        fake["now"] = 4.0
        ctx.checkpoint()
        fake["now"] = 6.0
        with pytest.raises(BudgetExceededError) as info:
            ctx.checkpoint()
        assert info.value.elapsed == pytest.approx(6.0)

    def test_elapsed_is_zero_before_any_guard(self):
        assert ExecutionContext().elapsed() == 0.0


class TestPhases:
    def test_phase_delta_lands_in_phase_stats(self):
        ctx = ExecutionContext()
        stats = IOStats()
        with ctx.guard(stats):
            with ctx.phase("scan"):
                stats.record("a", sequential=4)
            with ctx.phase("probe"):
                stats.record("b", random=2)
        assert ctx.phase_stats["scan"].sequential_reads == 4
        assert ctx.phase_stats["probe"].random_reads == 2

    def test_reentering_a_phase_merges_its_deltas(self):
        ctx = ExecutionContext()
        stats = IOStats()
        with ctx.guard(stats):
            for _ in range(3):
                with ctx.phase("scan"):
                    stats.record("a", sequential=2)
        assert ctx.phase_stats["scan"].sequential_reads == 6
        assert ctx.phase_stats["scan"].by_extent == {"a": (6, 0)}

    def test_phase_stats_view_is_read_only(self):
        ctx = ExecutionContext()
        with pytest.raises(TypeError):
            ctx.phase_stats["scan"] = IOStats()

    def test_hooks_see_start_end_and_the_delta(self):
        hooks = MetricsHooks()
        ctx = ExecutionContext(hooks=(hooks,))
        stats = IOStats()
        with ctx.guard(stats):
            with ctx.phase("scan"):
                stats.record("a", sequential=4)
        assert [name for name, _ in hooks.phases] == ["scan"]
        assert hooks.phases[0][1].sequential_reads == 4

    @pytest.mark.parametrize("guarded", [True, False])
    def test_a_phase_that_reads_nothing_keeps_an_empty_bucket(self, guarded):
        hooks = MetricsHooks()
        ctx = ExecutionContext(hooks=(hooks,))
        stats = IOStats()
        stats.record("a", sequential=3)
        if guarded:
            with ctx.guard(stats):
                with ctx.phase("idle"):
                    pass
        else:
            with ctx.phase("idle"):
                pass
        assert ctx.phase_stats["idle"] == IOStats()
        assert hooks.phases == [("idle", IOStats())]
        # each close hands out its own delta, never the bucket itself
        assert hooks.phases[0][1] is not ctx.phase_stats["idle"]

    def test_a_raising_body_still_folds_its_partial_delta(self):
        hooks = MetricsHooks()
        ctx = ExecutionContext(hooks=(hooks,))
        stats = IOStats()
        with ctx.guard(stats):
            with pytest.raises(RuntimeError):
                with ctx.phase("probe"):
                    stats.record("a", random=2)
                    stats.record("b", sequential=1)
                    raise RuntimeError("mid-phase")
        assert ctx.phase_stats["probe"].by_extent == {"a": (0, 2), "b": (1, 0)}
        assert hooks.phases[0][1].by_extent == {"a": (0, 2), "b": (1, 0)}

    def test_a_nested_phase_counts_in_both_scopes(self):
        ctx = ExecutionContext()
        stats = IOStats()
        with ctx.guard(stats):
            with ctx.phase("outer"):
                stats.record("a", sequential=1)
                with ctx.phase("inner"):
                    stats.record("b", random=2)
                stats.record("a", sequential=4)
        assert ctx.phase_stats["outer"].by_extent == {"a": (5, 0), "b": (0, 2)}
        assert ctx.phase_stats["inner"].by_extent == {"b": (0, 2)}
        assert ctx.phase_stats["outer"].total_reads == 7


class TestEmit:
    def test_emit_counts_and_returns_the_block(self):
        ctx = ExecutionContext()
        block = object()
        assert ctx.emit(block) is block
        assert ctx.blocks_emitted == 1

    def test_emit_reaches_every_hook(self):
        first, second = MetricsHooks(), MetricsHooks()
        ctx = ExecutionContext(hooks=(first, second))
        ctx.emit(object())
        assert first.blocks_seen == 1
        assert second.blocks_seen == 1

    def test_null_hooks_are_inert(self):
        ctx = ExecutionContext(hooks=(NullHooks(),))
        stats = IOStats()
        with ctx.guard(stats):
            with ctx.phase("scan"):
                stats.record("a", sequential=1)
        ctx.emit(object())
        assert ctx.blocks_emitted == 1


class TestEnsureContext:
    def test_passthrough(self):
        ctx = ExecutionContext()
        assert ensure_context(ctx) is ctx

    def test_fresh_contexts_are_never_shared(self):
        assert ensure_context(None) is not ensure_context(None)


class TestBudgetSplit:
    def test_even_division(self):
        parts = ExecutionBudget(pages=12).split(3)
        assert [b.pages for b in parts] == [4, 4, 4]

    def test_remainder_goes_to_the_first_shards(self):
        parts = ExecutionBudget(pages=10).split(4)
        assert [b.pages for b in parts] == [3, 3, 2, 2]

    def test_unlimited_pages_stay_unlimited(self):
        parts = ExecutionBudget().split(3)
        assert all(b.pages is None for b in parts)

    def test_seconds_are_shared_not_divided(self):
        parts = ExecutionBudget(pages=8, seconds=2.0).split(2)
        assert [b.seconds for b in parts] == [2.0, 2.0]

    def test_tiny_budget_floors_at_one_page_per_shard(self):
        # Over-allocating beats constructing an invalid zero budget.
        parts = ExecutionBudget(pages=2).split(5)
        assert [b.pages for b in parts] == [1, 1, 1, 1, 1]

    def test_rejects_non_positive_count(self):
        with pytest.raises(InvalidParameterError):
            ExecutionBudget(pages=4).split(0)


class TestGuardExceptionSafety:
    def test_worker_exception_mid_phase_leaves_no_observer(self):
        # The sharded-execution regression: a shard worker raising
        # mid-phase must fully unwind the guard — no observer left on
        # the counter, no attached scope on the context.
        ctx = ExecutionContext()
        stats = IOStats()
        with pytest.raises(RuntimeError):
            with ctx.guard(stats):
                with ctx.phase("probe"):
                    stats.record("a", sequential=1)
                    raise RuntimeError("shard worker failed")
        assert stats._observers == []
        assert ctx.partial_stats() is None
        # the partial phase delta is still accounted (pinned behavior)
        assert ctx.phase_stats["probe"].total_reads == 1

    def test_budget_still_enforced_after_a_failed_run(self):
        ctx = ExecutionContext(budget=ExecutionBudget(pages=3))
        stats = IOStats()
        with pytest.raises(RuntimeError):
            with ctx.guard(stats):
                stats.record("a", sequential=1)
                raise RuntimeError("boom")
        fresh = IOStats()
        with pytest.raises(BudgetExceededError):
            with ctx.guard(fresh):
                fresh.record("b", sequential=5)
        assert fresh._observers == []

    def test_failing_subscribe_leaves_context_clean(self):
        # If snapshot/subscribe raises, the context must not be left
        # permanently "attached" (which would turn every later guard
        # into a nested no-op with the budget silently unenforced).
        class ExplodingStats(IOStats):
            def subscribe(self, observer):
                raise RuntimeError("cannot subscribe")

        ctx = ExecutionContext(budget=ExecutionBudget(pages=2))
        with pytest.raises(RuntimeError):
            with ctx.guard(ExplodingStats()):
                pass  # pragma: no cover — guard setup raises
        stats = IOStats()
        with pytest.raises(BudgetExceededError):
            with ctx.guard(stats):
                stats.record("a", sequential=5)


class TestPhaseHookErrors:
    class _RaisingHooks(NullHooks):
        def __init__(self):
            self.ended = []

        def on_phase_end(self, name, stats):
            self.ended.append(name)
            raise ValueError("hook failed")

    def test_hook_error_surfaces_when_body_succeeds(self):
        hook = self._RaisingHooks()
        ctx = ExecutionContext(hooks=(hook,))
        with pytest.raises(ValueError):
            with ctx.phase("scan"):
                pass
        assert hook.ended == ["scan"]

    def test_hook_error_does_not_mask_the_body_exception(self):
        hook = self._RaisingHooks()
        ctx = ExecutionContext(hooks=(hook,))
        with pytest.raises(RuntimeError, match="real failure"):
            with ctx.phase("scan"):
                raise RuntimeError("real failure")
        assert hook.ended == ["scan"]

    def test_every_hook_runs_even_when_one_raises(self):
        first = self._RaisingHooks()
        second = MetricsHooks()
        ctx = ExecutionContext(hooks=(first, second))
        with pytest.raises(ValueError):
            with ctx.phase("scan"):
                pass
        assert [name for name, _ in second.phases] == ["scan"]
