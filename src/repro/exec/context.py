"""The streaming execution context.

One :class:`ExecutionContext` scopes one query execution: it carries the
*frozen* run configuration — page/time budgets, a cancellation check and
the metric hooks — plus the mutable accounting that accumulates while
operators run (pages used, per-phase :class:`~repro.storage.iostats.IOStats`,
blocks emitted).  The context is threaded from the SQL executor through
:class:`~repro.core.integrated.IntegratedJoin` into the ``iter_*``
operators, which

* open a :meth:`guard` around their whole run, subscribing the context to
  the disk's :class:`~repro.storage.iostats.IOStats` so the **page budget
  is enforced at the exact read that crosses it** (a
  :class:`~repro.errors.BudgetExceededError` carrying the partial stats);
* wrap their internal I/O phases in :meth:`phase` blocks, which fold each
  phase's stats delta into :attr:`phase_stats` via
  :meth:`~repro.storage.iostats.IOStats.merge`;
* call :meth:`checkpoint` at operator step boundaries (chunk, outer
  document, merge pass) so time budgets and cancellation are observed
  before the next unit of I/O is issued;
* pass every yielded :class:`~repro.exec.stream.MatchBlock` through
  :meth:`emit` so hooks see results the moment they are final.

A context is *single-scope*: accounting accumulates across every guard
opened on it, which is exactly what a per-query budget wants (the
optimizer's probing and the chosen operator share one allowance).  Use a
fresh context per query.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Iterator, Mapping, Protocol, runtime_checkable

from contextlib import contextmanager

from repro.errors import (
    BudgetExceededError,
    ExecutionCancelledError,
    InvalidParameterError,
)
from repro.storage.iostats import IOStats


@dataclass(frozen=True)
class ExecutionBudget:
    """Hard ceilings for one query execution; ``None`` means unlimited."""

    #: maximum pages read (sequential + random), enforced per record call
    pages: int | None = None
    #: wall-clock ceiling in seconds, checked at operator checkpoints
    seconds: float | None = None

    def __post_init__(self) -> None:
        if self.pages is not None and self.pages <= 0:
            raise InvalidParameterError(
                f"page budget must be positive, got {self.pages}"
            )
        if self.seconds is not None and self.seconds <= 0:
            raise InvalidParameterError(
                f"time budget must be positive, got {self.seconds}"
            )

    @property
    def unlimited(self) -> bool:
        return self.pages is None and self.seconds is None

    def split(self, count: int) -> tuple["ExecutionBudget", ...]:
        """Divide this budget across ``count`` independent shards.

        The page allowance is distributed as evenly as possible (the
        first ``pages % count`` shards get one extra page); a shard
        never receives less than one page, so splitting a tiny budget
        across many shards over-allocates rather than handing out an
        invalid zero budget.  The time allowance is *shared*, not
        divided: shards run against the same wall clock, so each keeps
        the full deadline.
        """
        if count <= 0:
            raise InvalidParameterError(
                f"shard count must be positive, got {count}"
            )
        if self.pages is None:
            return tuple(
                ExecutionBudget(pages=None, seconds=self.seconds)
                for _ in range(count)
            )
        base, extra = divmod(self.pages, count)
        return tuple(
            ExecutionBudget(
                pages=max(1, base + (1 if index < extra else 0)),
                seconds=self.seconds,
            )
            for index in range(count)
        )


@runtime_checkable
class ExecutionHooks(Protocol):
    """Metric-hook protocol; implement any subset via no-op defaults."""

    def on_phase_start(self, name: str) -> None:
        """Called when an operator enters the named I/O phase."""

    def on_phase_end(self, name: str, stats: IOStats) -> None:
        """Called when the phase closes, with its I/O delta."""

    def on_block(self, block: Any) -> None:
        """Called for each finalised match block the moment it is emitted."""


class NullHooks:
    """Do-nothing hook base; subclass and override what you need."""

    def on_phase_start(self, name: str) -> None:
        """No-op phase-start hook."""

    def on_phase_end(self, name: str, stats: IOStats) -> None:
        """No-op phase-end hook."""

    def on_block(self, block: Any) -> None:
        """No-op block hook."""


class MetricsHooks(NullHooks):
    """A recording hook: counts blocks and keeps the phase log.

    Handy in tests and the CLI — attach one to a context and read
    ``phases`` / ``blocks_seen`` afterwards.
    """

    def __init__(self) -> None:
        self.phases: list[tuple[str, IOStats]] = []
        self.blocks_seen = 0

    def on_phase_end(self, name: str, stats: IOStats) -> None:
        """Append ``(name, delta)`` to the phase log."""
        self.phases.append((name, stats))

    def on_block(self, block: Any) -> None:
        """Count the emitted block."""
        self.blocks_seen += 1


class _ContextState:
    """The mutable half of a context (accounting, not configuration)."""

    __slots__ = (
        "pages_used",
        "started_at",
        "phase_stats",
        "blocks_emitted",
        "attached",
        "baseline",
    )

    def __init__(self) -> None:
        self.pages_used = 0
        self.started_at: float | None = None
        self.phase_stats: dict[str, IOStats] = {}
        self.blocks_emitted = 0
        self.attached: IOStats | None = None
        self.baseline: IOStats | None = None


@dataclass(frozen=True, eq=False)
class ExecutionContext:
    """Frozen run configuration plus accumulating execution accounting."""

    budget: ExecutionBudget = field(default_factory=ExecutionBudget)
    cancel_check: Callable[[], bool] | None = None
    hooks: tuple[ExecutionHooks, ...] = ()
    clock: Callable[[], float] = time.monotonic
    _state: _ContextState = field(default_factory=_ContextState, repr=False)

    # --- accounting views -------------------------------------------------

    @property
    def pages_used(self) -> int:
        """Pages recorded while this context was guarding a counter."""
        return self._state.pages_used

    @property
    def blocks_emitted(self) -> int:
        """Match blocks that passed through :meth:`emit` so far."""
        return self._state.blocks_emitted

    @property
    def phase_stats(self) -> Mapping[str, IOStats]:
        """Per-phase I/O accounting, merged across all phase entries."""
        return MappingProxyType(self._state.phase_stats)

    def elapsed(self) -> float:
        """Seconds since the first guard was opened (0.0 before that)."""
        if self._state.started_at is None:
            return 0.0
        return self.clock() - self._state.started_at

    def partial_stats(self) -> IOStats | None:
        """Stats accumulated inside the current guard (None outside one)."""
        state = self._state
        if state.attached is None or state.baseline is None:
            return None
        return state.attached.delta(state.baseline)

    # --- enforcement ------------------------------------------------------

    def _on_record(self, _extent: str, sequential: int, random: int) -> None:
        state = self._state
        state.pages_used += sequential + random
        budget = self.budget
        if budget.pages is not None and state.pages_used > budget.pages:
            raise BudgetExceededError(
                f"page budget exhausted: {state.pages_used} pages read, "
                f"budget is {budget.pages}",
                stats=self.partial_stats(),
                pages_used=state.pages_used,
                elapsed=self.elapsed(),
            )

    def checkpoint(self) -> None:
        """Observe cancellation and the time budget between operator steps.

        Operators call this *before* starting the next unit of work
        (outer chunk, probed document, merge pass), so a deadline or a
        cancel stops the join without issuing that unit's I/O.
        """
        if self.cancel_check is not None and self.cancel_check():
            raise ExecutionCancelledError("execution cancelled by caller")
        seconds = self.budget.seconds
        if seconds is not None and self.elapsed() > seconds:
            raise BudgetExceededError(
                f"time budget exhausted: {self.elapsed():.3f}s elapsed, "
                f"budget is {seconds}s",
                stats=self.partial_stats(),
                pages_used=self._state.pages_used,
                elapsed=self.elapsed(),
            )

    # --- scoping ----------------------------------------------------------

    @contextmanager
    def guard(self, stats: IOStats) -> Iterator["ExecutionContext"]:
        """Subscribe to ``stats`` for the duration of one operator run.

        Re-entrant guards are rejected: one context watches one counter
        at a time (nested operators share the outer guard — the
        ``iter_*`` generators only open one when none is active).
        """
        state = self._state
        if state.attached is not None:
            # Nested operator under an active guard: keep the outer scope.
            yield self
            return
        if state.started_at is None:
            state.started_at = self.clock()
        # Take the baseline and subscribe *before* marking the context
        # attached: if either raises (a tracing-stats subclass may), no
        # observer is registered and the context stays clean — marking
        # first would leave ``attached`` set forever, silently turning
        # every later guard into a nested no-op with the budget
        # unenforced.
        baseline = stats.snapshot()
        stats.subscribe(self._on_record)
        state.attached = stats
        state.baseline = baseline
        previous = stats.page_ceiling  # published: a run inside it may fold
        if self.budget.pages is not None:
            headroom = stats.total_reads + self.budget.pages - state.pages_used
            stats.page_ceiling = min(previous, headroom)
        try:
            yield self
        finally:
            # Detach unconditionally, even when the guarded body raised
            # mid-phase: a failed shard must not leave an observer on a
            # counter that the parent later merges.
            state.attached = None
            state.baseline = None
            stats.unsubscribe(self._on_record)
            stats.page_ceiling = previous

    def phase(self, name: str) -> "_Phase":
        """Scope a named I/O phase; its stats delta lands in :attr:`phase_stats`."""
        return _Phase(self, name)

    def emit(self, block: Any) -> Any:
        """Pass one finalised match block through the hooks; returns it."""
        self._state.blocks_emitted += 1
        for hook in self.hooks:
            hook.on_block(block)
        return block


class _Phase:
    """One :meth:`ExecutionContext.phase` scope: the delta is built only if
    pages moved, and folded into the (always present) bucket even when the
    body raises."""

    __slots__ = ("context", "name", "stats", "before")

    def __init__(self, context: ExecutionContext, name: str) -> None:
        self.context = context
        self.name = name

    def __enter__(self) -> None:
        self.stats = stats = self.context._state.attached
        for hook in self.context.hooks:
            hook.on_phase_start(self.name)
        if stats is not None:
            self.before = stats.sequential_reads, stats.random_reads, dict(stats.by_extent)

    def __exit__(self, exc_type: Any, exc: Any, traceback: Any) -> None:
        context, name, stats = self.context, self.name, self.stats
        phase_stats = context._state.phase_stats
        bucket = phase_stats.get(name)
        if bucket is None:
            bucket = phase_stats[name] = IOStats()
        delta = None
        if stats is not None:
            sequential, random, by_extent = self.before
            if stats.sequential_reads != sequential or stats.random_reads != random:
                delta = stats.delta(IOStats(sequential, random, by_extent))
                bucket.merge(delta)
        if not context.hooks:
            return
        delta = delta if delta is not None else IOStats()
        # Every hook must see the phase close even if an earlier one
        # raises, and a hook failure must never mask the exception
        # that aborted the phase body (a shard worker's real error).
        hook_error: BaseException | None = None
        for hook in context.hooks:
            try:
                hook.on_phase_end(name, delta)
            except BaseException as error:  # noqa: BLE001 — re-raised below
                if hook_error is None:
                    hook_error = error
        if hook_error is not None and exc_type is None:
            raise hook_error


def ensure_context(context: ExecutionContext | None) -> ExecutionContext:
    """The given context, or a fresh unlimited one (never shared)."""
    return context if context is not None else ExecutionContext()


__all__ = [
    "ExecutionBudget",
    "ExecutionContext",
    "ExecutionHooks",
    "MetricsHooks",
    "NullHooks",
    "ensure_context",
]
