"""The full multidatabase plan optimizer.

The paper's integrated algorithm picks among three algorithms by I/O
cost.  A global query optimizer in the paper's multidatabase setting
(Sections 1-2) faces a larger plan space, and this module enumerates all
of it using the extension models:

* **algorithm** — HHNL, HVNL, VVM, plus HHNL in backward order;
* **execution site** — C1's system, C2's system, or the mediator
  (communication cost per :mod:`repro.cost.communication`);
* **cost components** — I/O (Section 5), network pages at ``beta`` per
  page, and optionally CPU cell operations at a calibrated rate.

:func:`optimize` scores every feasible combination and returns the plans
ranked by total cost; :class:`PlannedJoin` can then execute the winner
against a :class:`~repro.core.join.JoinEnvironment` (local execution —
the site choice only affects the cost report there, since the simulated
environment has no real network).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.join import JoinEnvironment, TextJoinResult, TextJoinSpec
from repro.core.operators import operator
from repro.cost.communication import ExecutionSite, communication_cost
from repro.cost.cpu import cpu_report, hhnl_cpu_cost
from repro.cost.hhnl import hhnl_backward_cost, hhnl_cost
from repro.cost.hvnl import hvnl_cost
from repro.cost.overlap import overlap_probabilities
from repro.cost.params import JoinSide, QueryParams, SystemParams
from repro.cost.vvm import vvm_cost
from repro.errors import InsufficientMemoryError, JoinError
from repro.exec.stream import collect


@dataclass(frozen=True)
class PlanCost:
    """One candidate plan with its cost breakdown."""

    algorithm: str  # HHNL | HHNL-BWD | HVNL | VVM
    site: ExecutionSite
    io_cost: float
    communication_pages: float
    cpu_operations: float

    def total(self, beta: float, ops_per_io_unit: float | None) -> float:
        """This plan's combined cost under the given calibrations."""
        total = self.io_cost + self.communication_pages * beta
        if ops_per_io_unit is not None:
            total += self.cpu_operations / ops_per_io_unit
        return total


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs of the plan search.

    ``beta`` prices one shipped page in sequential-read units (0 models
    a centralised system, recovering the paper's integrated algorithm);
    ``ops_per_io_unit`` calibrates CPU speed (``None`` ignores CPU, the
    paper's Section 3 assumption); ``scenario`` selects the sequential
    or worst-case I/O variant; ``consider_backward`` admits the
    backward-order HHNL plan.
    """

    beta: float = 0.0
    ops_per_io_unit: float | None = None
    scenario: str = "sequential"
    consider_backward: bool = True

    def __post_init__(self) -> None:
        if self.beta < 0:
            raise JoinError(f"beta must be non-negative, got {self.beta}")
        if self.ops_per_io_unit is not None and self.ops_per_io_unit <= 0:
            raise JoinError("ops_per_io_unit must be positive when given")
        if self.scenario not in ("sequential", "random"):
            raise JoinError(f"unknown scenario {self.scenario!r}")


@dataclass
class OptimizedPlan:
    """The optimizer's output: ranked candidates plus the choice."""

    config: OptimizerConfig
    candidates: list[PlanCost] = field(default_factory=list)

    @property
    def best(self) -> PlanCost:
        if not self.candidates:
            raise InsufficientMemoryError("no feasible plan")
        return self.candidates[0]

    def totals(self) -> list[tuple[PlanCost, float]]:
        """Every candidate with its total cost, cheapest first."""
        return [
            (plan, plan.total(self.config.beta, self.config.ops_per_io_unit))
            for plan in self.candidates
        ]


def optimize(
    side1: JoinSide,
    side2: JoinSide,
    system: SystemParams,
    query: QueryParams,
    config: OptimizerConfig | None = None,
    *,
    p: float | None = None,
    q: float | None = None,
) -> OptimizedPlan:
    """Enumerate and rank every (algorithm, site) plan."""
    config = config or OptimizerConfig()
    if p is None or q is None:
        default_p, default_q = overlap_probabilities(side1.stats.T, side2.stats.T)
        p = default_p if p is None else p
        q = default_q if q is None else q

    io_costs: dict[str, float] = {}
    for name, thunk in (
        ("HHNL", lambda: hhnl_cost(side1, side2, system, query)),
        ("HVNL", lambda: hvnl_cost(side1, side2, system, query, q)),
        ("VVM", lambda: vvm_cost(side1, side2, system, query)),
    ):
        try:
            detail = thunk()
        except InsufficientMemoryError:
            continue
        io_costs[name] = (
            detail.sequential if config.scenario == "sequential" else detail.random
        )
    if config.consider_backward:
        try:
            detail = hhnl_backward_cost(side1, side2, system, query)
            io_costs["HHNL-BWD"] = (
                detail.sequential if config.scenario == "sequential" else detail.random
            )
        except InsufficientMemoryError:
            pass

    cpu = cpu_report(side1, side2, system, query, p, q)
    candidates: list[PlanCost] = []
    for name, io_cost in io_costs.items():
        comm_name = "HHNL" if name == "HHNL-BWD" else name
        cpu_name = "HHNL" if name == "HHNL-BWD" else name
        cpu_ops = cpu[cpu_name].total_operations
        for site in ExecutionSite:
            comm = communication_cost(comm_name, side1, side2, query, system, site)
            candidates.append(
                PlanCost(
                    algorithm=name,
                    site=site,
                    io_cost=io_cost,
                    communication_pages=comm.shipped_pages,
                    cpu_operations=cpu_ops,
                )
            )
    candidates.sort(key=lambda c: c.total(config.beta, config.ops_per_io_unit))
    return OptimizedPlan(config=config, candidates=candidates)


def execute_plan(
    plan: PlanCost,
    environment: JoinEnvironment,
    spec: TextJoinSpec,
    system: SystemParams,
    *,
    outer_ids: Sequence[int] | None = None,
    interference: bool = False,
) -> TextJoinResult:
    """Run a plan's algorithm against a local environment.

    The site choice has no executable counterpart in the single-machine
    simulation; the plan rides along in ``extras['plan']`` so callers
    can report it.
    """
    result = collect(
        operator(plan.algorithm).stream(
            environment, spec, system,
            outer_ids=outer_ids, interference=interference,
        )
    )
    result.extras["plan"] = plan
    return result
