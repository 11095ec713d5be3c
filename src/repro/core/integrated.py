"""The integrated algorithm (paper Sections 6 and 7).

"Since no one algorithm is definitely better than all other algorithms,
we proposed the idea of constructing an integrated algorithm consisting
of the basic algorithms such that a particular basic algorithm is invoked
if it has the lowest estimated cost."

:class:`IntegratedJoin` does exactly that over a
:class:`~repro.core.join.JoinEnvironment`: build the statistics, evaluate
all six cost formulas, pick the cheapest feasible algorithm under the
chosen I/O scenario, and dispatch to its entry in the operator table
(:mod:`repro.core.operators`) — either streamed
(:meth:`IntegratedJoin.stream`, the path the SQL layer uses so ``LIMIT``
can abandon the join mid-I/O) or materialized
(:meth:`IntegratedJoin.run`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.core.join import JoinEnvironment, TextJoinResult, TextJoinSpec
from repro.core.operators import operator
from repro.cost.model import CostModel, CostReport
from repro.cost.params import QueryParams, SystemParams
from repro.exec.context import ExecutionContext
from repro.exec.stream import MatchBlock, collect


@dataclass(frozen=True)
class IntegratedDecision:
    """The optimizer's verdict for one join configuration."""

    chosen: str
    scenario: str
    report: CostReport

    @property
    def estimated_cost(self) -> float:
        return self.report[self.chosen].cost(self.scenario)


@dataclass
class IntegratedJoin:
    """Estimate, choose, execute.

    ``scenario`` selects which cost variant drives the choice:
    ``"sequential"`` assumes dedicated devices, ``"random"`` the
    worst-case shared device.  ``use_measured_q=True`` derives ``q`` from
    the actual vocabularies instead of the Section 6 analytic model —
    the executable environment knows the truth, so the optimizer may use
    it; set it False to reproduce the paper's setting.

    Only the forward order is considered (C2 outer), matching the paper's
    scope; the backward order changes nothing semantically but was left
    to the technical report.
    """

    environment: JoinEnvironment
    system: SystemParams = field(default_factory=SystemParams)
    scenario: str = "sequential"
    use_measured_q: bool = True
    delta: float = 0.1
    #: also consider HHNL in backward order (the [11] extension; the
    #: paper's own simulations use forward order only)
    consider_backward: bool = False

    def decide(
        self,
        spec: TextJoinSpec,
        outer_ids: Sequence[int] | None = None,
        inner_ids: Sequence[int] | None = None,
    ) -> IntegratedDecision:
        """Evaluate all six formulas and pick the cheapest algorithm."""
        side1, side2 = self.environment.cost_sides(outer_ids, inner_ids)
        query = QueryParams(lam=spec.lam, delta=self.delta)
        q = self.environment.measured_q() if self.use_measured_q else None
        p = self.environment.measured_p() if self.use_measured_q else None
        model = CostModel(side1, side2, self.system, query, p=p, q=q)
        report = model.report(
            label="integrated", include_backward=self.consider_backward
        )
        return IntegratedDecision(
            chosen=report.winner(self.scenario), scenario=self.scenario, report=report
        )

    def stream(
        self,
        spec: TextJoinSpec,
        outer_ids: Sequence[int] | None = None,
        *,
        inner_ids: Sequence[int] | None = None,
        interference: bool = False,
        context: ExecutionContext | None = None,
        decision: IntegratedDecision | None = None,
    ) -> Iterator[MatchBlock]:
        """Choose and stream the chosen operator's match blocks.

        Pass a precomputed ``decision`` to skip re-evaluating the cost
        model (the SQL executor calls :meth:`decide` up front so it can
        report the algorithm even when ``LIMIT`` abandons the stream
        early).  The decision and its estimated cost ride along in the
        summary's ``extras`` exactly as :meth:`run` reports them.
        """
        if decision is None:
            decision = self.decide(spec, outer_ids, inner_ids)
        stream = operator(decision.chosen).stream(
            self.environment, spec, self.system,
            outer_ids=outer_ids, inner_ids=inner_ids,
            interference=interference, delta=self.delta, context=context,
        )
        summary = yield from stream
        summary.extras["decision"] = decision
        summary.extras["estimated_cost"] = decision.estimated_cost
        return summary

    def run(
        self,
        spec: TextJoinSpec,
        outer_ids: Sequence[int] | None = None,
        *,
        inner_ids: Sequence[int] | None = None,
        interference: bool = False,
        context: ExecutionContext | None = None,
    ) -> TextJoinResult:
        """Choose and execute to completion; the decision rides along in
        ``extras``."""
        return collect(
            self.stream(
                spec,
                outer_ids,
                inner_ids=inner_ids,
                interference=interference,
                context=context,
            )
        )
