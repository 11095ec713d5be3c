"""Measured-vs-model validation (experiment X2 of DESIGN.md).

The paper validates its formulas by argument; we can do better because
our substrate is executable: lay real (synthetic) collections on the
simulated disk, run each algorithm, and compare the measured weighted
I/O against the Section 5 estimate under the same parameters.

A ratio near 1.0 says the executor and the formula describe the same
algorithm.  Perfect equality is not expected — the formulas use average
document/entry sizes and the vocabulary-growth model ``f(m)``, while the
executor sees the true skewed sizes — so the tests assert bands, not
equality.  The cross-algorithm *result agreement* check is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.join import JoinEnvironment, TextJoinSpec
from repro.core.operators import OPERATORS
from repro.cost.hhnl import hhnl_cost
from repro.cost.hvnl import hvnl_cost
from repro.cost.params import QueryParams, SystemParams
from repro.cost.vvm import vvm_cost
from repro.errors import JoinError
from repro.exec.stream import collect
from repro.storage.pages import PageGeometry
from repro.text.collection import DocumentCollection


@dataclass(frozen=True)
class ValidationRow:
    """One algorithm's measured-vs-predicted comparison."""

    algorithm: str
    scenario: str  # 'sequential' | 'random'
    measured: float
    predicted: float

    @property
    def ratio(self) -> float:
        """measured / predicted; 1.0 means the model is exact."""
        if self.predicted == 0:
            return float("inf") if self.measured else 1.0
        return self.measured / self.predicted


def validate_algorithms(
    collection1: DocumentCollection,
    collection2: DocumentCollection | None = None,
    *,
    system: SystemParams | None = None,
    lam: int = 10,
    delta: float = 0.1,
    outer_ids: Sequence[int] | None = None,
    interference: bool = False,
    check_agreement: bool = True,
) -> list[ValidationRow]:
    """Run all three executors and compare against the cost model.

    ``delta`` is used identically on both sides (executor partitioning
    and formula), and ``q`` is measured from the actual vocabularies so
    the comparison isolates the formulas' structure rather than the
    Section 6 overlap heuristic.
    """
    system = system or SystemParams()
    collection2 = collection2 if collection2 is not None else collection1
    environment = JoinEnvironment(
        collection1, collection2, PageGeometry(system.page_bytes)
    )
    spec = TextJoinSpec(lam=lam)
    query = QueryParams(lam=lam, delta=delta)
    side1, side2 = environment.cost_sides(outer_ids)
    q = environment.measured_q()
    scenario = "random" if interference else "sequential"

    predictions = {
        "HHNL": hhnl_cost(side1, side2, system, query),
        "HVNL": hvnl_cost(side1, side2, system, query, q),
        "VVM": vvm_cost(side1, side2, system, query),
    }
    results = {
        name: collect(
            OPERATORS[name].stream(
                environment, spec, system,
                outer_ids=outer_ids, interference=interference, delta=delta,
            )
        )
        for name in predictions
    }

    if check_agreement:
        hhnl, hvnl, vvm = results["HHNL"], results["HVNL"], results["VVM"]
        if not hhnl.same_matches_as(hvnl) or not hhnl.same_matches_as(vvm):
            raise JoinError(
                "executors disagree on the join result — substrate bug: "
                f"HHNL={hhnl.n_matches()} HVNL={hvnl.n_matches()} VVM={vvm.n_matches()}"
            )

    rows = []
    for name in ("HHNL", "HVNL", "VVM"):
        predicted = predictions[name].random if interference else predictions[name].sequential
        rows.append(
            ValidationRow(
                algorithm=name,
                scenario=scenario,
                measured=results[name].weighted_cost(system.alpha),
                predicted=predicted,
            )
        )
    return rows
