"""The operator table: the one place an algorithm name meets its executor.

The paper's integrated algorithm (Sections 6-7) is one decision and one
dispatch: estimate the costs, invoke the cheapest basic algorithm.  This
table is that dispatch.  Every consumer that turns a name from
:meth:`repro.cost.model.CostModel.report` into a running join —
:meth:`repro.core.integrated.IntegratedJoin.stream`,
:func:`repro.core.shards.iter_shard`,
:func:`repro.core.optimizer.execute_plan`,
:func:`repro.experiments.validate.validate_algorithms` and the
conformance trial adapters — looks the operator up here and calls it
with one uniform keyword set: ``outer_ids``, ``inner_ids``,
``interference``, ``delta``, ``context``.

``shard_axis`` names the side partitioned execution splits for the
operator (see :mod:`repro.core.shards`): the nested loops shard the
*inner* candidate pool, VVM shards the *outer* accumulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

from repro.core.hhnl import iter_hhnl, iter_hhnl_backward
from repro.core.hvnl import iter_hvnl
from repro.core.vvm import iter_vvm
from repro.errors import JoinError
from repro.exec.stream import MatchBlock


@dataclass(frozen=True)
class Operator:
    """One basic algorithm: its streaming executor and its shard axis."""

    #: ``stream(environment, spec, system, *, outer_ids, inner_ids,
    #: interference, delta, context)`` — a generator of match blocks
    #: returning a :class:`~repro.exec.stream.StreamSummary`
    stream: Callable[..., Iterator[MatchBlock]]
    #: ``"inner"`` or ``"outer"``
    shard_axis: str


#: every name the cost model can choose, in report order
OPERATORS: Mapping[str, Operator] = {
    "HHNL": Operator(iter_hhnl, "inner"),
    "HHNL-BWD": Operator(iter_hhnl_backward, "inner"),
    "HVNL": Operator(iter_hvnl, "inner"),
    "VVM": Operator(iter_vvm, "outer"),
}


def operator(name: str) -> Operator:
    """The table entry for ``name``; unknown names raise ``JoinError``."""
    try:
        return OPERATORS[name]
    except KeyError:
        raise JoinError(
            f"unknown algorithm {name!r}; the operators are {sorted(OPERATORS)}"
        ) from None


__all__ = ["OPERATORS", "Operator", "operator"]
