"""Shard-aware entry points over the streaming join operators.

Partitioned execution (:mod:`repro.parallel`) splits one side of the
join into contiguous document shards and runs the unmodified ``iter_*``
operators once per shard.  The partitioning axis follows each
algorithm's structure:

* **HHNL / HHNL-BWD / HVNL** shard the *inner* collection C1: every
  shard sees the full outer side and a disjoint slice of the candidate
  pool (via the operators' existing ``inner_ids`` selection), so each
  shard produces a partial top-``lambda`` tracker per outer document
  and the global result is an exact :meth:`~repro.core.topk.TopK.merge`.
* **VVM** shards the *outer* accumulator: the paper's ``ceil(SM/M)``
  merge passes each cover a disjoint chunk of outer documents and are
  embarrassingly parallel, so a shard is simply a chunk of ``outer_ids``
  and every outer document's complete top-``lambda`` list is produced by
  exactly one shard.

Exactness rests on a float-determinism argument: restricting one side's
document ids never changes the *sequence* of additions behind any
retained ``(outer, inner)`` pair's similarity (HHNL computes one dot
product per pair; HVNL and VVM accumulate in term order, which filtering
other documents does not disturb), so per-pair similarities are
bit-identical across shard counts and the merged results are too.

A single-shard request is a **pass-through**: the original selections
(including ``None`` for "all documents") reach the operator untouched,
so ``shards=1`` is byte-identical to a direct sequential run — matches,
I/O counters and extras alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.core.join import JoinEnvironment, TextJoinSpec
from repro.core.operators import OPERATORS
from repro.cost.params import SystemParams
from repro.errors import ParallelExecutionError
from repro.exec.context import ExecutionContext
from repro.exec.stream import MatchBlock

#: every algorithm the sharded entry points dispatch to, with its axis
#: (a view of the operator table, kept for callers that only plan)
SHARD_AXES = {name: entry.shard_axis for name, entry in OPERATORS.items()}


@dataclass(frozen=True)
class ShardSpec:
    """One shard of a partitioned join.

    ``doc_ids is None`` marks the single-shard pass-through: the
    operator receives the caller's original selections unchanged.
    """

    index: int
    count: int
    axis: str
    doc_ids: tuple[int, ...] | None

    def __post_init__(self) -> None:
        if self.axis not in ("inner", "outer"):
            raise ParallelExecutionError(
                f"shard axis must be 'inner' or 'outer', got {self.axis!r}"
            )
        if not 0 <= self.index < self.count:
            raise ParallelExecutionError(
                f"shard index {self.index} outside 0..{self.count - 1}"
            )
        if self.doc_ids is not None and len(self.doc_ids) == 0:
            raise ParallelExecutionError(
                f"shard {self.index} has an empty document slice"
            )


def partition_ids(ids: Sequence[int], count: int) -> list[tuple[int, ...]]:
    """Split sorted ids into at most ``count`` contiguous near-even runs.

    The first ``len(ids) % count`` runs get one extra document; empty
    runs are dropped, so fewer shards than requested come back when
    there are fewer documents than shards.  Deterministic: the same ids
    and count always produce the same partition.
    """
    if count <= 0:
        raise ParallelExecutionError(
            f"shard count must be positive, got {count}"
        )
    ordered = sorted(ids)
    if not ordered:
        return []
    base, extra = divmod(len(ordered), count)
    runs: list[tuple[int, ...]] = []
    start = 0
    for index in range(count):
        size = base + (1 if index < extra else 0)
        if size == 0:
            break
        runs.append(tuple(ordered[start : start + size]))
        start += size
    return runs


def shard_specs(
    algorithm: str,
    dataset: object,
    count: int,
    *,
    outer_ids: Sequence[int] | None = None,
    inner_ids: Sequence[int] | None = None,
) -> list[ShardSpec]:
    """The shard plan for one algorithm over one dataset.

    ``dataset`` is anything carrying ``collection1``/``collection2`` —
    a :class:`~repro.core.join.JoinEnvironment` or an
    :class:`~repro.core.environment.EnvironmentFactory` (the parallel
    runner plans off the factory without assembling an environment).
    The sharded axis's candidate pool is the explicit selection when one
    was given, the whole collection otherwise.  ``count=1`` yields the
    pass-through shard.
    """
    axis = SHARD_AXES.get(algorithm)
    if axis is None:
        raise ParallelExecutionError(
            f"unknown algorithm {algorithm!r}; "
            f"sharded execution supports {sorted(SHARD_AXES)}"
        )
    if count == 1:
        return [ShardSpec(index=0, count=1, axis=axis, doc_ids=None)]
    if axis == "inner":
        pool = (
            inner_ids
            if inner_ids is not None
            else range(dataset.collection1.n_documents)
        )
    else:
        pool = (
            outer_ids
            if outer_ids is not None
            else range(dataset.collection2.n_documents)
        )
    runs = partition_ids(pool, count)
    return [
        ShardSpec(index=index, count=len(runs), axis=axis, doc_ids=run)
        for index, run in enumerate(runs)
    ]


def iter_shard(
    algorithm: str,
    environment: JoinEnvironment,
    spec: TextJoinSpec,
    system: SystemParams,
    shard: ShardSpec,
    *,
    outer_ids: Sequence[int] | None = None,
    inner_ids: Sequence[int] | None = None,
    interference: bool = False,
    delta: float = 0.1,
    context: ExecutionContext | None = None,
) -> Iterator[MatchBlock]:
    """Stream one shard of a partitioned join.

    The shard's document slice replaces the selection on its axis; the
    other axis keeps the caller's selection, and the operator comes from
    the same table :meth:`repro.core.integrated.IntegratedJoin.stream`
    dispatches through.
    """
    if shard.axis != SHARD_AXES.get(algorithm):
        raise ParallelExecutionError(
            f"shard axis {shard.axis!r} does not match algorithm "
            f"{algorithm!r}"
        )
    shard_outer = outer_ids
    shard_inner = inner_ids
    if shard.doc_ids is not None:
        if shard.axis == "inner":
            shard_inner = shard.doc_ids
        else:
            shard_outer = shard.doc_ids
    return OPERATORS[algorithm].stream(
        environment, spec, system,
        outer_ids=shard_outer, inner_ids=shard_inner,
        interference=interference, delta=delta, context=context,
    )


__all__ = [
    "SHARD_AXES",
    "ShardSpec",
    "iter_shard",
    "partition_ids",
    "shard_specs",
]
