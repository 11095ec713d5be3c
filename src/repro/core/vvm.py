"""VVM executor (paper Sections 4.3 and 5.3).

One synchronized scan of both inverted files, merged on term number (the
files are stored in increasing term order, so this is the merge phase of
sort-merge).  Whenever both files carry an entry for the same term, every
posting pair contributes ``u_p * v_q`` to the similarity accumulator of
documents ``(r_p, s_q)``.

When the accumulator would not fit (``SM > M``), the outer collection is
split into ``ceil(SM / M)`` sub-collections and the whole merge scan is
repeated per sub-collection — the Section 4.3 extension, and the source
of VVM's multiplicative cost blow-up on document-rich collections.

Streaming: :func:`iter_vvm` charges a pass as one
:meth:`~repro.storage.iostats.IOStats.record_run` of the merge plan —
both files' per-record charges in the merge's pull order, built once
per run — then emits its partition's blocks, scored ahead and across
passes in full blocks (:func:`~repro.core.join.compute_ahead`).
Nothing waits for the *other* partitions.  :func:`run_vvm` is the
materializing :func:`~repro.exec.stream.collect` wrapper.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Iterator, Sequence

from repro.core.join import (
    RANK_BLOCK_CELLS,
    JoinEnvironment,
    TextJoinResult,
    TextJoinSpec,
    compute_ahead,
    resolve_inner_ids,
    resolve_outer_ids,
)
from repro.cost.params import QueryParams, SystemParams
from repro.cost.vvm import vvm_passes
from repro.errors import JoinError
from repro.exec.context import ExecutionContext, ensure_context
from repro.exec.stream import MatchBlock, StreamSummary, collect


def iter_vvm(
    environment: JoinEnvironment,
    spec: TextJoinSpec,
    system: SystemParams,
    *,
    outer_ids: Sequence[int] | None = None,
    inner_ids: Sequence[int] | None = None,
    interference: bool = False,
    delta: float = 0.1,
    context: ExecutionContext | None = None,
) -> Iterator[MatchBlock]:
    """Execute VVM, streaming one batch of match blocks per merge pass.

    ``delta`` feeds the pass-count calculation exactly as in the cost
    model; the measured non-zero fraction is reported in
    ``extras['measured_delta']`` so the estimate can be checked.
    ``inner_ids`` filters C1 postings during accumulation; the inverted
    files are still scanned whole (Section 5.4: selections do not shrink
    them).
    """
    if environment.inverted1 is None or environment.inverted2 is None:
        raise JoinError("VVM needs inverted files on both collections")
    ctx = ensure_context(context)
    outer_ids = resolve_outer_ids(environment, outer_ids)
    inner_ids = resolve_inner_ids(environment, inner_ids)
    side1, side2 = environment.cost_sides(outer_ids, inner_ids)
    query = QueryParams(lam=spec.lam, delta=delta)
    passes, sm_pages, m_pages = vvm_passes(side1, side2, system, query)

    disk = environment.disk
    io_start = disk.stats.snapshot()
    inv1_extent, inv2_extent = environment.inv1_extent, environment.inv2_extent

    participating = (
        outer_ids
        if outer_ids is not None
        else list(range(environment.collection2.n_documents))
    )

    # Split the outer documents into `passes` near-equal sub-collections.
    # Rounding can leave fewer (never more) chunks than the modelled pass
    # count; each chunk costs one merge scan, so the chunk count is the
    # number that matters.
    chunk_size = -(-len(participating) // passes) if participating else 1
    chunks = [
        participating[start : start + chunk_size]
        for start in range(0, len(participating), chunk_size)
    ] or [[]]
    actual_passes = len(chunks)

    scored = compute_ahead(
        environment, spec, inner_ids, participating, RANK_BLOCK_CELLS, grow=False
    )
    plan = _merge_plan(disk, inv1_extent, inv2_extent, interference=interference)
    n_inner_docs = environment.collection1.n_documents
    # Posting-pair products (the unit of repro.cost.cpu): each term pairs
    # its participating C2 postings with its surviving C1 postings.
    df1 = _frequencies(environment.collection1, environment.inverted1, inner_ids)
    df2 = _frequencies(environment.collection2, environment.inverted2, outer_ids)
    cpu_ops = sum(df * df1.get(term, 0) for term, df in df2.items())
    peak_cells_overall = 0

    with environment.execution_scope(ctx):
        for chunk in chunks:
            ctx.checkpoint()
            with ctx.phase("vvm.merge"):
                disk.stats.record_run(plan)

            # This partition's pass is charged: emit its scores.
            pass_cells = 0
            for outer_doc, matches, cells in islice(scored, len(chunk)):
                pass_cells += cells
                if not spec.normalized:  # exact integer sums stay ints
                    matches = tuple((doc, int(sim)) for doc, sim in matches)
                yield ctx.emit(MatchBlock(outer_doc=outer_doc, matches=matches))
            peak_cells_overall = max(peak_cells_overall, pass_cells)

    measured_delta = (
        peak_cells_overall * actual_passes / (n_inner_docs * len(participating))
        if n_inner_docs and participating
        else 0.0
    )
    return StreamSummary(
        algorithm="VVM",
        spec=spec,
        io=disk.stats.delta(io_start),
        extras={
            "passes": actual_passes,
            "modelled_passes": passes,
            "modelled_accumulator_pages": sm_pages,
            "memory_pages": m_pages,
            "peak_accumulator_cells": peak_cells_overall,
            "measured_delta": min(measured_delta, 1.0),
            "interference": interference,
            "cpu_ops": cpu_ops,
        },
    )


def _frequencies(collection: Any, inverted: Any, ids: Any) -> dict[int, int]:
    """Per term, the postings whose document is in ``ids`` (all without)."""
    if ids is None:
        return collection.document_frequency()
    ids = set(ids)
    return {e.term: sum(d in ids for d, _ in e.postings) for e in inverted.entries}


def _merge_plan(disk: Any, *extents: Any, interference: bool) -> list[Any]:
    """One merge pass's charges, in the order the merge pulls the records.

    After both heads, the merge advances past the smaller head term (on
    a tie file 1, then file 2) and the drains keep that order, so records
    are pulled in order of (the previous record's term, file).
    """
    keyed = []
    for side, extent in enumerate(extents):
        previous = -1  # term numbers are non-negative: the head comes first
        for _, entry, seq, rnd in disk.scan_charges(extent, interference=interference):
            if seq or rnd:
                keyed.append((previous, side, extent.name, seq, rnd))
            previous = entry.term
    return [(name, seq, rnd) for _, _, name, seq, rnd in sorted(keyed)]


def run_vvm(
    environment: JoinEnvironment,
    spec: TextJoinSpec,
    system: SystemParams,
    *,
    outer_ids: Sequence[int] | None = None,
    inner_ids: Sequence[int] | None = None,
    interference: bool = False,
    delta: float = 0.1,
    context: ExecutionContext | None = None,
) -> TextJoinResult:
    """Execute VVM to completion (the materialized wrapper over
    :func:`iter_vvm`)."""
    return collect(
        iter_vvm(
            environment,
            spec,
            system,
            outer_ids=outer_ids,
            inner_ids=inner_ids,
            interference=interference,
            delta=delta,
            context=context,
        )
    )
