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

Streaming: :func:`iter_vvm` yields the
:class:`~repro.exec.stream.MatchBlock`\\ s of one accumulator partition as
soon as that partition's merge pass completes — nothing inside a
partition is final before its pass ends, but nothing needs to wait for
the *other* partitions either.  A single-pass run therefore materializes
everything before the first block; a multi-pass run streams per pass.
:func:`run_vvm` is the materializing :func:`~repro.exec.stream.collect`
wrapper.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.core.join import (
    JoinEnvironment,
    TextJoinResult,
    TextJoinSpec,
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
    norms1 = environment.norms1() if spec.normalized else None
    norms2 = environment.norms2() if spec.normalized else None

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

    kernels = environment.kernels
    n_inner_docs = environment.collection1.n_documents
    n_outer_docs = environment.collection2.n_documents
    prepared_norms1 = kernels.prepare_norms(norms1, n_inner_docs)
    prepared_filter = kernels.prepare_filter(inner_ids, n_inner_docs)
    accumulator = kernels.pair_scores(n_inner_docs)
    peak_cells_overall = 0
    cpu_ops = 0  # posting-pair products, the unit of repro.cost.cpu

    with environment.execution_scope(ctx):
        for chunk in chunks:
            ctx.checkpoint()
            accumulator.clear()
            accumulator.begin_chunk(chunk)
            chunk_filter = kernels.prepare_filter(chunk, n_outer_docs)

            with ctx.phase("vvm.merge"):
                scan1 = disk.scan_records(inv1_extent, interference=interference)
                scan2 = disk.scan_records(inv2_extent, interference=interference)
                entry1 = next(scan1, None)
                entry2 = next(scan2, None)
                while entry1 is not None and entry2 is not None:
                    term1 = entry1[1].term
                    term2 = entry2[1].term
                    if term1 == term2:
                        batch1 = kernels.entry_batch(entry1[1], prepared_filter)
                        batch2 = kernels.entry_batch(entry2[1], chunk_filter)
                        # One product per surviving posting pair, exactly as
                        # the original (post-filter) loop charged them.
                        cpu_ops += len(batch2) * len(batch1)
                        accumulator.add_block(batch2, batch1)
                        entry1 = next(scan1, None)
                        entry2 = next(scan2, None)
                    elif term1 < term2:
                        entry1 = next(scan1, None)
                    else:
                        entry2 = next(scan2, None)
                # Drain the remainder of both scans: the merge reads each
                # file to its end (the cost model charges the full I1 + I2
                # per pass).
                for _ in scan1:
                    pass
                for _ in scan2:
                    pass

            # This partition's merge pass is done: its accumulator rows are
            # final, so the whole chunk can be ranked and flushed now.
            outer_norms = [norms2[d] if norms2 is not None else 0.0 for d in chunk]
            ranked = accumulator.ranked_matches(
                chunk, spec.lam, prepared_norms1, outer_norms
            )
            for outer_doc, matches in zip(chunk, ranked):
                yield ctx.emit(MatchBlock(outer_doc=outer_doc, matches=matches))
            peak_cells_overall = max(peak_cells_overall, accumulator.peak_cells)

    n1 = environment.collection1.n_documents
    measured_delta = (
        peak_cells_overall * actual_passes / (n1 * len(participating))
        if n1 and participating
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
