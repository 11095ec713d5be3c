"""HHNL executor (paper Section 4.1).

The blocked nested loop: read the next ``X`` outer (C2) documents into
the buffer, scan the whole inner collection C1, and for every buffered
outer document maintain the ``lambda`` largest similarities seen so far.
``X`` comes from the same memory equation as the cost model
(:func:`repro.cost.hhnl.hhnl_memory_capacity`), so measured I/O is
directly comparable to ``hhs``/``hhr``.

Selections: with ``outer_ids`` the surviving outer documents are fetched
with random reads from their original storage locations (Group 3);
everything else is unchanged.  ``interference=True`` reproduces the
worst-case scenario behind ``hhr`` — each scan resumption and each chunk
read pays a seek.

Streaming: :func:`iter_hhnl` is the operator itself — a generator that
yields one :class:`~repro.exec.stream.MatchBlock` per outer document as
soon as its buffered block finishes the inner scan (the earliest point a
top-``lambda`` set is final under HHNL), and returns a
:class:`~repro.exec.stream.StreamSummary`.  :func:`run_hhnl` is the thin
:func:`~repro.exec.stream.collect` wrapper producing the byte-identical
materialized :class:`~repro.core.join.TextJoinResult`.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.core.join import (
    JoinEnvironment,
    TextJoinResult,
    TextJoinSpec,
    resolve_inner_ids,
    resolve_outer_ids,
    scan_with_block_seeks,
)
from repro.core.topk import TopK
from repro.cost.hhnl import hhnl_backward_memory_capacity, hhnl_memory_capacity
from repro.cost.params import QueryParams, SystemParams
from repro.exec.context import ExecutionContext, ensure_context
from repro.exec.stream import MatchBlock, StreamSummary, collect
from repro.text.document import Document


def iter_hhnl(
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
    """Execute HHNL in forward order, streaming per-chunk match blocks.

    ``inner_ids`` restricts the candidate pool to selected C1 documents
    (Section 2 allows selections on either relation); like the outer
    side, survivors are random-fetched only while that beats scanning
    and filtering.  ``delta`` belongs to the keyword set every operator
    of :mod:`repro.core.operators` accepts; HHNL keeps no similarity
    accumulator, so its memory equation does not read it.
    """
    ctx = ensure_context(context)
    outer_ids = resolve_outer_ids(environment, outer_ids)
    inner_ids = resolve_inner_ids(environment, inner_ids)
    side1, side2 = environment.cost_sides(outer_ids, inner_ids)
    query = QueryParams(lam=spec.lam)
    x = hhnl_memory_capacity(side1, side2, system, query)

    disk = environment.disk
    io_start = disk.stats.snapshot()
    docs1, docs2 = environment.docs1, environment.docs2
    norms1 = environment.norms1() if spec.normalized else None
    norms2 = environment.norms2() if spec.normalized else None
    kernels = environment.kernels
    prepared_norms1 = kernels.prepare_norms(
        norms1, environment.collection1.n_documents
    )

    all_outer = list(range(environment.collection2.n_documents))
    participating = outer_ids if outer_ids is not None else all_outer
    # Fetch survivors at random only while that beats scanning the whole
    # collection and filtering — the same policy the cost model prices.
    selected = side2.fetch_at_random(system.alpha)
    inner_selected = side1.fetch_at_random(system.alpha)
    inner_filter = set(inner_ids) if inner_ids is not None else None

    inner_scans = 0
    cpu_ops = 0  # merge comparisons, the unit of repro.cost.cpu
    pages_read_through = -1  # sequential progress within the outer extent

    with environment.execution_scope(ctx):
        for chunk_start in range(0, len(participating), x):
            chunk_ids = participating[chunk_start : chunk_start + x]
            if not chunk_ids:
                continue
            ctx.checkpoint()
            # --- bring the outer chunk in -----------------------------------
            with ctx.phase("hhnl.outer"):
                if selected:
                    chunk_docs = [
                        disk.read_record(docs2, doc_id) for doc_id in chunk_ids
                    ]
                else:
                    chunk_docs = [docs2.payload(doc_id) for doc_id in chunk_ids]
                    first_page = docs2.span(chunk_ids[0]).first_page
                    last_page = docs2.span(chunk_ids[-1]).last_page
                    last_page = min(last_page, docs2.n_pages - 1)  # as in scan_records
                    first_new = max(first_page, pages_read_through + 1)
                    new_pages = last_page - first_new + 1
                    if new_pages > 0:
                        if interference:
                            disk.stats.record(
                                docs2.name, random=1, sequential=new_pages - 1
                            )
                        else:
                            disk.stats.record(docs2.name, sequential=new_pages)
                        pages_read_through = last_page
            scorer = kernels.chunk_scorer(chunk_docs)
            n_chunk = len(chunk_ids)

            # --- bring the inner candidates in once for this chunk -----------
            inner_scans += 1
            with ctx.phase("hhnl.inner"):
                if inner_selected:
                    # few surviving inner documents: fetch them at random
                    inner_stream = (
                        (None, disk.read_record(docs1, doc_id))
                        for doc_id in inner_ids
                    )
                elif interference and len(participating) < x:
                    # All outer documents fit (the paper's N2 < X case): the
                    # leftover buffer reads C1 in blocks, one seek per block.
                    leftover = (x - len(participating)) * environment.stats2.S
                    inner_stream = scan_with_block_seeks(disk, docs1, leftover)
                else:
                    inner_stream = disk.scan_records(
                        docs1, interference=interference
                    )
                for _, inner_doc in inner_stream:
                    inner_doc: Document
                    if (
                        inner_filter is not None
                        and inner_doc.doc_id not in inner_filter
                    ):
                        continue
                    # One merge comparison per (outer, inner) cell, exactly
                    # as the original per-pair loop charged them.
                    cpu_ops += scorer.total_terms + n_chunk * inner_doc.n_terms
                    scorer.collect(inner_doc)
                norms = [norms2[d] if norms2 is not None else 0.0 for d in chunk_ids]
                ranked = scorer.ranked_matches(spec.lam, prepared_norms1, norms)

            # The chunk's inner scan is complete: every buffered outer
            # document's top-lambda set is final — emit the blocks.
            for doc_id, matches in zip(chunk_ids, ranked):
                yield ctx.emit(MatchBlock(outer_doc=doc_id, matches=matches))

    return StreamSummary(
        algorithm="HHNL",
        spec=spec,
        io=disk.stats.delta(io_start),
        extras={
            "x": x,
            "inner_scans": inner_scans,
            "outer_documents": len(participating),
            "interference": interference,
            "cpu_ops": cpu_ops,
        },
    )


def run_hhnl(
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
    """Execute HHNL to completion (the materialized wrapper over
    :func:`iter_hhnl`)."""
    return collect(
        iter_hhnl(
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


def iter_hhnl_backward(
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
    """Execute HHNL in *backward* order (C1 drives the loop), streaming.

    The join semantics are unchanged (top-``lambda`` C1 documents per C2
    document), so a running :class:`TopK` per C2 document is kept alive
    for the whole join — the memory reservation priced by
    :func:`repro.cost.hhnl.hhnl_backward_cost`.  The paper defers this
    order to [11], noting it "can be more efficient if C1 is much
    smaller than C2": the repeated-scan factor moves onto the small
    collection.

    No top-``lambda`` set is final until the *last* C1 chunk has been
    merged, so the backward operator streams all its blocks at the end;
    budgets and cancellation still apply per chunk.

    ``outer_ids`` still selects C2 documents (the per-group side); C2 is
    re-read once per C1 chunk, scanning and filtering or random-fetching
    whichever the statistics say is cheaper.

    The backward order has no inner selections: with ``inner_ids`` the
    join runs in forward order instead (identical matches, the forward
    operator's I/O pattern and summary).  ``delta`` is unused, as in
    :func:`iter_hhnl`.
    """
    if inner_ids is not None:
        return (
            yield from iter_hhnl(
                environment,
                spec,
                system,
                outer_ids=outer_ids,
                inner_ids=inner_ids,
                interference=interference,
                context=context,
            )
        )
    ctx = ensure_context(context)
    outer_ids = resolve_outer_ids(environment, outer_ids)
    side1, side2 = environment.cost_sides(outer_ids)
    query = QueryParams(lam=spec.lam)
    x = hhnl_backward_memory_capacity(side1, side2, system, query)

    disk = environment.disk
    io_start = disk.stats.snapshot()
    docs1, docs2 = environment.docs1, environment.docs2
    norms1 = environment.norms1() if spec.normalized else None
    norms2 = environment.norms2() if spec.normalized else None

    all_c2 = list(range(environment.collection2.n_documents))
    participating = outer_ids if outer_ids is not None else all_c2
    c2_selected = side2.fetch_at_random(system.alpha)
    participating_set = set(participating)

    trackers = {doc_id: TopK(spec.lam) for doc_id in participating}
    loop_ids = list(range(environment.collection1.n_documents))
    kernels = environment.kernels
    scans = 0
    pages_read_through = -1

    with environment.execution_scope(ctx):
        for chunk_start in range(0, len(loop_ids), x):
            chunk_ids = loop_ids[chunk_start : chunk_start + x]
            if not chunk_ids:
                continue
            ctx.checkpoint()
            # --- bring the C1 chunk in (sequential progress over the extent) --
            with ctx.phase("hhnl.inner"):
                chunk_docs = [docs1.payload(doc_id) for doc_id in chunk_ids]
                first_page = docs1.span(chunk_ids[0]).first_page
                last_page = docs1.span(chunk_ids[-1]).last_page
                last_page = min(last_page, docs1.n_pages - 1)  # as in scan_records
                first_new = max(first_page, pages_read_through + 1)
                new_pages = last_page - first_new + 1
                if new_pages > 0:
                    if interference:
                        disk.stats.record(
                            docs1.name, random=1, sequential=new_pages - 1
                        )
                    else:
                        disk.stats.record(docs1.name, sequential=new_pages)
                    pages_read_through = last_page
            scorer = kernels.chunk_scorer(chunk_docs)
            scorer.set_chunk_norms(
                [norms1[c1_id] for c1_id in chunk_ids]
                if norms1 is not None
                else None
            )

            # --- one pass over the participating C2 documents -----------------
            scans += 1
            with ctx.phase("hhnl.outer"):
                if c2_selected:
                    c2_stream = (
                        (d, disk.read_record(docs2, d)) for d in participating
                    )
                elif interference and len(loop_ids) < x:
                    leftover = (x - len(loop_ids)) * environment.stats1.S
                    c2_stream = (
                        (span.record_id, doc)
                        for span, doc in scan_with_block_seeks(
                            disk, docs2, leftover
                        )
                        if span.record_id in participating_set
                    )
                else:
                    c2_stream = (
                        (span.record_id, doc)
                        for span, doc in disk.scan_records(
                            docs2, interference=interference
                        )
                        if span.record_id in participating_set
                    )
                for c2_id, c2_doc in c2_stream:
                    tracker = trackers[c2_id]
                    doc_norm = norms2[c2_id] if norms2 is not None else 0.0
                    for position, similarity in scorer.floor_candidates(
                        c2_doc, tracker.threshold(), doc_norm
                    ):
                        tracker.offer(chunk_ids[position], similarity)

        for doc_id, tracker in trackers.items():
            ctx.checkpoint()
            yield ctx.emit(
                MatchBlock(outer_doc=doc_id, matches=tuple(tracker.results()))
            )

    return StreamSummary(
        algorithm="HHNL-BWD",
        spec=spec,
        io=disk.stats.delta(io_start),
        extras={
            "x": x,
            "c2_scans": scans,
            "outer_documents": len(participating),
            "interference": interference,
        },
    )


def run_hhnl_backward(
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
    """Execute HHNL backward to completion (wrapper over
    :func:`iter_hhnl_backward`)."""
    return collect(
        iter_hhnl_backward(
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
