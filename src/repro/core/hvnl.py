"""HVNL executor (paper Section 4.2).

For each outer (C2) document, probe the inner collection's inverted file:
look each term up in C1's B+-tree, fetch the inverted-file entry (unless
already resident), and accumulate ``U_i + w * w_i`` per inner document.
The entry buffer holds as many entries as fit after the outer document,
the B+-tree and the similarity accumulators are accounted for; the
default victim is the entry whose term has the **lowest document
frequency in C2** — the paper's replacement policy — with LRU/FIFO/random
available for the ablation.

The paper's resident-first optimisation is applied: a document's terms
whose entries are already buffered are processed before the terms that
need a fetch, so a term fetched for this document cannot evict an entry
this same document still needs.

The whole B+-tree is read in once up-front (Section 5.2's one-time
``Bt1`` charge).

Streaming: :func:`iter_hvnl` yields one
:class:`~repro.exec.stream.MatchBlock` per probed outer document, which
makes it the natural operator for ``LIMIT``-bounded queries: an abandoned
stream fetches no further entries.  Scores are computed ahead — a
doubling block of upcoming outer documents per
:meth:`~repro.kernels.base.Kernels.rank` call, from the in-memory
inverted file (:func:`~repro.core.join.compute_ahead`) — and charged in
step: each document's outer read comes first, then its probe round (one
:meth:`~repro.storage.buffer.ObjectBuffer.offer_run`: every lookup, then
every admission, in the original order) and one
:meth:`~repro.storage.iostats.IOStats.record_run` of its fetches, before
its block is emitted.  :func:`run_hvnl` is the materializing
:func:`~repro.exec.stream.collect` wrapper.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

from repro.constants import TERM_NUMBER_BYTES
from repro.core.join import (
    RANK_BLOCK_CELLS,
    JoinEnvironment,
    TextJoinResult,
    TextJoinSpec,
    compute_ahead,
    resolve_inner_ids,
    resolve_outer_ids,
    scan_with_block_seeks,
)
from repro.cost.params import QueryParams, SystemParams
from repro.errors import InsufficientMemoryError, JoinError
from repro.exec.context import ExecutionContext, ensure_context
from repro.exec.stream import MatchBlock, StreamSummary, collect
from repro.storage.buffer import ObjectBuffer
from repro.storage.policies import LowestDocFrequencyPolicy, ReplacementPolicy

BTREE_IO_LABEL = "c1.btree"


def iter_hvnl(
    environment: JoinEnvironment,
    spec: TextJoinSpec,
    system: SystemParams,
    *,
    outer_ids: Sequence[int] | None = None,
    inner_ids: Sequence[int] | None = None,
    interference: bool = False,
    delta: float = 0.1,
    policy: ReplacementPolicy | None = None,
    context: ExecutionContext | None = None,
) -> Iterator[MatchBlock]:
    """Execute HVNL, streaming one match block per probed outer document.

    ``delta`` sizes the similarity-accumulator reservation exactly as the
    cost model does (it does not limit the actual accumulation).
    ``inner_ids`` restricts the candidate pool: postings of filtered-out
    C1 documents are skipped during accumulation — the inverted file
    itself keeps its full size, the paper's Section 5.4 caveat.

    Being a generator, the memory-floor check raises
    :class:`~repro.errors.InsufficientMemoryError` at the first ``next``
    (or inside :func:`run_hvnl`), not at call time.
    """
    if environment.inverted1 is None or environment.btree1 is None:
        raise JoinError("HVNL needs the inverted file and B+-tree on C1")
    ctx = ensure_context(context)
    outer_ids = resolve_outer_ids(environment, outer_ids)
    inner_ids = resolve_inner_ids(environment, inner_ids)
    query = QueryParams(lam=spec.lam, delta=delta)

    disk = environment.disk
    io_start = disk.stats.snapshot()
    inv1_extent = environment.inv1_extent
    btree1 = environment.btree1
    docs2 = environment.docs2
    page_bytes = environment.geometry.page_bytes

    # --- memory budget (mirrors cost.hvnl.hvnl_memory_capacity) ------------
    btree_pages = math.ceil(btree1.size_in_pages(environment.geometry)) or 1
    stats2 = environment.stats2
    reserved_pages = (
        (math.ceil(stats2.S) if stats2.S > 0 else 0)
        + btree_pages
        + 4 * environment.collection1.n_documents * query.delta / page_bytes
    )
    budget_pages = system.buffer_pages - reserved_pages
    if budget_pages < 0:
        raise InsufficientMemoryError(
            f"HVNL needs {reserved_pages:.1f} pages reserved; "
            f"buffer is {system.buffer_pages}"
        )
    # Each resident entry also costs a |t#| slot in the resident-term list.
    budget_bytes = int(budget_pages * page_bytes)

    # `policy or default` would misfire here: an empty policy is falsy
    # (it implements __len__), so test identity against None.
    buffer = ObjectBuffer(
        budget_bytes, policy if policy is not None else LowestDocFrequencyPolicy()
    )
    df2 = environment.collection2.document_frequency()

    with environment.execution_scope(ctx):
        # One-time B+-tree read-in.
        with ctx.phase("hvnl.btree"):
            disk.stats.record(BTREE_IO_LABEL, sequential=btree_pages)

        # Section 5.2, case X >= T1: when the whole inverted file fits, the
        # algorithm may load it with one sequential scan instead of fetching
        # the needed entries at random — whichever the statistics say is
        # cheaper.  The estimate uses metadata only (no extra I/O).
        bulk_loaded = False
        inverted1 = environment.inverted1
        total_entry_bytes = sum(
            entry.n_bytes + TERM_NUMBER_BYTES for entry in inverted1.entries
        )
        if total_entry_bytes <= budget_bytes:
            stats1 = environment.stats1
            needed_entries = environment.measured_q() * environment.stats2.T
            entry_pages = math.ceil(stats1.J) if stats1.J > 0 else 1
            scan_cost = stats1.I
            fetch_cost = needed_entries * entry_pages * system.alpha
            if scan_cost <= fetch_cost:
                # One continuous sequential read — the hvr formula keeps the
                # I1 term sequential even in the worst-case scenario.
                with ctx.phase("hvnl.bulk-load"):
                    for span, entry in disk.scan_records(
                        inv1_extent, interference=False
                    ):
                        ctx.checkpoint()
                        buffer.insert(
                            entry.term,
                            len(entry.postings),
                            entry.n_bytes + TERM_NUMBER_BYTES,
                            priority=df2.get(entry.term, 0),
                        )
                bulk_loaded = True

        # --- outer document stream --------------------------------------------
        _, side2 = environment.cost_sides(outer_ids)
        if side2.fetch_at_random(system.alpha):
            outer_stream = (
                (doc_id, disk.read_record(docs2, doc_id))
                for doc_id in outer_ids
            )
        elif side2.is_selected:
            # Scan-and-filter beats random fetches (the model's choice).
            participating_set = set(outer_ids)
            outer_stream = (
                (span.record_id, doc)
                for span, doc in disk.scan_records(
                    docs2, interference=interference
                )
                if span.record_id in participating_set
            )
        elif interference:
            # Worst case with spare memory (Section 5.2's hvr, cases 1-2):
            # entry capacity beyond the resident working set buffers blocks
            # of C2, one seek per block; with no spare capacity every
            # document read can seek (case 3).
            stats1 = environment.stats1
            per_entry_pages = stats1.J + TERM_NUMBER_BYTES / page_bytes
            capacity = (
                (budget_bytes / page_bytes / per_entry_pages)
                if per_entry_pages > 0
                else 0.0
            )
            working_set = (
                float(stats1.T)
                if bulk_loaded
                else min(
                    environment.measured_q() * environment.stats2.T,
                    float(stats1.T),
                )
            )
            leftover_pages = max(0.0, capacity - working_set) * stats1.J
            if leftover_pages >= 1.0:
                outer_stream = (
                    (span.record_id, doc)
                    for span, doc in scan_with_block_seeks(
                        disk, docs2, leftover_pages
                    )
                )
            else:
                outer_stream = (
                    (span.record_id, doc)
                    for span, doc in disk.scan_records(docs2, interference=True)
                )
        else:
            outer_stream = (
                (span.record_id, doc)
                for span, doc in disk.scan_records(docs2, interference=False)
            )

        # Compute ahead, charge in step (docs/EXECUTION.md): every outer
        # stream yields ``order``, so the next block is scored from memory;
        # each document is emitted only after its own probes are charged.
        order = outer_ids if outer_ids is not None else range(len(docs2))
        scored = compute_ahead(
            environment, spec, inner_ids, order, RANK_BLOCK_CELLS, grow=True
        )

        # The run's probe table, filled on a term's first miss: one lookup
        # and one pricing of its entry, as the buffer row ``(postings, size,
        # priority, sequential, random)`` (HVNL scores from memory, so a
        # resident entry only counts its postings) or ``None`` if C1 lacks
        # the term.  Each fetch, first or after an eviction, charges the row.
        probes: dict[int, tuple[int, int, int, int, int] | None] = {}

        def probe(term: int) -> tuple[int, int, int, int, int] | None:
            if term not in probes:
                location, probes[term] = btree1.search(term), None
                if location is not None:
                    entry, seq, rnd = disk.fetch(inv1_extent, location[0])
                    size, priority = entry.n_bytes + TERM_NUMBER_BYTES, df2.get(term, 0)
                    probes[term] = (len(entry.postings), size, priority, seq, rnd)
            return probes[term]

        entries_fetched = 0
        cpu_ops = 0  # posting accumulations, the unit of repro.cost.cpu
        peak_cells = 0

        while True:
            ctx.checkpoint()
            # The outer stream is lazy: advancing it performs this
            # document's read, so the pull itself is a scan phase.
            with ctx.phase("hvnl.outer-scan"):
                item = next(outer_stream, None)
            if item is None:
                break
            outer_id, outer_doc = item
            predicted, matches, cells = next(scored, (None, (), 0))
            if predicted != outer_id:
                raise JoinError(f"HVNL read outer {outer_id}, scored {predicted}")
            with ctx.phase("hvnl.probe"):
                # Resident-first term order (Section 4.2's reuse optimisation):
                # every lookup precedes every admission, so a term fetched
                # for this document cannot evict an entry it still needs.
                # One accumulation per posting before filtering, exactly
                # as the original loop charged them.
                hits, fetched = buffer.offer_run(
                    [term for term, _ in outer_doc.cells], probe
                )
                entries_fetched += len(fetched)
                cpu_ops += sum(hits)
                charges = []
                for postings, _, _, sequential, random in fetched:
                    cpu_ops += postings
                    if sequential or random:
                        charges.append((inv1_extent.name, sequential, random))
                disk.stats.record_run(charges)
            peak_cells = max(peak_cells, cells)
            yield ctx.emit(MatchBlock(outer_doc=outer_id, matches=matches))

    return StreamSummary(
        algorithm="HVNL",
        spec=spec,
        io=disk.stats.delta(io_start),
        extras={
            "entry_budget_bytes": budget_bytes,
            "bulk_loaded": bulk_loaded,
            "btree_pages": btree_pages,
            "entries_fetched": entries_fetched,
            "buffer_hits": buffer.hits,
            "buffer_misses": buffer.misses,
            "buffer_evictions": buffer.evictions,
            "buffer_hit_rate": buffer.hit_rate,
            "peak_accumulator_cells": peak_cells,
            "interference": interference,
            "cpu_ops": cpu_ops,
        },
    )


def run_hvnl(
    environment: JoinEnvironment,
    spec: TextJoinSpec,
    system: SystemParams,
    *,
    outer_ids: Sequence[int] | None = None,
    inner_ids: Sequence[int] | None = None,
    interference: bool = False,
    delta: float = 0.1,
    policy: ReplacementPolicy | None = None,
    context: ExecutionContext | None = None,
) -> TextJoinResult:
    """Execute HVNL to completion (the materialized wrapper over
    :func:`iter_hvnl`)."""
    return collect(
        iter_hvnl(
            environment,
            spec,
            system,
            outer_ids=outer_ids,
            inner_ids=inner_ids,
            interference=interference,
            delta=delta,
            policy=policy,
            context=context,
        )
    )
