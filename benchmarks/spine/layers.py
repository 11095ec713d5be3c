"""The traced run: per-layer metrics, measured from outside each layer.

One function per layer of ``src/repro`` on the request path times calls
into that layer's public functions over the workload's own collections;
:func:`replay` then repeats the workload's operation with a span around
every such call (see :mod:`spans`).  Nothing under ``src/`` is touched:
spans inside the program are a later change.

A public entry point that has gone missing turns its metrics into
``null`` with the reason, not into a crash — a later change that
retires a backend must still be measurable.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import socket
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

import inputs
import oracle
import workloads
from common import (
    Ledger,
    Measurement,
    median,
    percentile,
    scratch,
    weighted_pages,
)
from loadgen import HOST, Client, Server, query_payload
from spans import Tracer, self_time_table
from workloads import ALGORITHMS, REGIMES, Workload

MAX_REPLAYS = 20
MIN_REPLAYS = 3
#: share of ``--seconds`` the replay may take before it stops early
REPLAY_SHARE = 0.4
NEWCONN_SAMPLES = 20

#: the phase that hosts most of an operator's scoring, hence the logical
#: parent of the re-driven kernel primitive
SCORING_PHASE = {"hhnl": "hhnl.inner", "hvnl": "hvnl.probe", "vvm": "vvm.merge"}


def samples(function: Callable[[], Any], repeats: int) -> list[float]:
    """Seconds of ``repeats`` calls, one warm-up call first."""
    function()
    out = []
    for _ in range(repeats):
        started = time.perf_counter()
        function()
        out.append(time.perf_counter() - started)
    return out


def timing(function: Callable[[], Any], repeats: int, unit: str) -> Measurement:
    scale = {"s": 1.0, "ms": 1e3, "us": 1e6}[unit]
    return Measurement(median(samples(function, repeats)) * scale, unit, repeats)


@dataclass
class Bench:
    """Everything the layer functions share for one traced run."""

    workload: Workload
    shape: inputs.Shape
    seed: int
    seconds: float
    root: Path
    directory: Path
    server: Server
    reference: list[list[Any]]
    first_query_ms: float
    factory: Any
    catalog: Any
    system: Any
    tracer: Tracer
    ledger: Ledger
    #: measured results of one round, shared by cost/storage/core
    round_results: dict[tuple[str, str], Any] = field(default_factory=dict)
    round_seconds: dict[tuple[str, str], list[float]] = field(default_factory=dict)

    def copy_workspace(self, label: str) -> Path:
        target = self.root / label
        shutil.copytree(self.directory, target)
        return target


# --- kernels: the three primitives in each operator's access pattern ----------


def drive_kernel(
    algorithm: str, environment: Any, spec: Any, outer_ids: Any = None
) -> list[tuple[int, float]]:
    """Re-drive one operator's scoring primitive; returns its candidates.

    ``outer_ids`` restricts the outer side the way a selection on R2 does.
    """
    kernels = environment.kernels
    c1 = environment.collection1
    n1, n2 = c1.n_documents, environment.collection2.n_documents
    chunk = list(range(n2)) if outer_ids is None else list(outer_ids)
    c2 = [environment.collection2[doc_id] for doc_id in chunk]
    norms1 = environment.norms1() if spec.normalized else None
    norms2 = environment.norms2() if spec.normalized else None
    prepared_norms = kernels.prepare_norms(norms1, n1)
    outer_norm = (lambda doc_id: norms2[doc_id]) if norms2 else (lambda doc_id: 0.0)
    candidates: list[tuple[int, float]] = []
    if algorithm == "hhnl":
        scorer = kernels.chunk_scorer(c2)
        for document in c1:
            scorer.collect(document)
        for position, document in enumerate(c2):
            candidates.extend(
                scorer.ranked_candidates(
                    position, spec.lam, prepared_norms, outer_norm(document.doc_id)
                )
            )
    elif algorithm == "hvnl":
        scores = kernels.sparse_scores(n1, kernels.prepare_filter(None, n1))
        inverted1 = environment.inverted1
        for document in c2:
            scores.clear()
            for term, weight in document.cells:
                entry = inverted1.get(term)
                if entry is not None:
                    scores.add_entry(entry, weight)
            candidates.extend(
                scores.ranked_candidates(
                    spec.lam, prepared_norms, outer_norm(document.doc_id)
                )
            )
    else:
        pairs = kernels.pair_scores(n1)
        pairs.clear()
        pairs.begin_chunk(chunk)
        filter1 = kernels.prepare_filter(None, n1)
        filter2 = kernels.prepare_filter(chunk, n2)
        inverted1 = environment.inverted1
        for entry2 in environment.inverted2:
            entry1 = inverted1.get(entry2.term)
            if entry1 is not None:
                pairs.add_block(
                    kernels.entry_batch(entry2, filter2),
                    kernels.entry_batch(entry1, filter1),
                )
        for outer in chunk:
            candidates.extend(
                pairs.row_ranked(outer, spec.lam, prepared_norms, outer_norm(outer))
            )
    return candidates


def offer_all(candidates: list[tuple[int, float]], lam: int) -> None:
    from repro.core import TopK

    tracker = TopK(lam)
    for doc_id, similarity in candidates:
        tracker.offer(doc_id, similarity)


def measure_kernels(bench: Bench) -> dict[str, Measurement]:
    from repro.errors import InvalidParameterError
    from repro.workspace import load_workspace

    spec = workloads.join_spec()
    environment = bench.factory.create()
    out = {
        f"kernels.{primitive}_score_s": timing(
            lambda a=algorithm: drive_kernel(a, environment, spec), 3, "s"
        )
        for algorithm, primitive in (("hhnl", "chunk"), ("hvnl", "sparse"), ("vvm", "pair"))
    }
    for backend in ("scalar", "stdlib"):
        other = load_workspace(bench.directory)
        other.kernel = backend
        for algorithm in ALGORITHMS:
            name = f"kernels.{backend}_ratio.{algorithm}"
            try:
                seconds, result = workloads.run_operator(other, algorithm, "fit")
            except InvalidParameterError as exc:  # the backend was retired
                out[name] = Measurement(None, "ratio", 0, str(exc))
                continue
            bench.ledger.record(
                f"run_{algorithm} fit vs {backend}",
                oracle.check_operator(bench.round_results[algorithm, "fit"], result),
            )
            out[name] = Measurement(
                seconds / median(bench.round_seconds[algorithm, "fit"]), "ratio"
            )
    return out


# --- core, cost, storage, exec: from timed rounds of the operators ------------


class PhaseClock:
    """``ExecutionHooks`` that timestamp every phase entry and exit."""

    def __init__(self) -> None:
        self.open: dict[str, int] = {}
        #: phase name -> [first start ns, total ns, entries, seq pages, random pages]
        self.phases: dict[str, list[int]] = {}

    def on_phase_start(self, name: str) -> None:
        self.open[name] = time.perf_counter_ns()

    def on_phase_end(self, name: str, stats: Any) -> None:
        now = time.perf_counter_ns()
        started = self.open.pop(name)
        row = self.phases.setdefault(name, [started, 0, 0, 0, 0])
        row[1] += now - started
        row[2] += 1
        row[3] += stats.sequential_reads
        row[4] += stats.random_reads

    def on_block(self, block: Any) -> None:
        pass


def hooked_run(
    factory: Any, algorithm: str, spec: Any, system: Any, *, outer_ids: Any = None
) -> tuple[Any, PhaseClock, Any, int, int]:
    """One operator run with timestamping hooks and a (never reached) budget.

    Returns (result, phase clock, context, start ns, end ns).
    """
    from repro.exec import ExecutionBudget, ExecutionContext

    clock = PhaseClock()
    context = ExecutionContext(budget=ExecutionBudget(pages=10**9), hooks=(clock,))
    environment = factory.create()
    function = workloads.operator_functions()[algorithm]
    start = time.perf_counter_ns()
    result = function(environment, spec, system, outer_ids=outer_ids, context=context)
    return result, clock, context, start, time.perf_counter_ns()


def measure_rounds(bench: Bench) -> None:
    """Three timed rounds; later layer functions read their results."""
    for _ in range(1 + 3):  # the first round only warms this factory
        for regime in REGIMES:
            for algorithm in ALGORITHMS:
                seconds, result = workloads.run_operator(bench.factory, algorithm, regime)
                bench.round_results[algorithm, regime] = result
                bench.round_seconds.setdefault((algorithm, regime), []).append(seconds)
    for key in bench.round_seconds:
        del bench.round_seconds[key][0]


def measure_core(bench: Bench) -> dict[str, Measurement]:
    from repro.cost.params import SystemParams

    pairs = bench.shape.c1_documents * bench.shape.c2_documents
    out = {"core.environment.create_us": timing(bench.factory.create, 20, "us")}
    for algorithm in ALGORITHMS:
        for regime in REGIMES:
            seconds = bench.round_seconds[algorithm, regime]
            out[f"core.{algorithm}.{regime}_s"] = Measurement(median(seconds), "s", len(seconds))
        out[f"core.us_per_pair.{algorithm}"] = Measurement(
            out[f"core.{algorithm}.fit_s"].value * 1e6 / pairs, "us"
        )
        _, clock, _, _, _ = hooked_run(
            bench.factory, algorithm, workloads.join_spec(),
            SystemParams(buffer_pages=REGIMES["spill"]),
        )
        for phase, row in clock.phases.items():
            out[f"core.{phase}_s"] = Measurement(row[1] / 1e9, "s", row[2])
    spill_hvnl = bench.round_results["hvnl", "spill"].extras
    out["core.hvnl.buffer_hit_rate"] = Measurement(spill_hvnl["buffer_hit_rate"], "ratio")
    out["core.hvnl.buffer_evictions"] = Measurement(spill_hvnl["buffer_evictions"], "count")
    out["core.vvm.passes"] = Measurement(
        bench.round_results["vvm", "spill"].extras["passes"], "count"
    )
    rng = random.Random(bench.seed)
    candidates = [(rng.randrange(10**6), rng.random()) for _ in range(10**5)]
    offers = samples(lambda: offer_all(candidates, 5), 3)
    out["core.topk.offer_us"] = Measurement(median(offers) * 1e6 / len(candidates), "us", 3)
    return out


def measured_cost(result: Any) -> int:
    return weighted_pages(result.io.sequential_reads, result.io.random_reads)


def measure_cost(bench: Bench) -> dict[str, Measurement]:
    from repro.core import IntegratedJoin
    from repro.cost.params import SystemParams

    spec = workloads.join_spec()
    environment = bench.factory.create()
    out = {
        "cost.decide_us": timing(
            lambda: IntegratedJoin(environment, bench.system).decide(spec), 10, "us"
        )
    }
    for regime, buffer_pages in REGIMES.items():
        decision = IntegratedJoin(
            environment, SystemParams(buffer_pages=buffer_pages)
        ).decide(spec)
        measured = {a: measured_cost(bench.round_results[a, regime]) for a in ALGORITHMS}
        for algorithm in ALGORITHMS:
            estimate = decision.report[algorithm.upper()].cost(decision.scenario)
            out[f"cost.estimate_ratio.{algorithm}.{regime}"] = Measurement(
                estimate / measured[algorithm], "ratio"
            )
        out[f"cost.regret.{regime}"] = Measurement(
            measured[decision.chosen.lower()] / min(measured.values()), "ratio"
        )
    return out


def measure_storage(bench: Bench) -> dict[str, Measurement]:
    out = {}
    for (algorithm, regime), result in bench.round_results.items():
        prefix = f"storage.{algorithm}.{regime}"
        out[f"{prefix}.seq_pages"] = Measurement(result.io.sequential_reads, "pages")
        out[f"{prefix}.rand_pages"] = Measurement(result.io.random_reads, "pages")
    environment = bench.factory.create()
    pages = environment.docs1.n_pages
    scans = samples(lambda: environment.disk.scan_pages(environment.docs1), 20)
    out["storage.scan_us_per_page"] = Measurement(median(scans) * 1e6 / pages, "us", 20)
    return out


def measure_exec(bench: Bench) -> dict[str, Measurement]:
    from repro.cost.params import SystemParams

    system = SystemParams(buffer_pages=REGIMES["fit"])
    spec = workloads.join_spec()
    # Bare and hooked runs alternate, so both see the same warm caches.
    bare, hooked = [], []
    for _ in range(5):
        bare.append(workloads.run_operator(bench.factory, "hhnl", "fit")[0])
        _, _, context, start, end = hooked_run(bench.factory, "hhnl", spec, system)
        hooked.append((end - start) / 1e9)
    return {
        "exec.hook_overhead_ratio": Measurement(median(hooked) / median(bare), "ratio", 5),
        "exec.blocks_emitted": Measurement(context.blocks_emitted, "count"),
    }


def measure_parallel(bench: Bench) -> dict[str, Measurement]:
    from repro.cost.params import SystemParams
    from repro.parallel import run_sharded

    system = SystemParams(buffer_pages=REGIMES["fit"])
    spec = workloads.join_spec()
    sharded = timing(
        lambda: run_sharded("HHNL", spec, system, factory=bench.factory, shards=2, jobs=0),
        3, "s",
    )
    return {
        "parallel.sharded2_inproc_s": sharded,
        "parallel.sharded2_overhead_ratio": Measurement(
            sharded.value / median(bench.round_seconds["hhnl", "fit"]), "ratio"
        ),
    }


# --- index --------------------------------------------------------------------


def measure_index(bench: Bench) -> dict[str, Measurement]:
    from repro.core import EnvironmentFactory, EnvironmentSpec
    from repro.index.codecs import resolve_codec

    environment = bench.factory.create()
    entries = list(environment.inverted1)
    terms = [entry.term for entry in entries]
    tree = environment.btree1
    searches = samples(lambda: [tree.search(term) for term in terms], 5)
    out = {
        "index.btree_search_us": Measurement(median(searches) * 1e6 / len(terms), "us", 5)
    }
    for name in ("raw", "vbyte"):
        codec = resolve_codec(name)
        encoded = [codec.encode_postings(entry.postings) for entry in entries]
        decodes = samples(lambda: [codec.decode_postings(data) for data in encoded], 5)
        out[f"index.decode_{name}_us_per_entry"] = Measurement(
            median(decodes) * 1e6 / len(encoded), "us", 5
        )
    compressed = EnvironmentFactory(
        environment.collection1, environment.collection2, EnvironmentSpec(codec="vbyte")
    )
    out["index.vbyte_page_ratio"] = Measurement(
        compressed.inverted_extent(1).n_pages / bench.factory.inverted_extent(1).n_pages,
        "ratio",
    )
    return out


# --- sql ----------------------------------------------------------------------


def sql_operator(bench: Bench) -> tuple[str, Any, Any]:
    """What the SQL path runs for the query: algorithm, join spec, plan."""
    from repro.core import IntegratedJoin, TextJoinSpec
    from repro.sql import parse, plan

    the_plan = plan(parse(inputs.QUERY_SQL), bench.catalog)
    spec = TextJoinSpec(lam=the_plan.lam)
    decision = IntegratedJoin(bench.factory.create(), bench.system).decide(
        spec, the_plan.outer_ids, the_plan.inner_ids
    )
    return decision.chosen.lower(), spec, the_plan


def measure_sql(bench: Bench) -> dict[str, Measurement]:
    from repro.core import IntegratedJoin
    from repro.sql import execute, parse, plan

    sql = inputs.QUERY_SQL
    parsed = parse(sql)
    algorithm, spec, the_plan = sql_operator(bench)
    function = workloads.operator_functions()[algorithm]
    environment = bench.factory.create()
    execute_ms = timing(lambda: execute(sql, bench.catalog, bench.system), 5, "ms")
    parts = (
        timing(bench.factory.create, 20, "ms").value
        + timing(
            lambda: IntegratedJoin(environment, bench.system).decide(
                spec, the_plan.outer_ids, the_plan.inner_ids
            ), 10, "ms",
        ).value
        + timing(lambda: function(bench.factory.create(), spec, bench.system), 5, "ms").value
    )
    return {
        "sql.parse_us": timing(lambda: parse(sql), 20, "us"),
        "sql.plan_us": timing(lambda: plan(parsed, bench.catalog), 20, "us"),
        "sql.execute_ms": execute_ms,
        "sql.project_self_ms": Measurement(execute_ms.value - parts, "ms"),
    }


# --- workspace (and the write halves of sql and service.core) -----------------


def reload_workspace(directory: Path) -> Any:
    """What ``JoinService`` does after a mutation: catalog plus a warm create."""
    from repro.workspace import workspace_catalog

    catalog, factory = workspace_catalog(directory)
    factory.create()
    return catalog


def measure_workspace(bench: Bench) -> dict[str, Measurement]:
    from repro.service import JoinService, MutateRequest
    from repro.sql import execute_mutation
    from repro.workspace import (
        MutationBatch,
        apply_mutations,
        build_workspace,
        compact,
        freeze_delta,
        load_manifest,
        load_workspace,
        manifest_segments,
        verify_workspace,
    )

    c1, c2 = inputs.generate(bench.shape, bench.seed)
    builds = []
    for attempt in range(3):
        target = bench.root / f"build-{attempt}"
        started = time.perf_counter()
        build_workspace(target, c1, c2)
        builds.append(time.perf_counter() - started)
    out = {
        "workloads.generate_s": timing(lambda: inputs.generate(bench.shape, bench.seed), 3, "s"),
        "workspace.build_s": Measurement(median(builds), "s", 3),
        "workspace.load_s": timing(lambda: load_workspace(bench.directory), 3, "s"),
        "workspace.catalog_s": timing(lambda: reload_workspace(bench.directory), 3, "s"),
        "workspace.first_query_ms": Measurement(bench.first_query_ms, "ms"),
        "workspace.verify_s": timing(lambda: verify_workspace(bench.directory), 3, "s"),
    }

    rng = random.Random(bench.seed)
    sql_dir = bench.copy_workspace("mutate-sql")
    batch_dir = bench.copy_workspace("mutate-batch")
    service_dir = bench.copy_workspace("mutate-service")
    service = JoinService({"w": service_dir})
    sql_ms, apply_ms, reload_ms, service_ms, written, segments = [], [], [], [], [], 0
    freeze_ms = []
    for statement in range(6):
        sql, terms = inputs.insert_statement(bench.shape, rng, 1 + statement % 2)
        started = time.perf_counter()
        stats = execute_mutation(sql, sql_dir)
        sql_ms.append((time.perf_counter() - started) * 1e3)
        written.append(stats.pages_written)
        started = time.perf_counter()
        reload_workspace(sql_dir)
        reload_ms.append((time.perf_counter() - started) * 1e3)
        batch = MutationBatch.from_term_lists(inserts={f"c{1 + statement % 2}": [terms]})
        started = time.perf_counter()
        apply_mutations(batch_dir, batch)
        apply_ms.append((time.perf_counter() - started) * 1e3)
        started = time.perf_counter()
        service.mutate(MutateRequest(sql=sql))
        service_ms.append((time.perf_counter() - started) * 1e3)
        segments = max(segments, len(manifest_segments(load_manifest(sql_dir))))
        if statement % 2:
            started = time.perf_counter()
            freeze_delta(sql_dir)
            freeze_ms.append((time.perf_counter() - started) * 1e3)
            segments = max(segments, len(manifest_segments(load_manifest(sql_dir))))
    started = time.perf_counter()
    compacted = compact(sql_dir)
    compact_s = time.perf_counter() - started
    bench.ledger.record("verify_workspace after compact", verify_workspace(sql_dir))
    out.update({
        "sql.mutation_ms": Measurement(median(sql_ms), "ms", len(sql_ms)),
        "service.core.mutate_ms": Measurement(median(service_ms), "ms", len(service_ms)),
        "workspace.apply_ms": Measurement(median(apply_ms), "ms", len(apply_ms)),
        "workspace.reload_ms": Measurement(median(reload_ms), "ms", len(reload_ms)),
        "workspace.reload_share": Measurement(
            median(reload_ms) / (median(sql_ms) + median(reload_ms)), "ratio"
        ),
        "workspace.freeze_ms": Measurement(median(freeze_ms), "ms", len(freeze_ms)),
        "workspace.compact_s": Measurement(compact_s, "s"),
        "workspace.pages_written_per_mutation": Measurement(
            sum(written) / len(written), "pages", len(written)
        ),
        "workspace.compact_pages_read": Measurement(compacted.pages_read, "pages"),
        "workspace.compact_pages_written": Measurement(compacted.pages_written, "pages"),
        "workspace.segments_max": Measurement(segments, "count"),
        "workspace.bytes_on_disk": Measurement(workloads.directory_bytes(sql_dir), "bytes"),
    })
    return out


# --- service ------------------------------------------------------------------


def raw_response(port: int, payload: bytes) -> tuple[int, int]:
    """(bytes on the wire, chunks) of one response, parsed off a raw socket."""
    request = (
        f"POST /query HTTP/1.1\r\nHost: {HOST}\r\nConnection: close\r\n"
        f"Content-Length: {len(payload)}\r\n\r\n"
    ).encode("ascii") + payload
    with socket.create_connection((HOST, port), timeout=120) as sock:
        sock.sendall(request)
        data = b""
        while True:
            piece = sock.recv(1 << 16)
            if not piece:
                break
            data += piece
    body = data.split(b"\r\n\r\n", 1)[1]
    chunks = 0
    position = 0
    while position < len(body):
        line_end = body.index(b"\r\n", position)
        size = int(body[position:line_end], 16)
        chunks += 1
        position = line_end + 2 + size + 2
    return len(data), chunks


def measure_service(bench: Bench) -> dict[str, Measurement]:
    from repro.service import JoinService, QueryRequest

    payload = query_payload(inputs.QUERY_SQL, "serve")

    def closed_loop(clients: int) -> dict[str, Any]:
        section = workloads.ServeSection(
            bench.server, "serve", bench.reference, bench.ledger,
            clients=clients, warmup_seconds=0.5,
        )
        section.run_slice(max(1.0, 0.2 * bench.seconds))
        return section.finish()

    section = closed_loop(1)
    # One client per core: the requests contend for the server's GIL, and
    # clients, server and harness saturate the machine.  Run to run this
    # moved three times as much as the one-client loop (README, "What
    # differs"), so it is reported here, without a bound.
    contended = closed_loop(max(2, os.cpu_count() or 2))
    latency = section["latency_ms"]
    elapsed = section["elapsed_ms"]
    fresh = []
    for _ in range(NEWCONN_SAMPLES):
        client = Client(bench.server.port)
        try:
            exchange = client.post("/query", payload)
        finally:
            client.close()
        problems, _ = oracle.check_query(exchange.status, exchange.body, bench.reference)
        if bench.ledger.record("POST /query (fresh connection)", problems):
            fresh.append(exchange.latency * 1e3)
    wire_bytes, chunks = raw_response(bench.server.port, payload)
    rejections = bench.server.get_json("/metrics")["rejections"]

    service = JoinService({"w": bench.directory})
    request = QueryRequest(sql=inputs.QUERY_SQL)
    events = list(service.stream(request))
    return {
        "service.http.transport_p50_ms": Measurement(
            median([a - b for a, b in zip(latency, elapsed)]), "ms", len(latency)
        ),
        "service.http.body_p50_ms": Measurement(
            median([a - b for a, b in zip(latency, section["ttfb_ms"])]), "ms", len(latency)
        ),
        "service.http.newconn_p50_ms": Measurement(median(fresh), "ms", len(fresh)),
        "service.http.bytes_per_response": Measurement(wire_bytes, "bytes"),
        "service.http.chunks_per_response": Measurement(chunks, "count"),
        "service.http.tail_p90_ms": Measurement(percentile(latency, 90), "ms", len(latency)),
        "service.http.tail_max_ms": Measurement(max(latency), "ms", len(latency)),
        "service.http.contended_p50_ms": Measurement(
            median(contended["latency_ms"]), "ms", len(contended["latency_ms"])
        ),
        "service.http.contended_qps": Measurement(
            contended["qps"], "1/s", len(contended["latency_ms"])
        ),
        "service.core.elapsed_p50_ms": Measurement(median(elapsed), "ms", len(elapsed)),
        "service.core.stream_ms": timing(lambda: list(service.stream(request)), 5, "ms"),
        "service.core.rejected": Measurement(rejections.get("overloaded", 0), "count"),
        "service.schema.encode_ms": timing(
            lambda: [json.dumps(event, sort_keys=True) for event in events], 5, "ms"
        ),
    }


# --- the replay: spans around every call on the workload's request path -------


def span_operator(
    bench: Bench, op: int, parent: int | None, algorithm: str, spec: Any, system: Any,
    label: str, *, factory: Any = None, outer_ids: Any = None,
) -> None:
    """An operator run with its phase spans, kernel primitive and TopK."""
    tracer = bench.tracer
    factory = factory or bench.factory
    result, clock, _, start, end = hooked_run(
        factory, algorithm, spec, system, outer_ids=outer_ids
    )
    run_id = tracer.add(
        f"run_{algorithm}{label}", "core", op, parent, start, end,
        sequential_reads=result.io.sequential_reads, random_reads=result.io.random_reads,
    )
    phase_ids = {}
    for phase, (first, total, entries, sequential, rand) in clock.phases.items():
        phase_ids[phase] = tracer.add(
            phase, "core", op, run_id, first, first + total,
            entries=entries, sequential_reads=sequential, random_reads=rand,
        )
    environment = factory.create()
    host = phase_ids.get(SCORING_PHASE[algorithm], run_id)
    _, candidates = tracer.call(
        f"kernels.{algorithm}", "kernels", op, host,
        lambda: drive_kernel(algorithm, environment, spec, outer_ids),
        backend=environment.kernels.name,
    )
    tracer.call(
        "TopK.offer", "core", op, host, lambda: offer_all(candidates, spec.lam),
        offers=len(candidates),
    )


def span_query(
    bench: Bench, op: int, client: Client, service: Any, workspace: str, sql: str,
    catalog: Any, factory: Any,
) -> None:
    """``POST /query`` and, nested under it, each layer it passes through.

    ``catalog``/``factory`` are the in-process twins of what the server
    holds: the loaded workspace, or its reloaded copy between writes.
    """
    from repro.core import IntegratedJoin, TextJoinSpec
    from repro.service import QueryRequest
    from repro.sql import execute, parse, plan

    tracer = bench.tracer
    payload = query_payload(sql, workspace)
    root, exchange = tracer.call(
        "POST /query", "service.http", op, None, lambda: client.post("/query", payload)
    )
    problems, _ = oracle.check_query(
        exchange.status, exchange.body, bench.reference if sql == inputs.QUERY_SQL else None
    )
    bench.ledger.record("POST /query (traced)", problems)
    stream_id, events = tracer.call(
        "JoinService.stream", "service.core", op, root,
        lambda: list(service.stream(QueryRequest(sql=sql))),
    )
    tracer.call(
        "json.dumps(events)", "service.schema", op, root,
        lambda: [json.dumps(event, sort_keys=True) for event in events], events=len(events),
    )
    execute_id, _ = tracer.call(
        "sql.execute", "sql", op, stream_id, lambda: execute(sql, catalog, bench.system)
    )
    _, parsed = tracer.call("sql.parse", "sql", op, execute_id, lambda: parse(sql))
    _, the_plan = tracer.call("sql.plan", "sql", op, execute_id, lambda: plan(parsed, catalog))
    _, environment = tracer.call("factory.create", "core", op, execute_id, factory.create)
    spec = TextJoinSpec(lam=the_plan.lam)
    _, decision = tracer.call(
        "IntegratedJoin.decide", "cost", op, execute_id,
        lambda: IntegratedJoin(environment, bench.system).decide(
            spec, the_plan.outer_ids, the_plan.inner_ids
        ),
    )
    span_operator(
        bench, op, execute_id, decision.chosen.lower(), spec, bench.system, "",
        factory=factory, outer_ids=the_plan.outer_ids,
    )


def write_pair(bench: Bench, client: Client, sql: str) -> tuple[Any, Any]:
    """The write mix's operation through the server: one mutate, one read."""
    body = json.dumps({"sql": sql, "workspace": "write"}).encode()
    mutated = client.post("/mutate", body)
    bench.ledger.record(
        "POST /mutate (traced run)",
        oracle.check_mutation(mutated.status, mutated.body, 0)[0],
    )
    read = client.post(
        "/query", query_payload(inputs.WRITE_MIX_QUERY_SQL, "write")
    )
    bench.ledger.record(
        "POST /query (traced run)", oracle.check_query(read.status, read.body, None)[0]
    )
    return mutated, read


def replay(bench: Bench) -> float:
    """Repeat the workload's operation under spans until the budget is spent.

    Returns the untraced p50 of the same operation, in ms, for
    ``trace.overhead_ratio``.
    """
    from repro.cost.params import SystemParams
    from repro.service import JoinService, MutateRequest
    from repro.sql import execute_mutation
    from repro.workspace import MutationBatch, apply_mutations, workspace_catalog

    tracer = bench.tracer
    native = bench.workload.native
    client = Client(bench.server.port)
    rng = random.Random(bench.seed + 1)
    try:
        if native == "serve":
            service = JoinService({"w": bench.directory})
            untraced = [
                client.post(
                    "/query", query_payload(inputs.QUERY_SQL, "serve")
                ).latency * 1e3
                for _ in range(MIN_REPLAYS + 2)
            ]
        elif native == "operators":
            untraced = [
                sum(bench.round_seconds[a, r][i] for a in ALGORITHMS for r in REGIMES) * 1e3
                for i in range(len(bench.round_seconds["hhnl", "fit"]))
            ]
        else:
            service = JoinService({"w": bench.copy_workspace("replay-service")})
            sql_dir = bench.copy_workspace("replay-sql")
            batch_dir = bench.copy_workspace("replay-batch")
            untraced = []
            for statement in range(MIN_REPLAYS):
                sql, _ = inputs.insert_statement(bench.shape, rng, 1 + statement % 2)
                mutated, read = write_pair(bench, client, sql)
                untraced.append((mutated.latency + read.latency) * 1e3)
        deadline = time.perf_counter() + REPLAY_SHARE * bench.seconds
        for op in range(MAX_REPLAYS):
            if op >= MIN_REPLAYS and time.perf_counter() > deadline:
                break
            if native == "serve":
                span_query(
                    bench, op, client, service, "serve", inputs.QUERY_SQL,
                    bench.catalog, bench.factory,
                )
            elif native == "operators":
                for regime, buffer_pages in REGIMES.items():
                    for algorithm in ALGORITHMS:
                        span_operator(
                            bench, op, None, algorithm, workloads.join_spec(),
                            SystemParams(buffer_pages=buffer_pages), f" {regime}",
                        )
            else:
                sql, terms = inputs.insert_statement(bench.shape, rng, 1 + op % 2)
                body = json.dumps({"sql": sql, "workspace": "write"}).encode()
                root, exchange = tracer.call(
                    "POST /mutate", "service.http", op, None,
                    lambda: client.post("/mutate", body),
                )
                bench.ledger.record(
                    "POST /mutate (traced)",
                    oracle.check_mutation(exchange.status, exchange.body, 0)[0],
                )
                mutate_id, _ = tracer.call(
                    "JoinService.mutate", "service.core", op, root,
                    lambda: service.mutate(MutateRequest(sql=sql)),
                )
                statement_id, _ = tracer.call(
                    "sql.execute_mutation", "sql", op, mutate_id,
                    lambda: execute_mutation(sql, sql_dir),
                )
                batch = MutationBatch.from_term_lists(inserts={f"c{1 + op % 2}": [terms]})
                tracer.call(
                    "workspace.apply_mutations", "workspace", op, statement_id,
                    lambda: apply_mutations(batch_dir, batch),
                )
                _, (catalog, factory) = tracer.call(
                    "workspace reload", "workspace", op, mutate_id,
                    lambda: workspace_catalog(sql_dir),
                )
                span_query(
                    bench, op, client, service, "write", inputs.WRITE_MIX_QUERY_SQL,
                    catalog, factory,
                )
    finally:
        client.close()
    return median(untraced)


# --- the traced run -----------------------------------------------------------

#: every layer a span can belong to; a layer off the workload's path
#: reports zero self time
TRACE_LAYERS = (
    "service.http", "service.core", "service.schema", "sql", "cost", "core",
    "kernels", "workspace",
)

LAYER_FUNCTIONS: tuple[Callable[[Bench], Mapping[str, Measurement]], ...] = (
    measure_service,
    measure_sql,
    measure_core,
    measure_cost,
    measure_storage,
    measure_exec,
    measure_kernels,
    measure_index,
    measure_parallel,
    measure_workspace,
)


def run_traced(
    workload: Workload, seed: int, seconds: float, names: Mapping[str, str],
    *, smoke: bool = False,
) -> dict[str, Any]:
    """One traced run: every per-layer metric in ``names`` (name -> unit)."""
    from repro.errors import InvalidParameterError
    from repro.workspace import workspace_catalog

    ledger = Ledger()
    shape = inputs.SHAPES["small" if smoke else workload.shape]
    tracer = Tracer(workload.name)
    metrics: dict[str, Measurement] = {}
    missing: list[str] = []
    with scratch(f"{workload.name}-traced") as root:
        reference_dir = inputs.build(shape, seed, root / "reference")
        reference = oracle.reference_rows(reference_dir, inputs.QUERY_SQL)
        stage = workloads.set_up(
            dict.fromkeys(workloads.SECTIONS, shape.name), seed, root / "setup",
            {shape.name: reference}, ledger,
        )
        try:
            directory = stage.directories["serve"]
            catalog, _ = workspace_catalog(directory)
            bench = Bench(
                workload=workload, shape=shape, seed=seed, seconds=seconds, root=root,
                directory=directory, server=stage.server, reference=reference,
                first_query_ms=stage.first_query_ms["serve"],
                factory=stage.factory, catalog=catalog,
                system=oracle.server_system(directory), tracer=tracer, ledger=ledger,
            )
            kernel_backend = bench.factory.create().kernels.name
            measure_rounds(bench)
            for function in LAYER_FUNCTIONS:
                try:
                    metrics.update(function(bench))
                except (ImportError, AttributeError, InvalidParameterError) as exc:
                    # A public entry point is gone (a retired backend, a
                    # renamed function): its metrics become null below.
                    missing.append(f"{function.__name__}: {type(exc).__name__}: {exc}")
            untraced_ms = replay(bench)
        finally:
            stage.server.stop()

    table = self_time_table(tracer.spans)
    self_ms = table["self_ms_by_layer"]
    for layer in TRACE_LAYERS:
        metrics[f"trace.self_ms.{layer}"] = Measurement(
            self_ms.get(layer, 0.0), "ms", table["replays"]
        )
    metrics["trace.root_ms"] = Measurement(table["root_ms"], "ms", table["replays"])
    metrics["trace.overhead_ratio"] = Measurement(table["root_ms"] / untraced_ms, "ratio")
    metrics["trace.self_sum_ratio"] = Measurement(sum(self_ms.values()) / untraced_ms, "ratio")
    reason = "; ".join(missing) or "not measured"
    for name, unit in names.items():
        metrics.setdefault(name, Measurement(None, unit, 0, reason))
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "shape": shape.name,
        "kernels": {shape.name: kernel_backend},
        "metrics": metrics,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "error_rate": ledger.error_rate,
        "problems": ledger.problems,
        "missing": missing,
        "self_time": table,
        "spans": tracer.to_json(),
    }
