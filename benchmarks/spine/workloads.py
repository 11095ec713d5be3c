"""The four workloads and the untraced run that yields the end-to-end metrics.

Every run has the same three sections — **serve** (closed-loop ``/query``
clients against the server process), **operators** (``run_hhnl`` /
``run_hvnl`` / ``run_vvm`` in-process, buffer-fit and buffer-spill) and
**write** (a fixed script of ``/mutate`` + ``/query`` pairs, freezes and
compactions).  A workload names the section that is *native* to it: that
one runs on the workload's own collections for most of ``--seconds``.
The other two run as short *canaries* on the small collections, so each
run reports every end-to-end metric (the driver's contract) while the
native section still decides what the workload stresses.

The run is cut into *slices*, each one a set-up followed by a share of
every section.  The sandbox slows down by 10-40 % for seconds at a
time; a section measured in one block is either inside such a phase or
outside it, and its median moves with the phase, not the program.  Cut
into slices, every metric samples the whole run.
"""

from __future__ import annotations

import gc
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

import inputs
import oracle
from common import (
    Ledger,
    Measurement,
    lower_quartile,
    median,
    peak_rss_mb,
    percentile,
    reset_peak_rss,
    scratch,
    weighted_pages,
)
from loadgen import Client, ClosedLoop, Server, query_payload


@dataclass(frozen=True)
class Workload:
    name: str
    #: collections of the native section (canaries always use ``small``)
    shape: str
    #: the section this workload exists for: serve | operators | write
    native: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload("serve-small", "small", "serve"),
        Workload("serve-heavy", "medium", "serve"),
        Workload("operators", "medium", "operators"),
        Workload("write-mix", "medium", "write"),
    )
}

SECTIONS = ("serve", "operators", "write")

#: share of ``--seconds`` a section gets when it runs as a canary; the
#: native section gets whatever the two canaries leave
CANARY_SHARE = {"serve": 0.10, "operators": 0.15, "write": 0.20}

#: one slice per this many seconds of ``--seconds``, at most MAX_SLICES
SLICE_SECONDS = 3.0
MAX_SLICES = 5

#: bursts (freezes per compaction) and (mutate, query) pairs per burst
NATIVE_EPOCH = (2, 2)
CANARY_EPOCH = (1, 1)

#: buffer sizes of the two operator regimes, in pages: everything
#: buffered, and the collection several times larger than the buffer
REGIMES = {"fit": 200, "spill": 8}
ALGORITHMS = ("hhnl", "hvnl", "vvm")


def join_spec() -> Any:
    from repro.core import TextJoinSpec

    return TextJoinSpec(lam=5, normalized=True)


def operator_functions() -> dict[str, Callable[..., Any]]:
    from repro.core import run_hhnl, run_hvnl, run_vvm

    return {"hhnl": run_hhnl, "hvnl": run_hvnl, "vvm": run_vvm}


def run_operator(factory: Any, algorithm: str, regime: str) -> tuple[float, Any]:
    """One timed operator call over a fresh warm environment."""
    from repro.cost.params import SystemParams

    function = operator_functions()[algorithm]
    system = SystemParams(buffer_pages=REGIMES[regime])
    environment = factory.create()
    started = time.perf_counter()
    result = function(environment, join_spec(), system)
    return time.perf_counter() - started, result


def scalar_references(directory: Path) -> dict[tuple[str, str], Any]:
    """One ``scalar``-kernel run per (algorithm, regime): the oracle's truth."""
    from repro.workspace import load_workspace

    factory = load_workspace(directory)
    factory.kernel = "scalar"
    return {
        (algorithm, regime): run_operator(factory, algorithm, regime)[1]
        for regime in REGIMES
        for algorithm in ALGORITHMS
    }


# --- sections -----------------------------------------------------------------
#
# Each section object lives for the whole run and is driven one slice at
# a time; it keeps numbers only, so that captured bodies and results do
# not sit in the heap through the other sections.


class ServeSection:
    """Closed loop of keep-alive connections posting the query."""

    def __init__(
        self,
        server: Server,
        workspace: str,
        reference: list[list[Any]],
        ledger: Ledger,
        *,
        clients: int,
        warmup_seconds: float,
    ) -> None:
        self.reference = reference
        self.ledger = ledger
        self.clients = clients
        self.loop = ClosedLoop(
            server.port, query_payload(inputs.QUERY_SQL, workspace), clients
        )
        self.loop.warm_up(warmup_seconds)
        self.seconds = 0.0
        self.latency_ms: list[float] = []
        self.ttfb_ms: list[float] = []
        self.elapsed_ms: list[float] = []
        self.pages: set[int] = set()

    def run_slice(self, seconds: float) -> None:
        loop = self.loop.run(seconds)
        self.seconds += loop.seconds
        for error in loop.errors:
            self.ledger.record("serve client", [error])
        for exchange in loop.exchanges:
            problems, document = oracle.check_query(
                exchange.status, exchange.body, self.reference
            )
            if self.ledger.record("POST /query", problems):
                self.latency_ms.append(exchange.latency * 1e3)
                self.ttfb_ms.append(exchange.ttfb * 1e3)
                self.elapsed_ms.append(document["summary"]["elapsed_seconds"] * 1e3)
                self.pages.add(oracle.query_weighted_pages(document))

    def finish(self) -> dict[str, Any]:
        self.loop.close()
        if not self.latency_ms:
            raise RuntimeError(f"serve section: no verified response ({self.ledger.problems})")
        if len(self.pages) != 1:
            self.ledger.record(
                "serve weighted pages", [f"not constant across requests: {self.pages}"]
            )
        return {
            "clients": self.clients,
            "seconds": self.seconds,
            "latency_ms": self.latency_ms,
            "ttfb_ms": self.ttfb_ms,
            "elapsed_ms": self.elapsed_ms,
            "qps": len(self.latency_ms) / self.seconds,
            "weighted_pages": min(self.pages),
        }


class OperatorsSection:
    """Rounds of the three operators at both regimes, each result checked.

    The first round's results stand in for the scalar references while
    the run lasts (every later round must equal them); :meth:`finish`
    checks them against the scalar kernel once, after the measurements,
    because the scalar runs take seconds and a few hundred MB-seconds
    that should not sit inside the run or its memory high-water mark.
    """

    def __init__(self, factory: Any, directory: Path, ledger: Ledger) -> None:
        self.factory = factory
        self.directory = directory
        self.ledger = ledger
        self.first: dict[tuple[str, str], Any] = {}
        self.rounds: list[dict[tuple[str, str], float]] = []
        self.pages: set[int] = set()
        reset_peak_rss()
        self.one_round(keep=False)  # warm-up: lazy kernel state of this factory

    def one_round(self, keep: bool = True) -> None:
        timings = {}
        pages = 0
        for regime in REGIMES:
            for algorithm in ALGORITHMS:
                elapsed, result = run_operator(self.factory, algorithm, regime)
                timings[algorithm, regime] = elapsed
                pages += weighted_pages(result.io.sequential_reads, result.io.random_reads)
                reference = self.first.setdefault((algorithm, regime), result)
                if keep:
                    self.ledger.record(
                        f"run_{algorithm} {regime}", oracle.check_operator(result, reference)
                    )
        if keep:
            self.rounds.append(timings)
            self.pages.add(pages)

    def run_slice(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        while True:
            gc.collect()  # between rounds, so the heap's high-water mark is the join's
            self.one_round()
            if time.perf_counter() >= deadline:
                break

    def finish(self) -> dict[str, Any]:
        peak = peak_rss_mb()
        references = scalar_references(self.directory)
        for key, result in self.first.items():
            self.ledger.record(
                f"run_{key[0]} {key[1]} vs scalar kernel",
                oracle.check_operator(result, references[key]),
            )
        if len(self.pages) != 1:
            self.ledger.record("operators weighted pages", [f"not constant: {self.pages}"])
        return {
            "rounds": self.rounds,
            "join_s": {
                algorithm: [sum(r[algorithm, regime] for regime in REGIMES) for r in self.rounds]
                for algorithm in ALGORITHMS
            },
            "weighted_pages": min(self.pages),
            "peak_rss_mb": peak,
        }


def directory_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


class WriteSection:
    """Plays the write script: requests through the server, freeze/compact here.

    The service has no freeze/compact endpoint, so the harness calls
    ``repro.workspace.freeze_delta``/``compact`` on the directory itself,
    serially between requests; the next ``/mutate`` makes the server
    reload the result.
    """

    def __init__(
        self,
        server: Server,
        workspace: str,
        directory: Path,
        script: inputs.WriteScript,
        ledger: Ledger,
    ) -> None:
        from repro.workspace import load_manifest, manifest_version

        self.server = server
        self.workspace = workspace
        self.directory = directory
        self.script = script
        self.ledger = ledger
        self.client = Client(server.port)
        self.read_payload = query_payload(inputs.WRITE_MIX_QUERY_SQL, workspace)
        self.version = manifest_version(load_manifest(directory))
        self.mutations = 0
        self.next_epoch = 0
        self.out: dict[str, Any] = {
            "mutate_ms": [], "query_ms": [], "compact_s": [], "space_amp": [],
            "weighted_pages": 0,
        }

    def run_slice(self, epochs: int) -> None:
        # Untimed: the first request after an idle connection skips the
        # delayed-ACK stall every later one pays.
        self.client.post("/query", self.read_payload)
        for epoch in self.script.epochs[self.next_epoch : self.next_epoch + epochs]:
            for step in epoch:
                self.play(step)
        self.next_epoch += epochs

    def play(self, step: inputs.Step) -> None:
        from repro.workspace import compact, freeze_delta

        out = self.out
        kind = step[0]
        if kind == "mutate":
            payload = json.dumps({"sql": step[1], "workspace": self.workspace}).encode()
            exchange = self.client.post("/mutate", payload)
            problems, self.version = oracle.check_mutation(
                exchange.status, exchange.body, self.version
            )
            described = self.server.health()["workspaces"][self.workspace]
            counts = (described["inner_documents"], described["outer_documents"])
            expected = self.script.counts_after[self.mutations]
            if counts != expected:
                problems.append(f"/health counts {counts}, script expects {expected}")
            self.mutations += 1
            if self.ledger.record("POST /mutate", problems):
                out["mutate_ms"].append(exchange.latency * 1e3)
        elif kind == "query":
            exchange = self.client.post("/query", self.read_payload)
            problems, document = oracle.check_query(exchange.status, exchange.body, None)
            if self.ledger.record("POST /query (write mix)", problems):
                out["query_ms"].append(exchange.latency * 1e3)
                out["weighted_pages"] += oracle.query_weighted_pages(document)
        elif kind == "freeze":
            stats = freeze_delta(self.directory)
            self.ledger.record("freeze_delta", [] if stats.changed else ["nothing frozen"])
        else:
            before = directory_bytes(self.directory)
            started = time.perf_counter()
            compact(self.directory)
            elapsed = time.perf_counter() - started
            after = directory_bytes(self.directory)
            # Compaction must not change any answer: the server still
            # holds the pre-compaction snapshot, a fresh catalog reads
            # the compacted files, and both must return the same rows.
            exchange = self.client.post("/query", self.read_payload)
            problems, _ = oracle.check_query(
                exchange.status,
                exchange.body,
                oracle.reference_rows(self.directory, inputs.WRITE_MIX_QUERY_SQL),
            )
            if self.ledger.record("compact", problems):
                out["compact_s"].append(elapsed)
                out["space_amp"].append(before / after)

    def finish(self) -> dict[str, Any]:
        from repro.workspace import verify_workspace

        self.client.close()
        self.ledger.record("verify_workspace", verify_workspace(self.directory))
        return self.out


# --- the untraced run ---------------------------------------------------------


@dataclass
class Stage:
    """One set-up: a workspace per section, the server, a warm factory."""

    #: section name -> workspace directory; the server hosts ``serve`` and
    #: ``write`` under those names (the write section changes its own)
    directories: dict[str, Path]
    server: Server
    #: ``load_workspace`` of the operators' directory, ``create()`` called once
    factory: Any
    seconds: float
    #: latency of the cold first ``/query`` per hosted workspace, in ms
    first_query_ms: dict[str, float]


HOSTED = ("serve", "write")


def set_up(
    shapes: Mapping[str, str],
    seed: int,
    root: Path,
    references: Mapping[str, list[list[Any]]],
    ledger: Ledger,
) -> Stage:
    """Everything before the first timed operation, timed.

    Generate the collections and build one workspace per section, start
    the server over the hosted ones and wait for a verified first
    response from each, load the operators' workspace and create its
    first environment.  ``references`` holds the query's rows per shape.
    """
    from repro.workspace import load_workspace

    started = time.perf_counter()
    directories = {
        section: inputs.build(inputs.SHAPES[shape], seed, root / section)
        for section, shape in shapes.items()
    }
    server = Server({name: directories[name] for name in HOSTED}, root / "server.log")
    try:
        client = Client(server.port)
        try:
            firsts = {
                name: client.post("/query", query_payload(inputs.QUERY_SQL, name))
                for name in HOSTED
            }
        finally:
            client.close()
        factory = load_workspace(directories["operators"])
        factory.create()
        seconds = time.perf_counter() - started
        for name, exchange in firsts.items():
            problems, _ = oracle.check_query(
                exchange.status, exchange.body, references[shapes[name]]
            )
            ledger.record(f"first /query on {name}", problems)
    except BaseException:
        server.stop()
        raise
    return Stage(
        directories,
        server,
        factory,
        seconds,
        {name: exchange.latency * 1e3 for name, exchange in firsts.items()},
    )


def section_shapes(workload: Workload, smoke: bool) -> dict[str, str]:
    """Which collections each section runs on."""
    native_shape = "small" if smoke else workload.shape
    return {
        section: native_shape if section == workload.native else "small"
        for section in SECTIONS
    }


def section_seconds(workload: Workload, seconds: float) -> dict[str, float]:
    canaries = {s: CANARY_SHARE[s] * seconds for s in SECTIONS if s != workload.native}
    return {**canaries, workload.native: seconds - sum(canaries.values())}


def run_end_to_end(
    workload: Workload, seed: int, seconds: float, *, smoke: bool = False
) -> dict[str, Any]:
    """One untraced run: every end-to-end metric of ``workload``."""
    from repro.workspace import load_workspace

    ledger = Ledger()
    shapes = section_shapes(workload, smoke)
    budget = section_seconds(workload, seconds)
    slices = max(1, min(MAX_SLICES, int(seconds // SLICE_SECONDS)))
    write_shape = inputs.SHAPES[shapes["write"]]
    bursts, pairs = NATIVE_EPOCH if workload.native == "write" else CANARY_EPOCH
    epochs = max(slices, int(budget["write"] / (write_shape.pair_seconds * bursts * pairs)))
    script = inputs.write_script(write_shape, seed, epochs, bursts=bursts, pairs=pairs)
    with scratch(workload.name) as root:
        # References first, from a workspace of their own, so that no
        # oracle work lands inside set-up or a timed section.
        query_references = {
            shape: oracle.reference_rows(
                inputs.build(inputs.SHAPES[shape], seed, root / "reference" / shape),
                inputs.QUERY_SQL,
            )
            for shape in sorted({shapes[name] for name in HOSTED})
        }

        stage = set_up(shapes, seed, root / "setup-0", query_references, ledger)
        setups = [stage.seconds]
        try:
            serve_section = ServeSection(
                stage.server,
                "serve",
                query_references[shapes["serve"]],
                ledger,
                clients=1,
                warmup_seconds=2.0 if workload.native == "serve" and not smoke else 0.5,
            )
            operators_section = OperatorsSection(
                stage.factory, stage.directories["operators"], ledger
            )
            write_section = WriteSection(
                stage.server,
                "write",
                stage.directories["write"],
                script,
                ledger,
            )
            for index in range(slices):
                if index:
                    # The live stage stays; this one only times set-up
                    # again, at another moment of the run.
                    extra = set_up(
                        shapes, seed, root / f"setup-{index}", query_references, ledger
                    )
                    extra.server.stop()
                    setups.append(extra.seconds)
                    shutil.rmtree(root / f"setup-{index}")
                serve_section.run_slice(budget["serve"] / slices)
                operators_section.run_slice(budget["operators"] / slices)
                write_section.run_slice(
                    (index + 1) * epochs // slices - index * epochs // slices
                )
            serve = serve_section.finish()
            write = write_section.finish()
            server_rss = stage.server.peak_rss_mb()
            # what ``auto`` resolved to: numpy, but stdlib on collections
            # below the program's AUTO_NUMPY_MIN_CELLS
            kernels = {
                shapes[section]: load_workspace(directory).create().kernels.name
                for section, directory in stage.directories.items()
            }
        finally:
            stage.server.stop()
        operators = operators_section.finish()

    native = {"serve": serve, "operators": operators, "write": write}[workload.native]
    # write-mix reads its own query latency: the reads between its writes
    reads_ms = write["query_ms"] if workload.native == "write" else serve["latency_ms"]
    rss = operators["peak_rss_mb"] if workload.native == "operators" else server_rss
    metrics = {
        # The fastest set-up, not the median: see README, "What differs".
        "setup_s": Measurement(min(setups), "s", len(setups)),
        "query_p50_ms": Measurement(median(reads_ms), "ms", len(reads_ms)),
        "query_p90_ms": Measurement(
            percentile(serve["latency_ms"], 90), "ms", len(serve["latency_ms"])
        ),
        "ttfb_p50_ms": Measurement(median(serve["ttfb_ms"]), "ms", len(serve["ttfb_ms"])),
        "query_qps": Measurement(serve["qps"], "1/s", len(serve["latency_ms"])),
        **{
            f"{algorithm}_join_s": Measurement(lower_quartile(samples), "s", len(samples))
            for algorithm, samples in operators["join_s"].items()
        },
        "weighted_pages": Measurement(native["weighted_pages"], "pages"),
        "mutate_p50_ms": Measurement(
            median(write["mutate_ms"]), "ms", len(write["mutate_ms"])
        ),
        "compact_s": Measurement(
            lower_quartile(write["compact_s"]), "s", len(write["compact_s"])
        ),
        "space_amp": Measurement(median(write["space_amp"]), "ratio", len(write["space_amp"])),
        "peak_rss_mb": Measurement(rss, "MB"),
    }
    samples = {
        "setup_s": setups,
        "query_ms": reads_ms,
        "serve_latency_ms": serve["latency_ms"],
        "ttfb_ms": serve["ttfb_ms"],
        **{f"{a}_join_s": v for a, v in operators["join_s"].items()},
        "mutate_ms": write["mutate_ms"],
        "compact_s": write["compact_s"],
    }
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "metrics": metrics,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "error_rate": ledger.error_rate,
        "problems": ledger.problems,
        "kernels": kernels,
        "sections": {
            section: {"shape": shapes[section], "native": section == workload.native}
            for section in SECTIONS
        },
        "load": f"closed loop, {serve['clients']} client(s)",
        "slices": slices,
        "script": {kind: script.count(kind) for kind in ("mutate", "query", "freeze", "compact")},
        "rounds": len(operators["rounds"]),
        "first_query_ms": stage.first_query_ms,
        "quartiles": {
            name: [percentile(values, q) for q in (25, 50, 75)]
            for name, values in samples.items()
        },
    }
