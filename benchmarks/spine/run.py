#!/usr/bin/env python3
"""The benchmark spine: one command for every end-to-end and per-layer metric.

    python3 benchmarks/spine/run.py                      # all four workloads, then the traced runs
    python3 benchmarks/spine/run.py --workload operators --seed 7 --seconds 15 --trace 0
    python3 benchmarks/spine/run.py --smoke              # small collections, 3 s sections
    python3 benchmarks/spine/run.py --twice              # two untraced suites, then compare them
    python3 benchmarks/spine/run.py compare A.json B.json

Results go to ``benchmarks/spine/results/`` and the spans of the traced
runs to ``results/trace.json``.  With ``--workload`` and ``--trace`` both
given (the form the driver uses) the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Mapping

import common
import report

DEFAULT_SEED = 1996


def parse_arguments(argv: list[str], manifest: Mapping[str, Any]) -> argparse.Namespace:
    names = [entry["name"] for entry in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", "--duration", type=float, default=float(manifest["run_seconds"]),
        help="length of each run's timed sections, in seconds",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1),
        help="0: untraced, end-to-end metrics; 1: traced, per-layer metrics "
        "(default: the untraced pass, then a shorter traced one)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="every workload on the small collections with 3 s sections",
    )
    parser.add_argument(
        "--twice", action="store_true",
        help="run the untraced suite twice and compare the two results",
    )
    parser.add_argument("--out", help="result file name under benchmarks/spine/results/")
    return parser.parse_args(argv)


def one_run(
    workload: Any, trace: int, seed: int, seconds: float, smoke: bool,
    manifest: Mapping[str, Any],
) -> dict[str, Any]:
    import layers
    import workloads

    if trace:
        units = {e["name"]: e["unit"] for e in manifest["per_layer"]}
        run = layers.run_traced(workload, seed, seconds, units, smoke=smoke)
        table = report.metric_table(manifest, "per_layer")
    else:
        run = workloads.run_end_to_end(workload, seed, seconds, smoke=smoke)
        table = report.metric_table(manifest, "end_to_end")
    unknown = sorted(set(table) - set(run["metrics"]))
    if unknown:
        raise common.HarnessError(f"BENCHMARK.json names metrics nobody measured: {unknown}")
    run["metrics"] = {name: run["metrics"][name] for name in table}
    run["trace"] = trace
    report.print_run(run, table)
    return run


def suite(
    arguments: argparse.Namespace, manifest: Mapping[str, Any], traces: tuple[int, ...]
) -> list[dict[str, Any]]:
    import workloads

    selected = [
        workloads.WORKLOADS[entry["name"]]
        for entry in manifest["workloads"]
        if arguments.workload in (None, entry["name"])
    ]
    seconds = 3.0 if arguments.smoke else arguments.seconds
    runs = []
    for trace in traces:
        for workload in selected:
            # the traced pass is the shorter one unless it was asked for alone
            length = seconds if len(traces) == 1 or not trace else max(3.0, seconds / 2)
            runs.append(
                one_run(workload, trace, arguments.seed, length, arguments.smoke, manifest)
            )
    return runs


def save(runs: list[dict[str, Any]], seed: int, name: str) -> Any:
    kernels: dict[str, str] = {}
    for run in runs:
        kernels.update(run.get("kernels", {}))
    document = {
        "schema": report.RESULT_SCHEMA,
        "provenance": common.provenance(seed, kernels, codec="raw"),
        "runs": [report.run_to_json(run) for run in runs],
    }
    common.RESULTS_DIR.mkdir(exist_ok=True)
    path = common.RESULTS_DIR / name
    path.write_text(json.dumps(document, indent=1) + "\n")
    spans = [span for run in runs for span in run.get("spans", ())]
    if spans:
        (common.RESULTS_DIR / "trace.json").write_text(json.dumps(spans) + "\n")
    print(f"\nresults written to {path}")
    return document


def main(argv: list[str]) -> int:
    try:
        manifest = common.require_program()
    except common.HarnessError as exc:
        print(f"spine: {exc}", file=sys.stderr)
        return 2
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        first, second = (report.load_result(path) for path in argv[1:])
        return 1 if report.compare(first, second, manifest) else 0

    arguments = parse_arguments(argv, manifest)
    try:
        if arguments.twice:
            documents = [
                save(suite(arguments, manifest, (0,)), arguments.seed, f"twice-{label}.json")
                for label in ("a", "b")
            ]
            return 1 if report.compare(*documents, manifest, same_code=True) else 0
        traces = (0, 1) if arguments.trace is None else (arguments.trace,)
        runs = suite(arguments, manifest, traces)
    except common.HarnessError as exc:
        print(f"spine: {exc}", file=sys.stderr)
        return 2
    parts = ["run", arguments.workload, "smoke" if arguments.smoke else None]
    parts += [f"trace{arguments.trace}" if arguments.trace is not None else None]
    name = "-".join(part for part in parts if part) + f"-seed{arguments.seed}.json"
    save(runs, arguments.seed, arguments.out or name)
    if arguments.workload is not None and arguments.trace is not None:
        (run,) = runs
        kind = "per_layer" if run["trace"] else "end_to_end"
        print(report.contract_line(run, report.metric_table(manifest, kind)))
        return 0
    return 1 if any(run["failed"] for run in runs) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
