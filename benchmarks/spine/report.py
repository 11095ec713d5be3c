"""Result files, the printed report, and ``compare``.

A result file (``repro-spine/1``) holds provenance plus one entry per
run; the metric names, units, directions and bounds all come from
``BENCHMARK.json`` at the repository root, which is the one place they
are written down.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

from common import EXACT_METRICS, Measurement

RESULT_SCHEMA = "repro-spine/1"


def metric_table(manifest: Mapping[str, Any], kind: str) -> dict[str, dict[str, Any]]:
    """``end_to_end`` or ``per_layer`` entries of the manifest, by name."""
    return {entry["name"]: entry for entry in manifest[kind]}


def contract_line(run: Mapping[str, Any], names: Mapping[str, Any]) -> str:
    """The driver's result object: exactly the manifest's metrics of this run."""
    metrics = {}
    for name in names:
        measurement: Measurement = run["metrics"][name]
        metrics[name] = {"value": measurement.value, "unit": measurement.unit}
        if measurement.reason is not None:
            metrics[name]["reason"] = measurement.reason
    return json.dumps(
        {
            "correct": run["failed"] == 0,
            "attempted": run["attempted"],
            "failed": run["failed"],
            "metrics": metrics,
        }
    )


def run_to_json(run: Mapping[str, Any]) -> dict[str, Any]:
    out = {key: value for key, value in run.items() if key not in ("metrics", "spans")}
    out["metrics"] = {name: m.to_json() for name, m in run["metrics"].items()}
    return out


def validate_result(document: Any, manifest: Mapping[str, Any]) -> list[str]:
    """Problems with a result file against the harness's own schema."""
    problems = []
    if not isinstance(document, dict) or document.get("schema") != RESULT_SCHEMA:
        return [f"not a {RESULT_SCHEMA} document"]
    provenance = document.get("provenance")
    for key in ("seed", "git_sha", "cpu_count", "python", "numpy", "kernel_backend", "codec"):
        if not isinstance(provenance, dict) or key not in provenance:
            problems.append(f"provenance lacks {key!r}")
    workloads = {entry["name"] for entry in manifest["workloads"]}
    runs = document.get("runs")
    if not isinstance(runs, list) or not runs:
        return problems + ["no runs"]
    for index, run in enumerate(runs):
        where = f"runs[{index}]"
        if run.get("workload") not in workloads:
            problems.append(f"{where}: unknown workload {run.get('workload')!r}")
        if run.get("trace") not in (0, 1):
            problems.append(f"{where}: trace must be 0 or 1")
            continue
        expected = metric_table(manifest, "per_layer" if run["trace"] else "end_to_end")
        metrics = run.get("metrics", {})
        if set(metrics) != set(expected):
            odd = sorted(set(metrics) ^ set(expected))
            problems.append(f"{where}: metric names differ from BENCHMARK.json: {odd[:5]}")
        for name, entry in metrics.items():
            if name in expected and entry.get("unit") != expected[name]["unit"]:
                problems.append(f"{where}: {name} has unit {entry.get('unit')!r}")
            value = entry.get("value")
            if value is None and not entry.get("reason"):
                problems.append(f"{where}: {name} is null without a reason")
            if value is not None and not isinstance(value, (int, float)):
                problems.append(f"{where}: {name} is not a number")
        for key in ("attempted", "failed"):
            if not isinstance(run.get(key), int):
                problems.append(f"{where}: {key} must be an integer")
    return problems


# --- printing -----------------------------------------------------------------


def format_value(value: float | None) -> str:
    if value is None:
        return "null"
    if isinstance(value, int) or float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.4g}" if abs(value) < 1e4 else f"{value:.1f}"


def print_run(run: Mapping[str, Any], table: Mapping[str, Mapping[str, Any]]) -> None:
    """Every metric of one run by name, with unit, samples and direction."""
    kind = "traced, per-layer" if run["trace"] else "untraced, end-to-end"
    print(f"\n== {run['workload']}  seed {run['seed']}  {run['seconds']:g} s  ({kind}) ==")
    if not run["trace"]:
        sections = ", ".join(
            f"{name} on {info['shape']}{' (native)' if info['native'] else ''}"
            for name, info in run["sections"].items()
        )
        print(f"   {run['load']}; sections: {sections}")
    for name, entry in table.items():
        m: Measurement = run["metrics"][name]
        arrow = "lower is better" if entry["better"] == "lower" else "higher is better"
        bound = f"  bound {entry['bound']:g}" if "bound" in entry else ""
        note = f"  [{m.reason}]" if m.reason else ""
        print(f"   {name:<42} {format_value(m.value):>12} {m.unit:<6} n={m.n:<5} {arrow}{bound}{note}")
    print(
        f"   error_rate {run['error_rate']:g}  ops_attempted {run['attempted']}  "
        f"ops_failed {run['failed']}"
    )
    for problem in run["problems"]:
        print(f"   FAILED {problem}")
    if run["trace"]:
        print_self_time(run)


def print_self_time(run: Mapping[str, Any]) -> None:
    table = run["self_time"]
    print(
        f"   self time per layer, median of {table['replays']} replays "
        f"(root {table['root_ms']:.3f} ms, {table['floored_spans']} spans floored at 0):"
    )
    total = sum(table["self_ms_by_layer"].values()) or 1.0
    for layer, self_ms in sorted(
        table["self_ms_by_layer"].items(), key=lambda item: -item[1]
    ):
        print(f"      {layer:<16} {self_ms:>10.3f} ms  {100 * self_ms / total:5.1f} %")


# --- compare ------------------------------------------------------------------


def end_to_end_runs(document: Mapping[str, Any]) -> dict[str, Mapping[str, Any]]:
    return {run["workload"]: run for run in document["runs"] if run["trace"] == 0}


def compare(
    first: Mapping[str, Any],
    second: Mapping[str, Any],
    manifest: Mapping[str, Any],
    *,
    same_code: bool = False,
) -> int:
    """Print the per-metric, per-workload table; returns the failure count.

    The relative difference is signed so that positive means *worse* in
    ``second``.  Worse by more than the bound is ``out-of-bound``; with
    ``same_code`` (two runs of one commit) better by more than the bound
    is a disagreement too.  Exact metrics must be equal.
    """
    table = metric_table(manifest, "end_to_end")
    runs_a, runs_b = end_to_end_runs(first), end_to_end_runs(second)
    failures = 0
    print(f"{'workload':<12} {'metric':<16} {'first':>12} {'second':>12} {'worse by':>9} {'bound':>6}  verdict")
    for workload in runs_a:
        if workload not in runs_b:
            continue
        rows = [(name, entry["better"], entry["bound"]) for name, entry in table.items()]
        rows.append(("error_rate", "lower", 0.0))
        for name, better, bound in rows:
            if name == "error_rate":
                a, b = runs_a[workload]["error_rate"], runs_b[workload]["error_rate"]
            else:
                a = runs_a[workload]["metrics"][name]["value"]
                b = runs_b[workload]["metrics"][name]["value"]
            if name in EXACT_METRICS:
                worse = 0.0 if a == b else float("nan")
                verdict = "ok" if a == b else "exact-mismatch"
                shown_bound = "exact"
            else:
                worse = (b - a) / a if better == "lower" else (a - b) / a
                shown_bound = f"{bound:g}"
                if worse > bound:
                    verdict = "out-of-bound"
                elif same_code and worse < -bound:
                    verdict = "out-of-bound"
                else:
                    verdict = "ok"
            failures += verdict != "ok"
            print(
                f"{workload:<12} {name:<16} {format_value(a):>12} {format_value(b):>12} "
                f"{worse:>+9.3f} {shown_bound:>6}  {verdict}"
            )
    print(f"{failures} failure(s)")
    return failures


def load_result(path: Path) -> dict[str, Any]:
    return json.loads(Path(path).read_text())
