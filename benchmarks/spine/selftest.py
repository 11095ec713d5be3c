#!/usr/bin/env python3
"""Self-test of the benchmark spine (not part of the tier-1 suite).

    python3 benchmarks/spine/selftest.py

Runs ``run.py --smoke``, validates the result file against the harness's
own schema and ``BENCHMARK.json``, checks that spans hang together and
self times are sane, and proves the oracle bites: one corrupted row in
an otherwise genuine response must raise ``error_rate`` above zero.
"""

from __future__ import annotations

import json
import subprocess
import sys
from typing import Any

import common
import report


def check_spans(spans: list[dict[str, Any]]) -> list[str]:
    """Logical nesting of every span; nesting in time of the phase spans."""
    problems = []
    # every traced run numbers its own spans from 0
    by_id = {(span["workload"], span["id"]): span for span in spans}
    for span in spans:
        if span["end_ns"] < span["start_ns"]:
            problems.append(f"span {span['id']} ends before it starts")
        if span["parent"] is None:
            continue
        parent = by_id.get((span["workload"], span["parent"]))
        if parent is None or parent["id"] >= span["id"]:
            problems.append(f"span {span['id']} has no earlier parent {span['parent']}")
            continue
        if parent["op"] != span["op"]:
            problems.append(f"span {span['id']} and its parent belong to different operations")
        # Phase spans come from hooks inside one real operator run, so
        # unlike the separately called children they must nest in time.
        if parent["name"].startswith("run_") and "entries" in span["counts"]:
            if not parent["start_ns"] <= span["start_ns"] <= span["end_ns"] <= parent["end_ns"]:
                problems.append(f"phase span {span['name']} leaves its operator's interval")
    return problems


def oracle_bites() -> list[str]:
    """A genuine response passes; the same response with one row changed fails."""
    import inputs
    import oracle
    from repro.service import JoinService, QueryRequest

    problems = []
    with common.scratch("selftest") as root:
        directory = inputs.build(inputs.SHAPES["small"], 1, root / "ws")
        reference = oracle.reference_rows(directory, inputs.QUERY_SQL)
        events = list(JoinService({"w": directory}).stream(QueryRequest(sql=inputs.QUERY_SQL)))
    body = "".join(json.dumps(event, sort_keys=True) + "\n" for event in events).encode()
    ledger = common.Ledger()
    ledger.record("genuine response", oracle.check_query(200, body, reference)[0])
    if ledger.failed:
        problems.append(f"the oracle rejects a genuine response: {ledger.problems}")
    first_block = next(event for event in events if event["event"] == "block")
    first_block["rows"][0][1] += 1  # one corrupted R1.Id
    corrupted = "".join(json.dumps(event, sort_keys=True) + "\n" for event in events).encode()
    ledger.record("corrupted response", oracle.check_query(200, corrupted, reference)[0])
    if not ledger.error_rate > 0:
        problems.append("a corrupted row did not raise error_rate")
    return problems


def main() -> int:
    manifest = common.require_program()
    import workloads

    problems = []
    if [entry["name"] for entry in manifest["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json and workloads.WORKLOADS name different workloads")

    done = subprocess.run(
        [sys.executable, str(common.SPINE_DIR / "run.py"), "--smoke", "--out", "selftest.json"]
    )
    if done.returncode != 0:
        problems.append(f"run.py --smoke exited with {done.returncode}")
    else:
        document = report.load_result(common.RESULTS_DIR / "selftest.json")
        problems += report.validate_result(document, manifest)
        for run in document["runs"]:
            where = f"{run['workload']} (trace {run['trace']})"
            if run["error_rate"] != 0:
                problems.append(f"{where}: error_rate {run['error_rate']}: {run['problems']}")
            if run["trace"]:
                if run["missing"]:
                    problems.append(f"{where}: missing entry points {run['missing']}")
                table = run["self_time"]
                if any(value < 0 for value in table["self_ms_by_layer"].values()):
                    problems.append(f"{where}: negative self time")
                # Where one client waits on one request, the layers' self
                # times must add up to the round trip they were cut from.
                total = sum(table["self_ms_by_layer"].values())
                if run["workload"] == "serve-small" and not (
                    0.75 <= total / table["root_ms"] <= 1.25
                ):
                    problems.append(
                        f"{where}: self times sum to {total:.3f} ms, root is "
                        f"{table['root_ms']:.3f} ms"
                    )
        spans = json.loads((common.RESULTS_DIR / "trace.json").read_text())
        if not spans:
            problems.append("trace.json holds no spans")
        problems += check_spans(spans)

    problems += oracle_bites()
    for problem in problems:
        print(f"selftest: {problem}", file=sys.stderr)
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
