"""``BENCH_spine.json``: the committed trajectory of claimed spine metrics.

One record per landed performance change, in ascending change order,
each naming a workload and an end-to-end metric the spine declares in
``BENCHMARK.json``, with the parent's and the change's quartiles over
alternating run pairs.  ``null`` marks a value that was not recorded.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "BENCH_spine.json"
RECORD_KEYS = {
    "pr", "workload", "seed", "metric", "parent", "change",
    "pairs_won", "pairs", "note",
}
SIDE_KEYS = ("q1", "median", "q3")


@pytest.fixture(scope="module")
def trajectory() -> dict:
    return json.loads(TRAJECTORY.read_text())


@pytest.fixture(scope="module")
def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_trajectory_has_its_schema_tag(trajectory):
    assert trajectory["schema"] == "repro-bench-trajectory/1"
    assert set(trajectory) == {"schema", "description", "records"}
    assert trajectory["records"]


def test_one_record_per_change_in_ascending_order(trajectory):
    prs = [record["pr"] for record in trajectory["records"]]
    assert all(isinstance(pr, int) and not isinstance(pr, bool) for pr in prs)
    assert prs == sorted(set(prs)), prs


def test_records_name_declared_workloads_and_metrics(trajectory, declared):
    workloads = {workload["name"] for workload in declared["workloads"]}
    metrics = {metric["name"]: metric for metric in declared["end_to_end"]}
    for record in trajectory["records"]:
        assert set(record) == RECORD_KEYS, record["pr"]
        assert record["workload"] in workloads, record
        assert record["metric"] in metrics, record
        assert record["seed"] is None or isinstance(record["seed"], int), record
        assert record["note"] is None or isinstance(record["note"], str), record


def test_quartiles_are_ordered_and_pairs_counted(trajectory):
    for record in trajectory["records"]:
        for side in ("parent", "change"):
            values = record[side]
            assert tuple(values) == SIDE_KEYS, (record["pr"], side)
            assert isinstance(values["median"], (int, float)), (record["pr"], side)
            known = [values[key] for key in SIDE_KEYS if values[key] is not None]
            assert all(isinstance(value, (int, float)) for value in known)
            assert known == sorted(known), (record["pr"], side, values)
        assert 0 <= record["pairs_won"] <= record["pairs"], record["pr"]


def test_every_claim_moved_its_metric_the_better_way(trajectory, declared):
    better = {metric["name"]: metric["better"] for metric in declared["end_to_end"]}
    for record in trajectory["records"]:
        parent, change = record["parent"]["median"], record["change"]["median"]
        if better[record["metric"]] == "lower":
            assert change < parent, record
        else:
            assert change > parent, record
