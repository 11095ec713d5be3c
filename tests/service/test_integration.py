"""Integration: HTTP query results are byte-equal to direct execution.

Every test runs against a real server on an ephemeral port (the
``running_service`` fixture) backed by the shared pre-built workspace,
so the whole stack — admission, streaming executor, chunked transport,
response schema — sits between the asserted rows and the direct
``repro.sql.executor.execute`` baseline they are compared to.
"""

from __future__ import annotations

import pytest

from repro.cost.params import SystemParams
from repro.kernels import resolve_kernels
from repro.sql.executor import execute
from repro.workspace import load_manifest, workspace_catalog

JOIN_SQL = "SELECT R2.Id, R1.Id FROM R1, R2 WHERE R1.Doc SIMILAR_TO(3) R2.Doc"


@pytest.fixture(scope="module")
def direct_result(service_workspace):
    """The same query executed directly, with the service's parameters."""
    manifest = load_manifest(service_workspace)
    catalog, _factory = workspace_catalog(service_workspace)
    system = SystemParams(buffer_pages=256, page_bytes=manifest["page_bytes"])
    return execute(JOIN_SQL, catalog, system)


def rows_of(document):
    return [tuple(row) for block in document["blocks"] for row in block["rows"]]


def test_query_rows_match_direct_execution(running_service, direct_result):
    status, document = running_service.query({"sql": JOIN_SQL})
    assert status == 200
    assert document["header"]["columns"] == list(direct_result.columns)
    assert document["header"]["algorithm"] == direct_result.algorithm
    assert rows_of(document) == [tuple(row) for row in direct_result.rows]
    assert document["summary"]["rows"] == len(direct_result.rows)


def test_shard_counts_agree_over_http(running_service, direct_result):
    baseline = [tuple(row) for row in direct_result.rows]
    for shards in (1, 4):
        status, document = running_service.query({"sql": JOIN_SQL, "shards": shards})
        assert status == 200, document
        assert rows_of(document) == baseline
        assert document["header"]["shards"] == shards


def test_warm_workspace_serves_without_rebuilds(running_service):
    status, document = running_service.query({"sql": JOIN_SQL})
    assert status == 200
    assert document["summary"]["dataset_build_events"] == 0


def test_request_limit_has_sql_limit_semantics(running_service, direct_result):
    status, document = running_service.query({"sql": JOIN_SQL, "limit": 5})
    assert status == 200
    assert rows_of(document) == [tuple(row) for row in direct_result.rows[:5]]
    assert document["summary"]["rows"] == 5
    assert document["summary"]["truncated"] is True


def test_blocks_stream_one_per_outer_document(running_service):
    status, document = running_service.query({"sql": JOIN_SQL})
    assert status == 200
    outer_docs = [block["outer_doc"] for block in document["blocks"]]
    assert len(set(outer_docs)) == len(outer_docs)
    assert document["summary"]["blocks"] == len(document["blocks"])


def test_health_reports_loaded_workspaces(running_service):
    status, payload = running_service.get("/health")
    assert status == 200
    assert payload["status"] == "ok"
    assert payload["max_workers"] == 4
    assert set(payload["workspaces"]) == {"ws"}
    described = payload["workspaces"]["ws"]
    assert described["inner_documents"] == 40
    assert described["outer_documents"] == 30
    assert described["self_join"] is False
    assert described["kernel"] == resolve_kernels("auto").name


def test_metrics_accumulate_per_query(running_service):
    before = running_service.get("/metrics")[1]
    status, document = running_service.query({"sql": JOIN_SQL})
    assert status == 200
    after = running_service.get("/metrics")[1]
    assert after["queries_served"] == before["queries_served"] + 1
    assert after["rows_returned"] >= before["rows_returned"] + document["summary"]["rows"]
    assert after["latency"]["count"] == before["latency"]["count"] + 1
    assert after["latency"]["p50_seconds"] is not None
    assert after["latency"]["p99_seconds"] is not None
    assert after["phase_io"], "per-phase I/O totals should be populated"
    for stats in after["phase_io"].values():
        assert set(stats) == {"sequential_reads", "random_reads"}


def test_summary_reports_pages_read(running_service):
    status, document = running_service.query({"sql": JOIN_SQL})
    assert status == 200
    assert document["summary"]["pages_read"] > 0
    assert document["summary"]["elapsed_seconds"] >= 0
