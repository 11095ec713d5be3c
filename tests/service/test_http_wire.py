"""The response bytes on the wire, pinned exactly.

Every response here is read off a raw keep-alive socket and compared
byte for byte — status line, header order, chunk-size lines, CRLFs and
bodies — with only the ``Date`` and ``Server`` values masked.  A change
to *how* a response is written (how many ``write`` calls, when the head
leaves) must leave every one of these byte-identical; see
``test_http_writes.py`` for the write pattern itself.
"""

from __future__ import annotations

import pytest

from repro.kernels import resolve_kernels
from tests.service.conftest import exchange, masked

SQL = "SELECT R2.Id, R1.Id FROM R1, R2 WHERE R2.Id < 3 AND R1.Doc SIMILAR_TO(2) R2.Doc"

HEAD_200_STREAM = (
    b"HTTP/1.1 200 OK\r\n"
    b"Server: <masked>\r\n"
    b"Date: <masked>\r\n"
    b"Content-Type: application/x-ndjson\r\n"
    b"Transfer-Encoding: chunked\r\n"
    b"\r\n"
)

HEADER_CHUNK = (
    b"10e\r\n"
    b'{"algorithm": "HHNL", "columns": ["R2.Id", "R1.Id", "_rank", "_similarity"], '
    b'"event": "header", "jobs": 0, "schema": "repro-service-response/1", '
    b'"shards": null, "sql": "SELECT R2.Id, R1.Id FROM R1, R2 WHERE R2.Id < 3 '
    b'AND R1.Doc SIMILAR_TO(2) R2.Doc", "workspace": "ws"}\n'
    b"\r\n"
)

FIRST_BLOCK_CHUNK = (
    b"4e\r\n"
    b'{"event": "block", "outer_doc": 0, "rows": [[0, 6, 1, 14.0], [0, 3, 2, 9.0]]}\n'
    b"\r\n"
)

PHASE_IO = (
    b'"phase_io": {"hhnl.inner": {"random_reads": 0, "sequential_reads": 1}, '
    b'"hhnl.outer": {"random_reads": 0, "sequential_reads": 1}}'
)

STREAM = (
    HEAD_200_STREAM
    + HEADER_CHUNK
    + FIRST_BLOCK_CHUNK
    + b"51\r\n"
    b'{"event": "block", "outer_doc": 1, "rows": [[1, 27, 1, 21.0], [1, 34, 2, 18.0]]}\n'
    b"\r\n"
    b"4f\r\n"
    b'{"event": "block", "outer_doc": 2, "rows": [[2, 15, 1, 12.0], [2, 0, 2, 9.0]]}\n'
    b"\r\n"
    b"12c\r\n"
    b'{"algorithm": "HHNL", "blocks": 3, "dataset_build_events": 0, '
    b'"elapsed_seconds": 0.0, "event": "summary", "pages_read": 2, '
    + PHASE_IO
    + b', "rows": 6, "status": "ok", "truncated": false}\n'
    b"\r\n"
    b"0\r\n"
    b"\r\n"
)

STREAM_LIMIT_3 = (
    HEAD_200_STREAM
    + HEADER_CHUNK
    + FIRST_BLOCK_CHUNK
    + b"3f\r\n"
    b'{"event": "block", "outer_doc": 1, "rows": [[1, 27, 1, 21.0]]}\n'
    b"\r\n"
    b"12b\r\n"
    b'{"algorithm": "HHNL", "blocks": 2, "dataset_build_events": 0, '
    b'"elapsed_seconds": 0.0, "event": "summary", "pages_read": 2, '
    + PHASE_IO
    + b', "rows": 3, "status": "ok", "truncated": true}\n'
    b"\r\n"
    b"0\r\n"
    b"\r\n"
)

BUDGET_413 = (
    b"HTTP/1.1 413 Request Entity Too Large\r\n"
    b"Server: <masked>\r\n"
    b"Date: <masked>\r\n"
    b"Content-Type: application/json\r\n"
    b"Content-Length: 735\r\n"
    b"\r\n"
    b'{"blocks": [], "error": {"blocks": 0, "code": "budget-exceeded", '
    b'"elapsed_seconds": 0.0, "event": "error", "message": "page budget '
    b'exhausted: 2 pages read, budget is 1", "pages_used": 2, "partial": true, '
    + PHASE_IO
    + b', "rows": 0, "stats": {"random_reads": 0, "sequential_reads": 2}}, '
    b'"header": {"algorithm": "HHNL", "columns": ["R2.Id", "R1.Id", "_rank", '
    b'"_similarity"], "event": "header", "jobs": 0, "schema": '
    b'"repro-service-response/1", "shards": null, "sql": "SELECT R2.Id, R1.Id '
    b'FROM R1, R2 WHERE R2.Id < 3 AND R1.Doc SIMILAR_TO(2) R2.Doc", '
    b'"workspace": "ws"}, "schema": "repro-service-response/1", "summary": null}\n'
)

SQL_400 = (
    b"HTTP/1.1 400 Bad Request\r\n"
    b"Server: <masked>\r\n"
    b"Date: <masked>\r\n"
    b"Content-Type: application/json\r\n"
    b"Content-Length: 112\r\n"
    b"\r\n"
    b'{"error": {"code": "sql-syntax", "message": "expected \'SELECT\' but '
    b"found 'SELEKT' at offset 0\", \"status\": 400}}\n"
)

ROUTE_404 = (
    b"HTTP/1.1 404 Not Found\r\n"
    b"Server: <masked>\r\n"
    b"Date: <masked>\r\n"
    b"Content-Type: application/json\r\n"
    b"Content-Length: 85\r\n"
    b"\r\n"
    b'{"error": {"code": "not-found", "message": "no route for GET /nope", '
    b'"status": 404}}\n'
)

#: ``/health`` names the kernel backend ``auto`` resolved to, so its body
#: (and with it ``Content-Length``) is completed per machine
HEALTH_BODY = (
    '{"in_flight": 0, "max_workers": 4, "mutations": 0, "status": "ok", '
    '"uptime_seconds": 0.0, "workspaces": {"ws": {"directory": "ws", '
    '"fingerprint": "51401146ba7997d7", "inner_documents": 40, '
    '"kernel": "{kernel}", "outer_documents": 30, "page_bytes": 4096, '
    '"self_join": false}}}\n'
)

MUTATE = (
    b"HTTP/1.1 200 OK\r\n"
    b"Server: <masked>\r\n"
    b"Date: <masked>\r\n"
    b"Content-Type: application/json\r\n"
    b"Content-Length: 658\r\n"
    b"\r\n"
    b'{"apply_seconds": 0.0, "changed": true, "deleted": {"c1": 0, "c2": 0}, '
    b'"elapsed_seconds": 0.0, "event": "mutation", "fingerprint": '
    b'"2f2cbc5de627b3a8", "inserted": {"c1": 1, "c2": 0}, "operation": '
    b'"apply_mutations", "pages_read": 0, "pages_written": 6, '
    b'"read_by_extent": {}, "segments": ["seg-000000", "seg-000002"], '
    b'"segments_loaded": 1, "segments_reused": 1, "swap_seconds": 0.0, '
    b'"tombstones_added": 0, "version": 2, "workspace": "ws", '
    b'"written_by_extent": {"seg-000002/svc-c1.btree": 1, '
    b'"seg-000002/svc-c1.docs.cells": 1, "seg-000002/svc-c1.docs.dir": 1, '
    b'"seg-000002/svc-c1.inv.cells": 1, "seg-000002/svc-c1.inv.dir": 1, '
    b'"seg-000002/svc-c1.inv.terms": 1}}\n'
)


def health_response() -> bytes:
    body = HEALTH_BODY.replace("{kernel}", resolve_kernels("auto").name)
    return (
        b"HTTP/1.1 200 OK\r\n"
        b"Server: <masked>\r\n"
        b"Date: <masked>\r\n"
        b"Content-Type: application/json\r\n"
        + f"Content-Length: {len(body)}\r\n\r\n{body}".encode("ascii")
    )


@pytest.mark.parametrize(
    "payload,expected",
    [({"sql": SQL}, STREAM), ({"sql": SQL, "limit": 3}, STREAM_LIMIT_3)],
    ids=["unbounded", "limit-3"],
)
def test_query_stream_bytes(wire_service, payload, expected):
    with wire_service.connect() as sock:
        assert masked(exchange(sock, "POST", "/query", payload)) == expected


@pytest.mark.parametrize(
    "payload,expected",
    [({"sql": SQL, "pages": 1}, BUDGET_413), ({"sql": "SELEKT Id FROM R1"}, SQL_400)],
    ids=["413-partial-budget", "400-sql-syntax"],
)
def test_query_error_document_bytes(wire_service, payload, expected):
    with wire_service.connect() as sock:
        assert masked(exchange(sock, "POST", "/query", payload)) == expected


def test_get_document_bytes(wire_service):
    with wire_service.connect() as sock:
        assert masked(exchange(sock, "GET", "/nope")) == ROUTE_404
        assert masked(exchange(sock, "GET", "/health")) == health_response()


def test_mutate_document_bytes(wire_service):
    with wire_service.connect() as sock:
        sql = "INSERT INTO R1 (Doc) VALUES ('1 2 3')"
        assert masked(exchange(sock, "POST", "/mutate", {"sql": sql})) == MUTATE


def test_one_keep_alive_connection_carries_every_response(wire_service):
    with wire_service.connect() as sock:
        assert masked(exchange(sock, "POST", "/query", {"sql": SQL})) == STREAM
        assert masked(exchange(sock, "GET", "/nope")) == ROUTE_404
        assert (
            masked(exchange(sock, "POST", "/query", {"sql": SQL, "limit": 3}))
            == STREAM_LIMIT_3
        )
