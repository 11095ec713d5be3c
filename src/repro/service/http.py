"""The HTTP/JSON transport: stdlib ``http.server``, no new dependencies.

Endpoints:

* ``POST /query`` — body ``{"sql": ..., "workspace": ..., "shards": ...,
  "jobs": ..., "pages": ..., "seconds": ..., "limit": ...}``.  Success
  streams the event lines (``header``, ``block``..., ``summary``) as
  chunked ``application/x-ndjson`` the moment each outer document's
  matches finalise.  Failures before the first result block are a
  single JSON document with the mapped status — including **413** with
  a partial-result payload when the request's
  :class:`~repro.exec.context.ExecutionBudget` ran out before anything
  streamed; a budget that runs out *mid-stream* terminates the (already
  200) stream with an ``error`` event instead, since the status line is
  long gone.
* ``POST /mutate`` — body ``{"sql": ..., "workspace": ...}`` with one
  ``INSERT INTO`` / ``DELETE FROM`` statement.  Commits atomically
  under the service's mutation lock and answers with a single JSON
  mutation summary (version, fingerprint, per-segment page I/O).
  In-flight queries keep streaming from the pre-mutation snapshot;
  queries admitted after the commit see the new version.
* ``GET /health`` — service liveness, loaded workspaces, in-flight
  count, mutations applied.
* ``GET /metrics`` — counters, latency percentiles (p50/p95/p99) and
  per-phase I/O totals from :class:`~repro.service.metrics.ServiceMetrics`.

Each connection gets its own thread
(:class:`http.server.ThreadingHTTPServer`); *execution* concurrency is
bounded separately by the service's admission semaphore, so saturation
is a fast 429, never a hang.  A client that disconnects before or
mid-stream causes a write to fail, which closes the event generator and
releases its worker slot; nothing reaches ``handle_error``.

How a response leaves the socket: Nagle's algorithm stays on, so a
small write that follows an unacknowledged one waits for the client's
delayed ACK (up to ~40 ms).  The head therefore never leaves alone —
``_send_head`` sends it in one write with the first payload bytes.  A
JSON document is exactly one write; a stream's first write carries the
head plus the chunk frames of its first two events.  Every later chunk
is still written as size line, data and CRLF, so the rest of a longer
stream still waits once.
"""

from __future__ import annotations

import io
import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Mapping

from repro.errors import ReproError, ServiceOverloadedError, ServiceRequestError
from repro.service.core import (
    JoinService,
    MutateRequest,
    QueryRequest,
    error_code_for,
)
from repro.service.schema import assemble_response

#: HTTP status per service error code — the admission/failure contract
#: the table test in ``tests/service/test_failures.py`` pins
STATUS_BY_CODE: Mapping[str, int] = {
    "bad-request": 400,
    "sql-syntax": 400,
    "sql-semantic": 400,
    "invalid-parameter": 400,
    "not-found": 404,
    "unknown-workspace": 404,
    "budget-exceeded": 413,
    "overloaded": 429,
    "cancelled": 499,
    "internal-error": 500,
}

#: largest request body the service reads; a request is one SQL
#: statement plus a few integers, so 1 MiB is already generous
MAX_BODY_BYTES = 1 << 20


class ServiceHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`JoinService`."""

    #: worker threads die with the process; a hung client never pins shutdown
    daemon_threads = True

    def __init__(self, address: tuple[str, int], service: JoinService) -> None:
        super().__init__(address, _ServiceRequestHandler)
        self.service = service

    @property
    def port(self) -> int:
        """The bound TCP port (useful after binding port 0)."""
        return self.server_address[1]


def make_server(
    service: JoinService, host: str = "127.0.0.1", port: int = 0
) -> ServiceHTTPServer:
    """Bind a server for the service; ``port=0`` picks an ephemeral port.

    The server is bound but not running — call ``serve_forever()`` (the
    CLI does) or drive it from a thread (the test fixtures do).
    """
    return ServiceHTTPServer((host, port), service)


class _ServiceRequestHandler(BaseHTTPRequestHandler):
    """One request: route, execute, stream or report the mapped error."""

    #: chunked transfer encoding requires HTTP/1.1
    protocol_version = "HTTP/1.1"

    server: ServiceHTTPServer

    # --- plumbing ---------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Silence the default per-request stderr chatter."""

    def _send_head(
        self, status: int, headers: list[tuple[str, str]], first: bytes
    ) -> None:
        """Send the status line, ``headers`` and ``first`` in one write.

        ``end_headers()`` runs against a swapped in-memory ``wfile``, so
        the head is assembled through the public API and leaves in the
        same segment as the first payload bytes.
        """
        wfile, self.wfile = self.wfile, io.BytesIO()
        try:
            self.send_response(status)
            for name, value in headers:
                self.send_header(name, value)
            self.end_headers()
            head = self.wfile.getvalue()
        finally:
            self.wfile = wfile
        wfile.write(head + first)

    def _send_json(self, status: int, payload: Mapping[str, Any]) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        headers = [
            ("Content-Type", "application/json"),
            ("Content-Length", str(len(body))),
        ]
        if self.close_connection:
            headers.append(("Connection", "close"))
        try:
            self._send_head(status, headers, body)
        except OSError:
            # The client hung up before the response left; its worker
            # slot comes back exactly as for a delivered response.
            self.close_connection = True

    def _send_error_payload(self, exc: BaseException) -> None:
        code = error_code_for(exc)
        status = STATUS_BY_CODE.get(code, 500)
        self._send_json(
            status, {"error": {"code": code, "message": str(exc), "status": status}}
        )

    def _write_chunk(self, data: bytes) -> None:
        self.wfile.write(f"{len(data):x}\r\n".encode("ascii"))
        self.wfile.write(data)
        self.wfile.write(b"\r\n")
        self.wfile.flush()

    def _write_event_chunk(self, event: Mapping[str, Any]) -> None:
        self._write_chunk(_event_line(event))

    def _read_body(self) -> Any:
        length = self.headers.get("Content-Length")
        if length is None:
            raise ServiceRequestError(
                f"POST {self.path} requires a Content-Length body"
            )
        # The header is client-controlled: read(-1) would block until the
        # client hangs up and a huge value would allocate that much.
        try:
            n_bytes = int(length)
        except ValueError:
            n_bytes = -1
        if not 0 <= n_bytes <= MAX_BODY_BYTES:
            # the unread body must not be parsed as the next request
            self.close_connection = True
            raise ServiceRequestError(
                f"Content-Length must be an integer between 0 and "
                f"{MAX_BODY_BYTES}, got {length!r}"
            )
        try:
            return json.loads(self.rfile.read(n_bytes).decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ServiceRequestError(f"request body is not valid JSON: {exc}")

    def _read_request(self) -> QueryRequest:
        return QueryRequest.from_mapping(self._read_body())

    # --- routes -----------------------------------------------------------

    def do_GET(self) -> None:
        """Serve ``/health`` and ``/metrics``."""
        service = self.server.service
        if self.path == "/health":
            self._send_json(200, service.health())
        elif self.path == "/metrics":
            snapshot = service.metrics.snapshot()
            snapshot["in_flight"] = service.in_flight
            self._send_json(200, snapshot)
        else:
            self._send_json(
                404,
                {
                    "error": {
                        "code": "not-found",
                        "message": f"no route for GET {self.path}",
                        "status": 404,
                    }
                },
            )

    def do_POST(self) -> None:
        """Serve ``/query`` (admit, execute, stream) and ``/mutate``."""
        service = self.server.service
        if self.path == "/mutate":
            self._do_mutate(service)
            return
        if self.path != "/query":
            self._send_json(
                404,
                {
                    "error": {
                        "code": "not-found",
                        "message": f"no route for POST {self.path}",
                        "status": 404,
                    }
                },
            )
            return
        try:
            request = self._read_request()
        except ReproError as exc:
            service.metrics.record_rejection(error_code_for(exc))
            self._send_error_payload(exc)
            return
        try:
            events = service.stream(request)
        except ReproError as exc:
            # Saturation is already counted inside admit(); count the rest.
            if not isinstance(exc, ServiceOverloadedError):
                service.metrics.record_rejection(error_code_for(exc))
            self._send_error_payload(exc)
            return
        try:
            self._run_query(events)
        finally:
            events.close()

    def _do_mutate(self, service: JoinService) -> None:
        """Serve ``/mutate``: one statement in, one JSON summary out.

        Mutations never stream — the whole commit happens under the
        service's mutation lock and the response is a single document
        (200 on success, the mapped error status otherwise).
        """
        try:
            request = MutateRequest.from_mapping(self._read_body())
        except ReproError as exc:
            service.metrics.record_rejection(error_code_for(exc))
            self._send_error_payload(exc)
            return
        try:
            payload = service.mutate(request)
        except ReproError as exc:
            if not isinstance(exc, ServiceOverloadedError):
                service.metrics.record_rejection(error_code_for(exc))
            self._send_error_payload(exc)
            return
        self._send_json(200, payload)

    def _run_query(self, events: Any) -> None:
        """Pull the first events, pick the status, then stream the rest."""
        try:
            header = next(events)
            # Peek one event past the header: a terminal error here means
            # the whole failure fits in a plain status-mapped document
            # (the 413 partial-result payload); anything else commits to
            # a 200 chunked stream.
            second = next(events, None)
        except ReproError as exc:
            self._send_error_payload(exc)
            return
        if second is None or (
            isinstance(second, Mapping) and second.get("event") == "error"
        ):
            terminal = second if second is not None else _missing_terminal()
            document = assemble_response([header, terminal])
            status = STATUS_BY_CODE.get(str(terminal.get("code")), 500)
            # Release the slot before the document leaves, so a client
            # that has read the whole response finds its slot back.
            events.close()
            self._send_json(status, document)
            return
        try:
            self._send_head(
                200,
                [
                    ("Content-Type", "application/x-ndjson"),
                    ("Transfer-Encoding", "chunked"),
                ],
                _chunk_frame(_event_line(header)) + _chunk_frame(_event_line(second)),
            )
            for event in events:
                self._write_event_chunk(event)
            self._write_chunk(b"")
        except OSError:
            # The client went away before or mid-stream; closing the
            # generator (in the caller's finally) releases the worker slot.
            self.close_connection = True


def _event_line(event: Mapping[str, Any]) -> bytes:
    """One event as its ndjson line."""
    return (json.dumps(event, sort_keys=True) + "\n").encode("utf-8")


def _chunk_frame(data: bytes) -> bytes:
    """``data`` framed as one chunk: size line, data, CRLF."""
    return f"{len(data):x}\r\n".encode("ascii") + data + b"\r\n"


def _missing_terminal() -> dict[str, Any]:
    """A synthetic error event for a stream that died before its terminal."""
    return {
        "event": "error",
        "code": "internal-error",
        "message": "the event stream ended without a terminal event",
        "partial": True,
    }


__all__ = ["STATUS_BY_CODE", "ServiceHTTPServer", "make_server"]
