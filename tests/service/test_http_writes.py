"""How a response leaves the handler: the ``wfile.write`` calls, pinned.

With Nagle's algorithm on, a second small segment waits for the ACK of
the first, and the client's delayed ACK can hold that for ~40 ms.  So
the head must never leave alone: a JSON document is exactly one write
(status line, headers and body), and a stream's first write carries the
head plus the ``header`` and first ``block`` chunk frames.  Every later
chunk is written as before (size line, data, CRLF).

A client that hangs up before the first write is a named path too: the
handler marks the connection closed, the worker slot comes back, and
nothing reaches ``socketserver``'s ``handle_error`` (which would print
a traceback to stderr).
"""

from __future__ import annotations

import pytest

from repro.service.http import _ServiceRequestHandler
from tests.service.conftest import exchange, request_bytes
from tests.service.test_http_wire import FIRST_BLOCK_CHUNK, HEADER_CHUNK, SQL

INSERT = {"sql": "INSERT INTO R1 (Doc) VALUES ('1 2 3')"}


class _RecordingWriter:
    """Wraps the handler's ``wfile``: logs each write, then forwards it."""

    def __init__(self, inner, log: list[bytes]) -> None:
        self._inner = inner
        self._log = log

    @property
    def closed(self) -> bool:
        return self._inner.closed

    def write(self, data) -> int:
        self._log.append(bytes(data))
        return self._inner.write(data)

    def flush(self) -> None:
        self._inner.flush()

    def close(self) -> None:
        self._inner.close()


class _HungUpWriter:
    """A ``wfile`` whose client is already gone: every write breaks."""

    closed = False

    def write(self, data) -> int:
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self) -> None:
        pass

    def close(self) -> None:
        self.closed = True


@pytest.fixture()
def writes(wire_service, monkeypatch) -> list[bytes]:
    """Every ``wfile.write`` the server's handlers make, in order."""
    log: list[bytes] = []
    setup = _ServiceRequestHandler.setup

    def recording_setup(handler) -> None:
        setup(handler)
        handler.wfile = _RecordingWriter(handler.wfile, log)

    monkeypatch.setattr(_ServiceRequestHandler, "setup", recording_setup)
    return log


@pytest.mark.parametrize(
    "method,path,payload",
    [
        ("POST", "/mutate", INSERT),
        ("GET", "/health", None),
        ("GET", "/metrics", None),
        ("GET", "/nope", None),
        ("POST", "/query", {"sql": "SELEKT Id FROM R1"}),
        ("POST", "/query", {"sql": SQL, "pages": 1}),
    ],
    ids=["mutate", "health", "metrics", "404", "400", "413"],
)
def test_a_json_document_is_one_write(wire_service, writes, method, path, payload):
    with wire_service.connect() as sock:
        response = exchange(sock, method, path, payload)
    assert writes == [response]


def test_a_streams_first_write_carries_the_head_and_first_events(
    wire_service, writes
):
    with wire_service.connect() as sock:
        response = exchange(sock, "POST", "/query", {"sql": SQL})
    head = response[: response.index(b"\r\n\r\n") + 4]
    assert writes[0] == head + HEADER_CHUNK + FIRST_BLOCK_CHUNK
    # every later chunk is written as size line, data, CRLF
    rest = writes[1:]
    assert len(rest) % 3 == 0
    for size_line, data, crlf in zip(rest[::3], rest[1::3], rest[2::3]):
        assert size_line == f"{len(data):x}\r\n".encode("ascii")
        assert crlf == b"\r\n"
    assert b"".join(writes) == response


@pytest.mark.parametrize(
    "method,path,payload",
    [
        ("POST", "/query", {"sql": SQL}),
        ("POST", "/query", {"sql": SQL, "pages": 1}),
        ("POST", "/mutate", INSERT),
        ("GET", "/health", None),
        ("GET", "/nope", None),
    ],
    ids=["stream", "413", "mutate", "health", "404"],
)
def test_a_client_gone_before_the_first_write_is_a_quiet_close(
    wire_service, monkeypatch, method, path, payload
):
    setup = _ServiceRequestHandler.setup

    def hung_up_setup(handler) -> None:
        setup(handler)
        handler.wfile = _HungUpWriter()

    errors: list[object] = []
    monkeypatch.setattr(_ServiceRequestHandler, "setup", hung_up_setup)
    monkeypatch.setattr(
        wire_service.server, "handle_error",
        lambda request, address: errors.append(address),
    )
    with wire_service.connect() as sock:
        sock.sendall(request_bytes(method, path, payload))
        # the handler marks the connection closed: the server hangs up
        assert sock.recv(1) == b""
    assert errors == []
    assert wire_service.service.in_flight == 0
