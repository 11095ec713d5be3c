"""Wire-level fixtures: a byte-reproducible service and a raw HTTP client.

``wire_service`` boots a live server whose every response byte is
reproducible: a private workspace addressed by the relative path
``ws`` (so ``/health`` names no temporary directory), and the service
module's clock frozen (so every ``*_seconds`` field reads ``0.0`` and
``Content-Length`` and chunk sizes do not wander).  ``exchange`` speaks
HTTP/1.1 over a raw keep-alive socket and returns the response exactly
as it arrived, head and framing included.
"""

from __future__ import annotations

import json
import re
import socket
import threading
from dataclasses import dataclass

import pytest

from repro.workloads.synthetic import SyntheticSpec, generate_collection


class _FrozenClock:
    """Stands in for :mod:`time` inside :mod:`repro.service.core`."""

    @staticmethod
    def time() -> float:
        return 1000.0

    @staticmethod
    def perf_counter() -> float:
        return 1000.0


@dataclass
class WireService:
    """A running, byte-reproducible service."""

    service: object
    server: object

    def connect(self) -> socket.socket:
        """A keep-alive client socket to the server."""
        return socket.create_connection(("127.0.0.1", self.server.port), timeout=30)


@pytest.fixture()
def wire_service(tmp_path, monkeypatch) -> WireService:
    """A live service over a private workspace, its clock frozen."""
    import repro.service.core as service_core
    from repro.service import JoinService, make_server
    from repro.workspace import build_workspace

    c1 = generate_collection(
        SyntheticSpec("svc-c1", n_documents=40, avg_terms_per_doc=8,
                      vocabulary_size=150, seed=11)
    )
    c2 = generate_collection(
        SyntheticSpec("svc-c2", n_documents=30, avg_terms_per_doc=10,
                      vocabulary_size=150, seed=22)
    )
    build_workspace(tmp_path / "ws", c1, c2)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(service_core, "time", _FrozenClock)
    service = JoinService({"ws": "ws"}, max_workers=4)
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield WireService(service=service, server=server)
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


def request_bytes(method: str, path: str, payload=None) -> bytes:
    """One keep-alive HTTP/1.1 request, with a JSON body when given."""
    head = f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
    if payload is None:
        return (head + "\r\n").encode("ascii")
    body = json.dumps(payload).encode("utf-8")
    return (head + f"Content-Length: {len(body)}\r\n\r\n").encode("ascii") + body


def exchange(sock: socket.socket, method: str, path: str, payload=None) -> bytes:
    """Send one request and read back exactly one response, unparsed.

    The response ends where its framing says: after ``Content-Length``
    body bytes, or after the zero-size chunk of a chunked stream.
    """
    sock.sendall(request_bytes(method, path, payload))
    with sock.makefile("rb") as reader:
        response = b""
        while not response.endswith(b"\r\n\r\n"):
            line = reader.readline()
            assert line, f"connection closed mid-head: {response!r}"
            response += line
        length = re.search(rb"\r\nContent-Length: (\d+)\r\n", response)
        if length is not None:
            return response + reader.read(int(length.group(1)))
        assert b"\r\nTransfer-Encoding: chunked\r\n" in response, response
        while True:
            size_line = reader.readline()
            size = int(size_line, 16)
            response += size_line + reader.read(size + 2)
            if size == 0:
                return response


def masked(response: bytes) -> bytes:
    """The response with the ``Date`` and ``Server`` header values masked."""
    return re.sub(rb"\r\n(Date|Server): [^\r\n]*", rb"\r\n\1: <masked>", response)
