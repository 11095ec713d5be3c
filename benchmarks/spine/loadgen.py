"""The load generator: a server subprocess and closed-loop HTTP clients.

Hygiene rules (so the generator adds no stall of its own): the server is
its own process; each client thread owns one keep-alive connection with
``TCP_NODELAY`` set on the *client* socket; every request leaves in a
single ``sendall``; responses are timestamped as they are read and
checked later, outside the timed interval.
"""

from __future__ import annotations

import http.client
import json
import select
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from common import HarnessError, peak_rss_mb, program_env

HOST = "127.0.0.1"
#: admission slots of the served process; above any client count used here
MAX_WORKERS = 4
STARTUP_TIMEOUT_S = 120
REQUEST_TIMEOUT_S = 120


class Server:
    """``python -m repro serve`` over named workspaces, on a free port."""

    def __init__(self, workspaces: Mapping[str, Path], log_path: Path) -> None:
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                *[f"{name}={directory}" for name, directory in workspaces.items()],
                "--port", "0",
                "--max-workers", str(MAX_WORKERS),
            ],
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=program_env(),
        )
        try:
            self.port = self._read_port()
            self._await_health()
        except BaseException:
            self.stop()
            raise

    def _read_port(self) -> int:
        """Parse the ``serving ... on http://HOST:PORT`` readiness line."""
        assert self.proc.stdout is not None
        ready, _, _ = select.select([self.proc.stdout], [], [], STARTUP_TIMEOUT_S)
        line = self.proc.stdout.readline().decode() if ready else ""
        marker = f"http://{HOST}:"
        if marker not in line:
            raise HarnessError(f"server did not come up (said {line!r})")
        return int(line.split(marker, 1)[1].split()[0])

    def _await_health(self) -> None:
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        while True:
            try:
                if self.health()["status"] == "ok":
                    return
            except OSError:
                if time.monotonic() > deadline:
                    raise HarnessError("server never answered /health") from None
                time.sleep(0.01)

    def get_json(self, path: str) -> dict[str, Any]:
        with urllib.request.urlopen(
            f"http://{HOST}:{self.port}{path}", timeout=REQUEST_TIMEOUT_S
        ) as response:
            return json.loads(response.read())

    def health(self) -> dict[str, Any]:
        return self.get_json("/health")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """Terminate the process and wait until it has ended."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


@dataclass
class Exchange:
    """One request/response, timestamped by the client (``perf_counter``)."""

    status: int
    body: bytes
    sent_at: float
    #: when the second body line — the first ``block`` event — was read
    first_block_at: float
    done_at: float

    @property
    def latency(self) -> float:
        return self.done_at - self.sent_at

    @property
    def ttfb(self) -> float:
        return self.first_block_at - self.sent_at


class Client:
    """One keep-alive connection; requests leave in a single ``sendall``."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.sock = socket.create_connection((HOST, port), timeout=REQUEST_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def post(self, path: str, payload: bytes) -> Exchange:
        request = (
            f"POST {path} HTTP/1.1\r\nHost: {HOST}:{self.port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n"
        ).encode("ascii") + payload
        sent_at = time.perf_counter()
        self.sock.sendall(request)
        response = http.client.HTTPResponse(self.sock, method="POST")
        try:
            response.begin()
            head = response.readline() + response.readline()
            first_block_at = time.perf_counter()
            body = head + response.read()
            done_at = time.perf_counter()
            return Exchange(response.status, body, sent_at, first_block_at, done_at)
        finally:
            response.close()

    def close(self) -> None:
        self.sock.close()


def query_payload(sql: str, workspace: str) -> bytes:
    return json.dumps({"sql": sql, "workspace": workspace}).encode()


@dataclass
class LoopResult:
    """What one timed interval of a closed loop measured."""

    exchanges: list[Exchange]
    #: from the common start to the last kept response
    seconds: float
    errors: list[str]


class ClosedLoop:
    """``clients`` keep-alive connections, each sending its next request when
    the last one returned.

    The connections outlive a timed interval, so a run can alternate
    intervals of this loop with other work without paying connection
    set-up (and the different first-request cost) every time.
    """

    def __init__(self, port: int, payload: bytes, clients: int) -> None:
        self.payload = payload
        self.clients: list[Client] = []
        try:
            for _ in range(clients):
                self.clients.append(Client(port))
        except BaseException:
            self.close()
            raise

    def warm_up(self, seconds: float, requests: int = 5) -> None:
        """At least ``requests`` requests and ``seconds`` seconds, discarded."""
        self._run(seconds, requests)

    def run(self, seconds: float) -> LoopResult:
        """One timed interval; all clients start together."""
        return self._run(seconds, 1)

    def _run(self, seconds: float, min_requests: int) -> LoopResult:
        barrier = threading.Barrier(len(self.clients) + 1)
        kept: list[list[Exchange]] = [[] for _ in self.clients]
        errors: list[str] = []

        def work(index: int) -> None:
            # A thread boundary: whatever goes wrong is recorded, so one
            # broken client cannot hang the run.
            client = self.clients[index]
            try:
                # Untimed: the first request after an idle connection skips
                # the delayed-ACK stall every later one pays.
                client.post("/query", self.payload)
            except Exception as exc:  # noqa: BLE001 — reported through ``errors``
                errors.append(f"client {index} wake-up: {exc!r}")
            barrier.wait()
            deadline = time.perf_counter() + seconds
            try:
                while not errors and (
                    len(kept[index]) < min_requests or time.perf_counter() < deadline
                ):
                    kept[index].append(client.post("/query", self.payload))
            except Exception as exc:  # noqa: BLE001 — reported through ``errors``
                errors.append(f"client {index}: {exc!r}")

        threads = [
            threading.Thread(target=work, args=(index,)) for index in range(len(self.clients))
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        started = time.perf_counter()
        for thread in threads:
            thread.join()
        exchanges = [exchange for mine in kept for exchange in mine]
        ended = max((e.done_at for e in exchanges), default=started)
        return LoopResult(exchanges, ended - started, errors)

    def close(self) -> None:
        for client in self.clients:
            client.close()
