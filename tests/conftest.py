"""Shared fixtures: small deterministic collections and environments.

Collection sizes are chosen so the whole suite stays fast while still
exercising multi-page layouts, buffer eviction and multi-pass VVM: the
test geometry uses small pages (512B-1024B) so "big" is cheap.

Hypothesis runs under named profiles instead of per-test ``@settings``
boilerplate: ``dev`` (the default) keeps the property suites fast for
tier-1, ``ci`` digs deeper.  Select with ``HYPOTHESIS_PROFILE=ci``.

The join-service suites (``tests/service/``) get their fixtures here
too: a session-scoped built workspace, ``free_port`` and a
``running_service`` handle that boots a real :mod:`repro.service`
HTTP server on an ephemeral port in a background thread and tears it
down afterwards.  Everything under ``tests/service/`` is auto-tagged
with the ``service`` marker.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import settings as hypothesis_settings

hypothesis_settings.register_profile("dev", max_examples=25, deadline=None)
hypothesis_settings.register_profile("ci", max_examples=150, deadline=None)
hypothesis_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))

from repro.core.join import JoinEnvironment
from repro.cost.params import SystemParams
from repro.storage.pages import PageGeometry
from repro.text.collection import DocumentCollection
from repro.workloads.synthetic import SyntheticSpec, generate_collection

SMALL_PAGE = 512


@pytest.fixture(scope="session")
def tiny_pair() -> tuple[DocumentCollection, DocumentCollection]:
    """Two hand-written collections with known similarities."""
    c1 = DocumentCollection.from_term_lists(
        "tiny1",
        [
            [1, 2, 3],        # doc 0
            [2, 2, 4],        # doc 1: term 2 twice
            [5],              # doc 2
            [1, 1, 1, 6, 7],  # doc 3: term 1 three times
        ],
    )
    c2 = DocumentCollection.from_term_lists(
        "tiny2",
        [
            [2, 3],     # doc 0
            [1, 5, 8],  # doc 1
            [9],        # doc 2: no overlap with c1
        ],
    )
    return c1, c2


@pytest.fixture(scope="session")
def synthetic_pair() -> tuple[DocumentCollection, DocumentCollection]:
    """Mid-sized Zipfian pair for executor/integration tests."""
    c1 = generate_collection(
        SyntheticSpec("syn1", n_documents=120, avg_terms_per_doc=18,
                      vocabulary_size=600, seed=11)
    )
    c2 = generate_collection(
        SyntheticSpec("syn2", n_documents=90, avg_terms_per_doc=14,
                      vocabulary_size=600, seed=22)
    )
    return c1, c2


@pytest.fixture()
def small_geometry() -> PageGeometry:
    return PageGeometry(SMALL_PAGE)


@pytest.fixture()
def synthetic_env(synthetic_pair, small_geometry) -> JoinEnvironment:
    c1, c2 = synthetic_pair
    return JoinEnvironment(c1, c2, small_geometry)


@pytest.fixture()
def small_system() -> SystemParams:
    return SystemParams(buffer_pages=16, page_bytes=SMALL_PAGE, alpha=5.0)


@pytest.fixture()
def roomy_system() -> SystemParams:
    return SystemParams(buffer_pages=256, page_bytes=SMALL_PAGE, alpha=5.0)


@pytest.fixture()
def file_reads(monkeypatch):
    """Start recording every file opened for reading; returns the path list.

    Spies on ``Path.open`` (which ``read_bytes``/``read_text`` go through)
    and the builtin ``open``; call ``monkeypatch.undo()`` to stop early.
    """
    import builtins

    def start() -> list[str]:
        reads: list[str] = []
        real_open, real_path_open = builtins.open, Path.open

        def note(file, mode):
            if "r" in mode and "+" not in mode:
                reads.append(str(file))

        def spy_open(file, mode="r", *args, **kwargs):
            note(file, mode)
            return real_open(file, mode, *args, **kwargs)

        def spy_path_open(path, mode="r", *args, **kwargs):
            note(path, mode)
            return real_path_open(path, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", spy_open)
        monkeypatch.setattr(Path, "open", spy_path_open)
        return reads

    return start


# --- join-service fixtures (tests/service/) -----------------------------


def pytest_collection_modifyitems(items):
    """Auto-tag everything under ``tests/service/`` with the service marker."""
    for item in items:
        if "tests/service/" in str(item.fspath).replace(os.sep, "/"):
            item.add_marker(pytest.mark.service)


@pytest.fixture()
def free_port() -> int:
    """An ephemeral TCP port that was free at fixture time."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.fixture(scope="session")
def service_workspace(tmp_path_factory) -> Path:
    """One pre-built workspace shared by every service test."""
    from repro.workloads.synthetic import SyntheticSpec as _Spec
    from repro.workspace import build_workspace

    directory = tmp_path_factory.mktemp("service-ws") / "ws"
    c1 = generate_collection(
        _Spec("svc-c1", n_documents=40, avg_terms_per_doc=8,
              vocabulary_size=150, seed=11)
    )
    c2 = generate_collection(
        _Spec("svc-c2", n_documents=30, avg_terms_per_doc=10,
              vocabulary_size=150, seed=22)
    )
    build_workspace(directory, c1, c2)
    return directory


@dataclass
class ServiceHandle:
    """A running service plus tiny HTTP helpers for the test suites."""

    service: object
    server: object
    base_url: str

    def get(self, path: str) -> tuple[int, dict]:
        """GET a JSON endpoint; returns (status, parsed body)."""
        try:
            with urllib.request.urlopen(self.base_url + path, timeout=30) as r:
                return r.status, json.loads(r.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def post(self, path: str, payload, *, raw: bool = False) -> tuple[int, str]:
        """POST a JSON body; returns (status, raw response text)."""
        data = payload if raw else json.dumps(payload).encode()
        request = urllib.request.Request(self.base_url + path, data=data)
        try:
            with urllib.request.urlopen(request, timeout=30) as r:
                return r.status, r.read().decode()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read().decode()

    def query(self, payload) -> tuple[int, dict]:
        """POST /query and fold the reply into one response document.

        A 200 stream is reassembled with
        :func:`repro.service.schema.response_from_lines`; a mapped
        error status parses as the single JSON document it is.
        """
        from repro.service import response_from_lines

        status, text = self.post("/query", payload)
        if status == 200 or "\n" in text.strip():
            return status, response_from_lines(text)
        return status, json.loads(text)


@pytest.fixture()
def running_service(service_workspace) -> ServiceHandle:
    """A live HTTP join service over the shared workspace."""
    from repro.service import JoinService, make_server

    service = JoinService({"ws": service_workspace}, max_workers=4)
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    handle = ServiceHandle(
        service=service, server=server,
        base_url=f"http://127.0.0.1:{server.port}",
    )
    yield handle
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
