"""The correctness oracle: what every measured operation must have returned.

References come from the program's own slow, direct paths — a fresh
``workspace_catalog`` + ``repro.sql.execute`` for queries, a
``scalar``-kernel run for operators — computed outside the timed
intervals.  Each ``check_*`` returns the list of problems it found;
the caller files them in the :class:`common.Ledger`, where any problem
makes the operation a failed one.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Sequence

from common import weighted_pages

#: ``repro serve`` default ``--buffer``; direct references must plan alike
SERVER_BUFFER_PAGES = 256


def server_system(directory: Path) -> Any:
    """The ``SystemParams`` the served process uses for this workspace."""
    from repro.cost.params import SystemParams
    from repro.workspace import load_manifest

    return SystemParams(
        buffer_pages=SERVER_BUFFER_PAGES,
        page_bytes=load_manifest(directory)["page_bytes"],
    )


def reference_rows(directory: Path, sql: str) -> list[list[Any]]:
    """Rows of ``sql`` from a fresh catalog over the directory, JSON-shaped."""
    from repro.sql import execute
    from repro.workspace import workspace_catalog

    catalog, _ = workspace_catalog(directory)
    result = execute(sql, catalog, server_system(directory))
    return json.loads(json.dumps([list(row) for row in result.rows]))


def response_rows(document: dict[str, Any]) -> list[list[Any]]:
    return [row for block in document["blocks"] for row in block["rows"]]


def check_query(
    status: int, body: bytes, reference: Sequence[Sequence[Any]] | None
) -> tuple[list[str], dict[str, Any] | None]:
    """Problems with one ``/query`` response, and its parsed document.

    ``reference=None`` skips the row comparison (reads between
    mutations, whose expected rows change with every statement) but
    still demands a schema-valid, complete, self-consistent response.
    """
    from repro.errors import ServiceResponseError
    from repro.service import response_from_lines

    if status != 200:
        return [f"HTTP {status}: {body[:200]!r}"], None
    try:
        document = response_from_lines(body.decode("utf-8"))
    except (ServiceResponseError, UnicodeDecodeError) as exc:
        return [f"invalid response: {exc}"], None
    summary = document["summary"]
    if summary is None:
        return [f"stream ended in an error event: {document['error']}"], document
    problems = []
    lines = body.split(b"\n", 2)
    if document["blocks"] and json.loads(lines[1]).get("event") != "block":
        problems.append("second line is not the first block event")
    if reference is not None and response_rows(document) != reference:
        problems.append("rows differ from the direct repro.sql.execute reference")
    phase_total = sum(
        phase["sequential_reads"] + phase["random_reads"]
        for phase in summary["phase_io"].values()
    )
    if phase_total != summary["pages_read"]:
        problems.append(
            f"phase_io sums to {phase_total} pages, pages_read is "
            f"{summary['pages_read']}"
        )
    return problems, document


def query_weighted_pages(document: dict[str, Any]) -> int:
    """Weighted page reads of one query, from its summary's ``phase_io``."""
    return sum(
        weighted_pages(phase["sequential_reads"], phase["random_reads"])
        for phase in document["summary"]["phase_io"].values()
    )


def check_mutation(status: int, body: bytes, last_version: int) -> tuple[list[str], int]:
    """Problems with one ``/mutate`` response, and the version it reports."""
    if status != 200:
        return [f"HTTP {status}: {body[:200]!r}"], last_version
    try:
        payload = json.loads(body)
    except ValueError as exc:
        return [f"mutation response is not JSON: {exc}"], last_version
    problems = []
    if payload.get("changed") is not True:
        problems.append("mutation did not report changed: true")
    version = payload.get("version")
    if not isinstance(version, int) or version <= last_version:
        problems.append(f"version {version!r} does not exceed {last_version}")
        version = last_version
    return problems, version


def check_operator(result: Any, reference: Any) -> list[str]:
    """An operator run must match the scalar-kernel run of the same join."""
    problems = []
    if result.matches != reference.matches:
        problems.append(f"{result.algorithm} matches differ from the scalar reference")
    if result.io.by_extent != reference.io.by_extent:
        problems.append(f"{result.algorithm} io.by_extent differs from the scalar reference")
    return problems
