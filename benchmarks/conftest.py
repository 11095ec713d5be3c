"""Shared benchmark helpers.

Every benchmark regenerates one of the paper's tables/figure-series and
writes the rendered grid to ``benchmarks/results/<name>.txt`` (they feed
EXPERIMENTS.md), in addition to pytest-benchmark's timing numbers.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def save_table():
    """Write a rendered table to the results directory (and echo it)."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str) -> None:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n[{name}]\n{text}\n")

    return _save


@pytest.fixture(scope="session")
def save_manifest():
    """Write an engine's JSON run manifest to ``BENCH_<name>.json``.

    The manifest is validated against the schema on the way out, so a
    drift between the engine and :func:`validate_manifest` fails the
    benchmark run rather than seeding a corrupt ``BENCH_*.json``.
    """
    from repro.experiments.engine import validate_manifest

    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, engine, extras=None) -> Path:
        path = RESULTS_DIR / f"BENCH_{name}.json"
        engine.write_manifest(path, extras)
        validate_manifest(json.loads(path.read_text()))
        print(f"\n[BENCH_{name}] wrote {path}")
        return path

    return _save
