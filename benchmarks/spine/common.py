"""Shared plumbing of the benchmark spine: paths, statistics, scratch space.

Everything the harness knows about the program lives under ``src/`` of
the checkout this file sits in; the harness never imports from the
legacy ``benchmarks/bench_*.py`` scripts.  Importing this module has no
side effects — :func:`require_program` is the explicit entry check.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Sequence

SPINE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SPINE_DIR.parents[1]
SRC_DIR = REPO_ROOT / "src"
MANIFEST_PATH = REPO_ROOT / "BENCHMARK.json"
RESULTS_DIR = SPINE_DIR / "results"
#: scratch space for workspaces and server logs; inside the checkout
#: because the harness may write nowhere else
WORK_DIR = SPINE_DIR / ".work"

#: cost of one random page read in sequential-read units (paper Section 3)
ALPHA = 5

#: metrics that must repeat exactly for one seed, whatever the machine
EXACT_METRICS = ("weighted_pages", "space_amp", "error_rate")


class HarnessError(Exception):
    """The harness cannot run here (missing program, numpy, manifest)."""


def require_program() -> dict[str, Any]:
    """Make ``repro`` importable and return the parsed ``BENCHMARK.json``.

    Raises :class:`HarnessError` when the checkout has no program to
    measure, or when numpy is missing: kernel ``auto`` would then fall
    back to ``stdlib`` without a word and every number would describe a
    different program.
    """
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        raise HarnessError(
            f"no program to measure: {SRC_DIR / 'repro'} is missing; run from "
            "a checkout that holds src/repro"
        )
    if not MANIFEST_PATH.is_file():
        raise HarnessError(f"{MANIFEST_PATH} is missing")
    try:
        import numpy  # noqa: F401
    except ImportError:
        raise HarnessError(
            "numpy is not importable: kernel 'auto' would silently resolve to "
            "'stdlib' and the numbers would not be comparable"
        ) from None
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    return json.loads(MANIFEST_PATH.read_text())


def program_env() -> dict[str, str]:
    """Environment for subprocesses that run the program from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


@contextmanager
def scratch(label: str) -> Iterator[Path]:
    """A private directory under :data:`WORK_DIR`, removed on exit."""
    path = WORK_DIR / f"{label}-{os.getpid()}-{time.time_ns()}"
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_DIR.rmdir()  # only succeeds when no other run is using it
        except OSError:
            pass


# --- statistics ---------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, the rule ``repro.service.metrics`` uses."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def lower_quartile(values: Sequence[float]) -> float:
    """The 25th percentile: what the program costs when the machine is quiet.

    The sandbox's slow phases only ever add time, for seconds at a
    stretch; they move a run's median by 10-20 % and its lower quartile
    by a quarter of that, so timings of repeated identical work report
    this and keep the median beside it in the result file.
    """
    return percentile(values, 25)


def weighted_pages(sequential: int, random: int) -> int:
    """The paper's cost of a read mix: sequential + alpha * random."""
    return sequential + ALPHA * random


# --- memory -------------------------------------------------------------------


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` of a process, in MB: its resident high-water mark."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise HarnessError(f"no VmHWM in /proc/{pid}/status")


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` from its current resident size.

    So that a run's high-water mark is its own when several runs share
    one process (the suite, ``--twice``).  Where the kernel refuses, the
    mark stays the whole process's.
    """
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass


# --- measurements -------------------------------------------------------------


@dataclass
class Measurement:
    """One reported number; ``value`` is None when it could not be taken."""

    value: float | None
    unit: str
    #: samples behind the value (1 for counts and single readings)
    n: int = 1
    #: why there is no value (a public entry point is gone, say)
    reason: str | None = None

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {"value": self.value, "unit": self.unit, "n": self.n}
        if self.reason is not None:
            out["reason"] = self.reason
        return out


# --- accounting ---------------------------------------------------------------


class Ledger:
    """Operations attempted and failed; a failed check fails its operation.

    One *operation* is one thing a user asked for — a request, an
    operator run, a mutation, a compaction.  ``record`` takes the
    problems the oracle found with it (none = success); all checking
    runs outside the timed intervals.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, operation: str, problems: Sequence[str] = ()) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{operation}: {problems[0]}")
        return not problems

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# --- provenance ---------------------------------------------------------------


def git_sha() -> str:
    """HEAD of the checkout, or ``unknown`` outside a git repository."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance(seed: int, kernels: dict[str, str], codec: str) -> dict[str, Any]:
    """What a result file needs for its numbers to be comparable later."""
    import numpy

    return {
        "seed": seed,
        "git_sha": git_sha(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": kernels,
        "codec": codec,
        "alpha": ALPHA,
    }
