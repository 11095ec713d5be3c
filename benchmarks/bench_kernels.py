"""K1 — kernel backends on a warm workspace: wall-clock and identity.

The kernel layer's pitch (ROADMAP item 3): with warm workspaces doing
zero derivation, the wall-clock bottleneck is the pure-Python inner
loops, and batch kernels must buy the speedup *without changing a
byte*.  This benchmark builds one workspace, loads it warm once per
backend, executes all four operators per backend, and

* asserts every backend reproduces the scalar reference's matches and
  per-extent I/O exactly,
* asserts the best available backend is ≥5x faster than scalar in
  total (the PR's acceptance target; with numpy absent the stdlib
  backend's ~2.5x is recorded honestly but not gated),
* writes the before/after table to ``results/kernel_speedup.txt``.
"""

import time

from repro.core.hhnl import run_hhnl, run_hhnl_backward
from repro.core.hvnl import run_hvnl
from repro.core.join import TextJoinSpec
from repro.core.vvm import run_vvm
from repro.cost.params import SystemParams
from repro.experiments.tables import format_grid
from repro.kernels import numpy_available
from repro.workloads.synthetic import SyntheticSpec, generate_collection
from repro.workspace import build_workspace, load_workspace

C1_SPEC = SyntheticSpec(
    "kb1", n_documents=800, avg_terms_per_doc=30, vocabulary_size=2000, seed=21
)
C2_SPEC = SyntheticSpec(
    "kb2", n_documents=600, avg_terms_per_doc=25, vocabulary_size=2000, seed=22
)
SYSTEM = SystemParams(buffer_pages=200)
SPEC = TextJoinSpec(lam=5, normalized=True)
OPERATORS = (
    ("HHNL", run_hhnl),
    ("HHNL-BWD", run_hhnl_backward),
    ("HVNL", run_hvnl),
    ("VVM", run_vvm),
)
SPEEDUP_TARGET = 5.0


def _backends():
    names = ["scalar", "stdlib"]
    if numpy_available():
        names.append("numpy")
    return names


def run_backends(workspace_dir):
    """Warm-workspace timings per backend, plus identity bookkeeping."""
    rows = []
    reference = {}
    for kernel in _backends():
        factory = load_workspace(workspace_dir)
        factory.kernel = kernel
        environment = factory.create()
        assert factory.derivation_events() == [], "workspace must load warm"
        run_vvm(environment, SPEC, SYSTEM)  # touch caches once
        for name, runner in OPERATORS:
            start = time.perf_counter()
            result = runner(environment, SPEC, SYSTEM)
            wall = time.perf_counter() - start
            if kernel == "scalar":
                reference[name] = result
            else:
                assert result.matches == reference[name].matches, (kernel, name)
                assert dict(result.io.by_extent) == dict(
                    reference[name].io.by_extent
                ), (kernel, name)
            rows.append(
                {
                    "operator": name,
                    "kernel": kernel,
                    "codec": "raw",
                    "wall_seconds": wall,
                    "matches": sum(len(hits) for hits in result.matches.values()),
                    "pages_read": result.io.total_reads,
                }
            )
    return rows


def test_kernel_speedup(benchmark, tmp_path, save_table):
    c1 = generate_collection(C1_SPEC)
    c2 = generate_collection(C2_SPEC)
    build_workspace(tmp_path, c1, c2)

    rows = benchmark.pedantic(run_backends, args=(tmp_path,), rounds=1, iterations=1)

    totals = {}
    for row in rows:
        totals[row["kernel"]] = totals.get(row["kernel"], 0.0) + row["wall_seconds"]
    best = min((k for k in totals if k != "scalar"), key=totals.get)
    speedup = totals["scalar"] / totals[best]

    table_rows = [
        {
            "backend": kernel,
            "total ms": round(total * 1000, 1),
            "speedup vs scalar": round(totals["scalar"] / total, 2),
        }
        for kernel, total in totals.items()
    ]
    save_table(
        "kernel_speedup",
        format_grid(
            table_rows,
            columns=["backend", "total ms", "speedup vs scalar"],
            title=(
                "K1 — warm-workspace wall-clock, all four operators "
                "(before = scalar, after = batch kernels)"
            ),
        ),
    )

    # The acceptance gate needs the accelerated backend; a stdlib-only
    # interpreter still records its honest figure above.
    if numpy_available():
        assert speedup >= SPEEDUP_TARGET, totals
    else:
        assert speedup > 1.5, totals
