"""The source budget: ``src/repro`` may not grow past ``BUDGET_src.json``.

The budget holds the physical line count of every ``*.py`` file per
top-level package under ``src/repro`` (modules directly in the package
count under ``"(top-level)"``) and their total.  A deletion lowers the
numbers in the same commit; a growth raises them only alongside a
``CHANGES.md`` line that says why (ROADMAP rule viii).
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "repro"
BUDGET = json.loads((ROOT / "BUDGET_src.json").read_text())
RULE = (
    "ROADMAP rule viii: a change that grows src/ says why in CHANGES.md "
    "and raises BUDGET_src.json in the same commit"
)


def line_counts() -> dict[str, int]:
    """Physical ``*.py`` lines per top-level package under ``src/repro``."""
    counts: dict[str, int] = {}
    for path in SOURCE.rglob("*.py"):
        parts = path.relative_to(SOURCE).parts
        package = parts[0] if len(parts) > 1 else "(top-level)"
        counts[package] = counts.get(package, 0) + len(path.read_text().splitlines())
    return counts


COUNTS = line_counts()


@pytest.mark.parametrize("package", sorted(set(COUNTS) | set(BUDGET["packages"])))
def test_package_within_budget(package):
    count = COUNTS.get(package, 0)
    budget = BUDGET["packages"].get(package, 0)
    assert count <= budget, (
        f"src/repro package {package!r} has {count} lines, over its budget "
        f"of {budget} ({RULE})"
    )


def test_total_within_budget():
    total = sum(COUNTS.values())
    assert total <= BUDGET["total"], (
        f"src/repro has {total} lines in total, over its budget of "
        f"{BUDGET['total']} ({RULE})"
    )

