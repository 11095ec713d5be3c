"""Each analysis rule fires exactly where its fixture violates it.

The fixtures under ``fixtures/repro/`` mimic the package layout
(``fixtures/repro/cost/...`` resolves to ``repro.cost.*``) so the
path-scoped rules apply to them exactly as they apply to the real tree.
"""

from pathlib import Path

import pytest

from repro.analysis.engine import analyze_paths
from repro.analysis.rules import default_rules

FIXTURES = Path(__file__).parent / "fixtures" / "repro"


def findings_for(relative: str, rule_id: str | None = None):
    report = analyze_paths([FIXTURES / relative], default_rules())
    found = report.findings
    if rule_id is not None:
        found = tuple(f for f in found if f.rule_id == rule_id)
    return report, found


class TestRuleFiring:
    def test_units_rule(self):
        report, found = findings_for("units_bad.py", "RA-UNITS")
        assert [f.line for f in found] == [6, 7, 8, 9]
        assert "adds bytes" in found[0].message
        assert "subtracts terms" in found[1].message
        assert "assigns a bytes quantity" in found[2].message
        assert "compares a pages quantity" in found[3].message
        # conversions through arithmetic are never flagged
        assert all(f.line != 10 for f in found)
        # line 11 is suppressed, not open
        assert [f.line for f in report.suppressed] == [11]

    def test_cost_purity_rule(self):
        _, found = findings_for("cost/impure.py", "RA-COST-PURITY")
        assert [f.line for f in found] == [3, 4, 11, 12, 13]
        messages = "\n".join(f.message for f in found)
        assert "repro.storage.disk" in messages
        assert "repro.core" in messages
        assert "print()" in messages
        assert "mutates parameter 'system'" in messages
        assert "history.append()" in messages

    def test_core_io_rule(self):
        _, found = findings_for("core/raw_io.py", "RA-CORE-IO")
        assert [f.line for f in found] == [3, 8]
        assert "physical layer" in found[0].message
        assert "without charging IOStats" in found[1].message
        # charged_read (line 14) reads payloads after charging — clean
        assert all(f.line < 11 for f in found)

    def test_core_io_rule_counts_a_charge_run(self):
        # record_run charges; scan_charges only prices
        _, found = findings_for("core/run_io.py", "RA-CORE-IO")
        assert [f.line for f in found] == [7]
        assert "without charging IOStats" in found[0].message

    def test_context_rule(self):
        _, found = findings_for("core/private_counter.py", "RA-CONTEXT")
        assert [f.line for f in found] == [8, 15]
        assert "private IOStats" in found[0].message
        assert "private TracingIOStats" in found[1].message
        # on_the_books (line 20) only derives views of the shared counter
        assert all(f.line < 20 for f in found)

    def test_context_rule_covers_workspace(self):
        # A workspace loader keeping private I/O books would let "warm"
        # environments report different numbers than cold ones.
        _, found = findings_for("workspace/private_counter.py")
        rule_ids = {f.rule_id for f in found}
        assert "RA-CONTEXT" in rule_ids
        assert "RA-CORE-IO" in rule_ids  # the physical-layer import
        context = [f for f in found if f.rule_id == "RA-CONTEXT"]
        assert [f.line for f in context] == [9]
        assert "private IOStats" in context[0].message
        # load_through_factory (line 15+) stays clean
        assert all(f.line < 15 for f in found)

    def test_context_rule_covers_kernels(self):
        # A batch kernel with private I/O books (or uncharged payload
        # reads) would hide pages behind the byte-identity contract.
        _, found = findings_for("kernels/private_counter.py")
        rule_ids = {f.rule_id for f in found}
        assert "RA-CONTEXT" in rule_ids
        assert "RA-CORE-IO" in rule_ids  # the physical-layer import
        context = [f for f in found if f.rule_id == "RA-CONTEXT"]
        assert [f.line for f in context] == [11]
        assert "private IOStats" in context[0].message
        core_io = [f for f in found if f.rule_id == "RA-CORE-IO"]
        assert any("physical layer" in f.message for f in core_io)
        assert any("without charging" in f.message for f in core_io)
        # pure_batch_update (line 20+) stays clean
        assert all(f.line < 20 for f in found)

    def test_frozen_rule(self):
        _, found = findings_for("frozen_bad.py", "RA-FROZEN")
        assert [f.line for f in found] == [7]
        assert "WobblyParams" in found[0].message

    def test_float_eq_rule(self):
        _, found = findings_for("cost/floats_bad.py", "RA-FLOAT-EQ")
        assert [f.line for f in found] == [6, 8]

    def test_float_eq_rule_is_scoped(self):
        # The same comparisons outside cost/similarity code are legal:
        # the discrete layers may keep exact sentinels.
        source = FIXTURES / "cost" / "floats_bad.py"
        scoped = analyze_paths([source], default_rules())
        assert any(f.rule_id == "RA-FLOAT-EQ" for f in scoped.findings)

    def test_errors_rule(self):
        _, found = findings_for("errors_bad.py", "RA-ERRORS")
        assert [f.line for f in found] == [9]
        assert "ValueError" in found[0].message
        # CostModelError and NotImplementedError raises stay legal
        assert all(f.line not in (11, 12) for f in found)

    def test_public_api_rule(self):
        _, found = findings_for("api_bad.py", "RA-PUBLIC-API")
        assert [f.line for f in found] == [8, 12, 12]
        messages = "\n".join(f.message for f in found)
        assert "'undocumented' is exported" in messages
        assert "'ghost'" in messages
        assert "more than once" in messages

    def test_module_docstring_required(self):
        _, found = findings_for("no_docstring.py", "RA-PUBLIC-API")
        assert [f.line for f in found] == [1]
        assert "no docstring" in found[0].message

    def test_assert_rule(self):
        _, found = findings_for("asserts_bad.py", "RA-ASSERT")
        assert [f.line for f in found] == [6]
        assert "-O" in found[0].message

    def test_cost_purity_transitive(self):
        # Transitive impurity needs both modules in the program model:
        # the leak is in repro.index.stats, the caller in repro.cost.
        report = analyze_paths(
            [FIXTURES / "cost" / "transitive.py", FIXTURES / "index" / "stats.py"],
            default_rules(),
        )
        found = [f for f in report.findings if f.rule_id == "RA-COST-PURITY"]
        assert [f.line for f in found] == [11]
        assert "leaky_cost -> repro.index.stats.dump_weights" in found[0].message
        assert "calls print()" in found[0].message
        # pure_cost reaches only the pure helper and stays clean
        assert all("pure_cost" not in f.message for f in found)

    def test_parallel_safety_rule(self):
        _, found = findings_for("experiments/worker_bad.py", "RA-PAR-SAFE")
        assert [f.line for f in found] == [35, 35, 36, 37, 38]
        messages = [f.message for f in found]
        assert "mutates module-level state '_RESULTS'" in messages[1]
        assert "stale copy" in messages[0]
        assert "stale copy" in messages[2]
        assert "IOStats '_SHARED_STATS'" in messages[3]
        assert "cannot be resolved" in messages[4]
        # safe_worker (line 39) touches no module state — clean
        assert all(f.line != 39 for f in found)

    def test_stream_discipline_rule(self):
        _, found = findings_for("exec/stream_bad.py", "RA-STREAM")
        assert [f.line for f in found] == [6, 6, 16, 22]
        messages = "\n".join(f.message for f in found)
        assert "never calls ctx.checkpoint()" in messages
        assert "outside any execution_scope()/guard()" in messages
        assert "yields inside a ctx.phase(...)" in messages
        # iter_disciplined (line 26+) satisfies all three contracts
        assert all(f.line < 26 for f in found)

    def test_stream_discipline_rule_counts_a_charge_run(self):
        _, found = findings_for("exec/run_stream_bad.py", "RA-STREAM")
        assert [f.line for f in found] == [6]
        assert "outside any execution_scope()/guard()" in found[0].message
        # a priced scan (line 14) needs no guard; the guarded runs are clean

    def test_cost_purity_counts_a_charge_run(self):
        _, found = findings_for("cost/run_charge.py", "RA-COST-PURITY")
        assert [f.line for f in found] == [14]
        assert "charging_cost -> repro.cost.run_charge._charge" in found[0].message
        assert "charges I/O via .record_run()" in found[0].message
        # pricing_cost reaches only scan_charges and stays clean

    def test_stale_suppression_rule(self):
        _, found = findings_for("stale.py", "RA-STALE-SUPPRESS")
        assert [f.line for f in found] == [6, 7]
        assert "RA-UNITS no longer fires" in found[0].message
        assert "unknown rule id 'RA-GONE'" in found[1].message

    def test_stale_suppression_ignores_deselected_rules(self):
        # Under --select the RA-UNITS suppression cannot be judged (the
        # rule never ran), but an unknown id is dead under any selection.
        report = analyze_paths(
            [FIXTURES / "stale.py"], default_rules(), select=["RA-STALE-SUPPRESS"]
        )
        assert [f.line for f in report.findings] == [7]

    def test_live_suppressions_are_not_stale(self):
        # suppressed_ok.py's comments all absorb findings — no stale noise.
        _, found = findings_for("suppressed_ok.py", "RA-STALE-SUPPRESS")
        assert found == ()


class TestSuppressions:
    def test_suppressed_fixture_is_clean(self):
        report, _ = findings_for("suppressed_ok.py")
        assert report.clean
        # line 11 carries two ids on one comment; both absorb a finding
        assert [f.line for f in report.suppressed] == [5, 10, 11, 11]

    def test_suppression_records_rule_and_stays_visible(self):
        report, _ = findings_for("suppressed_ok.py")
        by_line: dict[int, set[str]] = {}
        for f in report.suppressed:
            by_line.setdefault(f.line, set()).add(f.rule_id)
        assert by_line[5] == {"RA-UNITS"}
        assert by_line[10] == {"RA-ASSERT"}
        # multiple ids on one comment: both are suppressed on line 11
        assert by_line[11] == {"RA-ERRORS", "RA-UNITS"}
        assert all(f.suppressed for f in report.suppressed)

    def test_suppression_is_per_rule(self):
        # The RA-UNITS suppression on units_bad.py line 11 must not leak
        # to the unsuppressed violations above it.
        report, found = findings_for("units_bad.py", "RA-UNITS")
        assert len(found) == 4


class TestWholeFixtureTree:
    def test_every_rule_demonstrated(self):
        report = analyze_paths([FIXTURES], default_rules())
        fired = {f.rule_id for f in report.findings}
        assert fired == {
            "RA-UNITS",
            "RA-COST-PURITY",
            "RA-CORE-IO",
            "RA-CONTEXT",
            "RA-FROZEN",
            "RA-FLOAT-EQ",
            "RA-ERRORS",
            "RA-PUBLIC-API",
            "RA-ASSERT",
            "RA-PAR-SAFE",
            "RA-STREAM",
            "RA-STALE-SUPPRESS",
        }

    @pytest.mark.parametrize("rule_id", [r.rule_id for r in default_rules()])
    def test_select_isolates_one_rule(self, rule_id):
        report = analyze_paths([FIXTURES], default_rules(), select=[rule_id])
        assert report.rule_ids == (rule_id,)
        assert all(f.rule_id == rule_id for f in report.findings)
        assert report.findings  # every rule has at least one fixture hit
