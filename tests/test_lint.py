"""Tests for the static invariant linter (repro.analysis.lint).

Each RL rule is exercised against good/bad fixture files under
``tests/lint_fixtures/`` -- the bad fixture proves the rule fires, the good
fixture proves it does not over-fire.  The waiver layer (parsing, stale and
orphan detection, malformed comments), the JSON artifact schema,
``--select`` semantics, the CLI exit codes (plus ``--format github`` and
``--waiver-report``), RL000 parse-failure hardening, the scoped docstring
rule RL009, and the clean-tree self-check (with its wall-clock budget) are
covered alongside.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.analysis.lint import lint_paths
from repro.analysis.lint.diagnostics import Diagnostic
from repro.analysis.lint.waivers import collect_waivers
from repro.cli import main as cli_main

FIXTURES = Path(__file__).parent / "lint_fixtures"
REPO_ROOT = Path(__file__).parent.parent


def lint_fixture(*names: str, select=None):
    """Lint the named fixture files/dirs with the given rule selection."""
    return lint_paths([str(FIXTURES / name) for name in names], select=select)


def codes(report) -> list[str]:
    return [diagnostic.code for diagnostic in report.active]


class TestRL001Determinism:
    def test_fires_on_nondeterminism_sources(self):
        report = lint_fixture("rl001_bad.py", select=["RL001"])
        messages = "\n".join(d.message for d in report.active)
        assert set(codes(report)) == {"RL001"}
        assert "os.urandom" in messages
        assert "random.SystemRandom" in messages
        assert "time.time" in messages
        assert "time.perf_counter" in messages
        assert "id(" in messages or "id()" in messages
        assert len(report.active) >= 10

    def test_quiet_on_seeded_rng(self):
        report = lint_fixture("rl001_good.py", select=["RL001"])
        assert report.active == []

    def test_clocks_exempt_in_benchmarks(self):
        report = lint_fixture("benchmarks/clock_ok.py", select=["RL001"])
        assert report.active == []


class TestRL002Ordering:
    def test_fires_on_set_iteration(self):
        report = lint_fixture("rl002_bad.py", select=["RL002"])
        assert set(codes(report)) == {"RL002"}
        assert len(report.active) >= 5

    def test_quiet_on_sorted_and_order_free_consumers(self):
        report = lint_fixture("rl002_good.py", select=["RL002"])
        assert report.active == []


class TestRL004MetricsAccounting:
    def test_direct_field_writes_fire(self):
        report = lint_fixture("rl004_bad.py", select=["RL004"])
        messages = "\n".join(d.message for d in report.active)
        assert set(codes(report)) == {"RL004"}
        assert len(report.active) == 5
        assert "global_rounds" in messages
        assert "phases" in messages

    def test_accessor_calls_and_reads_are_clean(self):
        report = lint_fixture("rl004_good.py", select=["RL004"])
        assert report.active == []

    def test_accounting_layer_itself_is_exempt(self):
        report = lint_fixture("allowed/repro/hybrid/metrics.py", select=["RL004"])
        assert report.active == []


class TestRL005ForkLabels:
    def test_unauditable_and_duplicate_labels_fire(self):
        report = lint_fixture("rl005_bad.py", select=["RL005"])
        messages = "\n".join(d.message for d in report.active)
        assert set(codes(report)) == {"RL005"}
        # One finding per bad construct in unauditable_labels, plus the dup.
        assert len(report.active) == 6
        assert "skeleton:sampling" in messages  # duplicate label cited

    def test_canonical_literals_and_suffix_idiom_are_clean(self):
        report = lint_fixture("rl005_good.py", select=["RL005"])
        assert report.active == []

    def test_uniqueness_is_cross_file(self):
        # Each file is clean alone, but they share the label "skeleton:sampling":
        # rl005_bad.py sorts first, so the good file's use becomes the duplicate.
        alone = lint_fixture("rl005_good.py", select=["RL005"])
        together = lint_fixture("rl005_good.py", "rl005_bad.py", select=["RL005"])
        assert alone.active == []
        dup_findings = [d for d in together.active if "rl005_good" in d.path]
        assert len(dup_findings) == 1
        assert "skeleton:sampling" in dup_findings[0].message
        assert len(together.active) == 7


class TestRL000ParseFailures:
    def test_syntax_error_is_a_diagnostic_not_a_crash(self):
        report = lint_fixture("rl000_syntax_error.py")
        assert codes(report) == ["RL000"]
        assert "syntax error" in report.active[0].message
        assert report.active[0].line == 2
        assert not report.ok
        assert report.files_checked == 1

    def test_run_continues_past_the_broken_file(self):
        report = lint_fixture("rl000_syntax_error.py", "rl001_bad.py", select=["RL001"])
        found = set(codes(report))
        assert "RL000" in found  # The broken file is reported...
        assert "RL001" in found  # ...and the healthy file still got checked.
        assert report.files_checked == 2

    def test_cli_exits_one_on_unparsable_file(self, capsys):
        code = cli_main(["lint", str(FIXTURES / "rl000_syntax_error.py")])
        out = capsys.readouterr().out
        assert code == 1
        assert "RL000" in out


class TestRL009DocstringDiscipline:
    def test_fires_on_undocumented_serving_surface(self):
        report = lint_fixture("rl009_bad", select=["RL009"])
        messages = "\n".join(d.message for d in report.active)
        assert set(codes(report)) == {"RL009"}
        # Serving module: no module docstring, undocumented class +
        # function, and a class docstring without its DESIGN.md anchor.
        assert "module on the serving surface has no docstring" in messages
        assert "'UndocumentedHandler' has no docstring" in messages
        assert "'UnanchoredHandler' must cross-reference" in messages
        assert "'describe' has no docstring" in messages
        assert "'public_entry' has no docstring" in messages
        # Session query surface: documented-but-unanchored and undocumented.
        assert "query-surface method 'sssp' must cross-reference" in messages
        assert "'diameter' has no docstring" in messages

    def test_quiet_on_documented_surface_and_private_names(self):
        report = lint_fixture("rl009_good", select=["RL009"])
        assert report.active == []

    def test_out_of_scope_files_are_ignored(self):
        # A module far from the serving surface never triggers RL009,
        # documented or not.
        report = lint_fixture("rl001_bad.py", select=["RL009"])
        assert report.active == []


class TestWaivers:
    def test_waiver_suppresses_and_records(self):
        report = lint_fixture("waiver_ok.py", select=["RL001"])
        assert report.active == []
        assert len(report.waived) == 1
        waived = report.waived[0]
        assert waived.code == "RL001"
        assert waived.waiver_reason == "report footer timestamp; display only"
        assert report.ok

    def test_stale_waiver_fails_the_run(self):
        report = lint_fixture("waiver_stale.py", select=["RL001"])
        assert codes(report) == ["RL091"]
        assert "stale waiver" in report.active[0].message
        assert not report.ok

    def test_stale_check_skipped_for_unselected_codes(self):
        # The RL001 checker never ran, so its waiver cannot be judged stale.
        report = lint_fixture("waiver_stale.py", select=["RL002"])
        assert report.active == []

    def test_waiver_naming_no_registered_rule_fires(self):
        # RL077 names no checker, so no run could ever use or judge the
        # waiver; it is reported whichever rules --select picks.
        for select in (None, ["RL001"], ["RL002"]):
            report = lint_fixture("waiver_orphan.py", select=select)
            assert codes(report) == ["RL090"]
            assert "names no registered rule: RL077" in report.active[0].message
            assert not report.ok

    def test_malformed_waivers_fire_and_do_not_suppress(self):
        report = lint_fixture("waiver_malformed.py", select=["RL001"])
        assert sorted(set(codes(report))) == ["RL001", "RL090"]
        assert codes(report).count("RL090") == 3
        assert codes(report).count("RL001") == 3  # nothing got suppressed
        assert report.waived == []

    def test_trailing_comment_targets_its_own_line(self):
        waivers, malformed = collect_waivers(
            "x.py", "value = risky()  # repro-lint: waive[RL001] -- reviewed\n"
        )
        assert malformed == []
        assert len(waivers) == 1
        assert waivers[0].comment_line == 1
        assert waivers[0].target_line == 1

    def test_standalone_comment_targets_next_line(self):
        waivers, _ = collect_waivers(
            "x.py",
            "# repro-lint: waive[RL001,RL002] -- reviewed pair\nvalue = risky()\n",
        )
        assert len(waivers) == 1
        assert waivers[0].target_line == 2
        assert waivers[0].codes == ("RL001", "RL002")
        assert waivers[0].reason == "reviewed pair"


class TestReportAndSelect:
    def test_diagnostic_format_is_canonical(self):
        diagnostic = Diagnostic("a/b.py", 3, 7, "RL001", "uses os.urandom")
        assert diagnostic.format() == "a/b.py:3:7 RL001 uses os.urandom"

    def test_json_schema(self):
        report = lint_fixture("waiver_ok.py", "waiver_stale.py", select=["RL001"])
        document = json.loads(json.dumps(report.as_dict()))
        assert document["version"] == 1
        assert document["selected"] == ["RL001"]
        assert document["files_checked"] == 2
        assert document["summary"] == {"active": 1, "waived": 1, "ok": False}
        for record in document["diagnostics"]:
            assert set(record) >= {"path", "line", "col", "code", "message", "waived"}
            assert ("waiver_reason" in record) == record["waived"]

    def test_unknown_select_code_raises(self):
        # RL006 and RL008 were retired; selecting them must fail loudly.
        for code in ("RL999", "RL006", "RL008"):
            with pytest.raises(ValueError, match=code):
                lint_fixture("rl001_good.py", select=[code])

    def test_select_filters_other_rules_out(self):
        report = lint_fixture("rl001_bad.py", select=["RL002"])
        assert report.active == []


class TestCLI:
    def test_exit_zero_on_clean_path(self, capsys):
        code = cli_main(["lint", str(FIXTURES / "rl001_good.py")])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 finding(s)" in out

    def test_exit_one_on_findings(self, capsys):
        code = cli_main(["lint", str(FIXTURES / "rl001_bad.py"), "--select", "RL001"])
        out = capsys.readouterr().out
        assert code == 1
        assert "RL001" in out

    def test_exit_two_on_unknown_select(self, capsys):
        for unknown in ("RL999", "RL006"):
            code = cli_main(["lint", str(FIXTURES / "rl001_good.py"), "--select", unknown])
            err = capsys.readouterr().err
            assert code == 2
            assert f"unknown checker code(s): {unknown}" in err

    def test_json_output_parses(self, capsys):
        code = cli_main(["lint", str(FIXTURES / "waiver_ok.py"), "--format", "json"])
        document = json.loads(capsys.readouterr().out)
        assert code == 0
        assert document["summary"]["ok"] is True
        assert document["summary"]["waived"] == 1

    def test_show_waived_prints_suppressed_findings(self, capsys):
        code = cli_main(["lint", str(FIXTURES / "waiver_ok.py"), "--show-waived"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[waived: report footer timestamp; display only]" in out

    def test_github_format_emits_error_annotations(self, capsys):
        code = cli_main(
            ["lint", str(FIXTURES / "rl001_bad.py"), "--select", "RL001", "--format", "github"]
        )
        out = capsys.readouterr().out
        assert code == 1
        first = out.splitlines()[0]
        assert first.startswith("::error file=")
        assert ",line=" in first and ",col=" in first
        assert "::RL001 " in first

    def test_github_format_omits_waived_findings(self, capsys):
        code = cli_main(["lint", str(FIXTURES / "waiver_ok.py"), "--format", "github"])
        out = capsys.readouterr().out
        assert code == 0
        assert "::error" not in out
        assert "0 finding(s)" in out

    def test_waiver_report_lists_reason_and_location(self, capsys):
        code = cli_main(["lint", str(FIXTURES / "waiver_ok.py"), "--waiver-report"])
        out = capsys.readouterr().out
        assert code == 0
        assert "report footer timestamp; display only" in out
        assert "[RL001]" in out
        assert "waivers: 1 reviewed" in out

    def test_waiver_report_json_schema(self, capsys):
        code = cli_main(
            ["lint", str(FIXTURES / "waiver_ok.py"), "--waiver-report", "--format", "json"]
        )
        document = json.loads(capsys.readouterr().out)
        assert code == 0
        assert document["version"] == 1
        assert document["count"] == 1
        record = document["waivers"][0]
        assert set(record) == {"path", "comment_line", "target_line", "codes", "reason"}
        assert record["codes"] == ["RL001"]

    def test_waiver_report_covers_the_real_tree(self, capsys):
        code = cli_main(
            [
                "lint",
                str(REPO_ROOT / "src" / "repro"),
                "--waiver-report",
                "--format",
                "json",
            ]
        )
        document = json.loads(capsys.readouterr().out)
        assert code == 0
        # The tree carries the reviewed RL001/RL005 exceptions; every one
        # must surface here with a non-empty reason.
        assert document["count"] >= 12
        assert all(record["reason"] for record in document["waivers"])
        flagged = {code for record in document["waivers"] for code in record["codes"]}
        assert {"RL001", "RL005"} <= flagged


class TestCleanTree:
    def test_source_tree_lints_clean_within_budget(self):
        start = time.monotonic()
        report = lint_paths([str(REPO_ROOT / "src" / "repro")])
        elapsed = time.monotonic() - start
        assert report.active == [], "\n" + report.format_text()
        assert report.files_checked > 50
        # Linting the whole tree (including RL005's cross-file label pass)
        # must not quietly blow up CI time; the budget is generous.
        assert elapsed < 10.0, f"full-tree lint took {elapsed:.1f}s (budget 10s)"
