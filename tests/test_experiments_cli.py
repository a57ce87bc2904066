"""Tests for the experiment registry and the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments import SCALES, available_experiments, run_experiment
from repro.experiments.runner import ExperimentTable, register_sweep


class TestRegistry:
    def test_all_experiments_registered(self):
        assert available_experiments() == [
            "E1",
            "E2",
            "E3",
            "E4",
            "E5",
            "E6",
            "E7",
            "E8",
            "E9",
            "E10",
            "E11",
            "E12",
            "E13",
            "E14",
            "E15",
            "E16",
            "E17",
        ]

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            run_experiment("E99")

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            run_experiment("E1", scale="huge")

    def test_scales_constant_is_the_single_source_of_truth(self):
        assert SCALES == ("small", "medium", "large")
        parser = build_parser()
        assert parser.parse_args(["run", "E1", "--scale", "large"]).scale == "large"
        assert parser.parse_args(["run-all", "--scale", "large"]).scale == "large"

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_sweep("E1", plan=lambda scale: [], finalize=lambda scale, payloads: None)(
                lambda scale, seed, params: None
            )

    def test_case_insensitive_lookup(self):
        table = run_experiment("e12", scale="small")
        assert table.experiment_id == "E12"


class TestExperimentTables:
    def test_table_markdown_contains_header_and_rows(self):
        table = ExperimentTable("EX", "demo", ["a", "b"], [[1, 2], [3, 4]], notes=["note"])
        markdown = table.to_markdown()
        assert "### EX — demo" in markdown
        assert "| a | b |" in markdown
        assert "| 3 | 4 |" in markdown
        assert "- note" in markdown

    @pytest.mark.parametrize("experiment_id", ["E1", "E9", "E10", "E12", "E13", "E14", "E15"])
    def test_small_scale_experiments_run(self, experiment_id):
        table = run_experiment(experiment_id, scale="small")
        assert table.experiment_id == experiment_id
        assert table.rows
        assert len(table.headers) == len(table.rows[0])

    def test_lower_bound_experiments_verify_lemmas(self):
        table = run_experiment("E7", scale="small")
        # columns: ..., classification correct, partition ok, ...
        correct_column = table.headers.index("classification correct")
        partition_column = table.headers.index("Lemma 7.3 partition ok")
        assert all(row[correct_column] for row in table.rows)
        assert all(row[partition_column] for row in table.rows)

    def test_skeleton_experiment_reports_preservation(self):
        table = run_experiment("E9", scale="small")
        preserving = table.headers.index("distance preserving")
        assert all(row[preserving] for row in table.rows)

    def test_scenario_families_stay_exact(self):
        table = run_experiment("E13", scale="small")
        exact = table.headers.index("exact")
        scenarios = {row[0] for row in table.rows}
        assert {"power-law", "grid+highways", "hierarchical-isp"} <= scenarios
        assert all(row[exact] for row in table.rows)

    def test_robustness_sweep_stays_exact_and_pins_fault_free_rows(self):
        table = run_experiment("E15", scale="small")
        exact = table.headers.index("exact")
        delivered = table.headers.index("delivered")
        rate = table.headers.index("drop rate")
        overhead = table.headers.index("overhead")
        dropped = table.headers.index("dropped")
        assert all(row[exact] and row[delivered] for row in table.rows)
        # drop_rate=0 rows are the pinned fault-free identity: overhead
        # exactly 1 and not a single message dropped.
        zero_rows = [row for row in table.rows if row[rate] == 0.0]
        assert zero_rows
        assert all(row[overhead] == 1.0 and row[dropped] == 0 for row in zero_rows)
        # Lossy rows really injected faults.
        lossy = [row for row in table.rows if row[rate] > 0.0]
        assert lossy and all(row[dropped] > 0 for row in lossy)

    def test_session_amortization_agrees_and_amortizes(self):
        table = run_experiment("E14", scale="small")
        agree = table.headers.index("answers agree")
        assert all(row[agree] for row in table.rows)
        amortized = table.headers.index("amortized rounds")
        cold = table.headers.index("cold-equivalent rounds")
        totals = [row for row in table.rows if row[0] == "TOTAL"]
        assert totals and totals[0][amortized] < totals[0][cold]


class TestCLI:
    def test_parser_covers_every_command(self):
        parser = build_parser()
        assert parser.parse_args(["list"]).command == "list"
        assert parser.parse_args(["run", "E1"]).experiment == "E1"
        assert parser.parse_args(["run-all", "--scale", "small"]).scale == "small"
        query_args = parser.parse_args(["query", "--n", "64", "--seed", "2", "--repeat", "1"])
        assert (query_args.command, query_args.n, query_args.repeat) == ("query", 64, 1)
        assert query_args.mutate == 0
        assert parser.parse_args(["query", "--mutate", "2"]).mutate == 2
        sweep_args = parser.parse_args(
            ["sweep", "--jobs", "4", "--resume", "--only", "E3,E14", "--scale", "medium"]
        )
        assert (sweep_args.command, sweep_args.jobs, sweep_args.resume) == ("sweep", 4, True)
        assert sweep_args.only == "E3,E14"
        regress_args = parser.parse_args(
            ["regress", "--baseline", "benchmarks/BENCH_baseline.json", "--wall-tolerance", "0.5"]
        )
        assert (regress_args.command, regress_args.wall_tolerance) == ("regress", 0.5)
        assert regress_args.current == "BENCH_core.json"

    def test_sweep_command_runs_resumes_and_writes_report(self, tmp_path, capsys):
        store = tmp_path / "artifacts"
        output = tmp_path / "report.md"
        argv = [
            "sweep", "--only", "E6", "--scale", "small", "--jobs", "1",
            "--artifacts", str(store), "--output", str(output),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "2 shard(s)" in first and "0 skipped" in first
        assert (store / "manifest.json").exists()
        assert "### E6" in output.read_text()
        # Second run with --resume skips everything but still renders the report.
        assert main(argv + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert "0 shard(s) executed, 2 skipped" in second

    def test_sweep_rejects_unknown_experiment_and_bad_jobs(self, tmp_path, capsys):
        store = str(tmp_path / "artifacts")
        assert main(["sweep", "--only", "E99", "--artifacts", store]) == 2
        assert main(["sweep", "--only", "E6", "--jobs", "0", "--artifacts", store]) == 2

    def test_sweep_deduplicates_only_list(self, tmp_path, capsys):
        store = str(tmp_path / "artifacts")
        assert main(["sweep", "--only", "E6,e6,E6", "--artifacts", store]) == 0
        out = capsys.readouterr().out
        assert "2 shard(s) across 1 experiment(s)" in out

    def test_regress_command_gates_on_violations(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        current = tmp_path / "current.json"
        report_path = tmp_path / "report.json"
        records = [{"name": "b", "wall_time_seconds": 1.0, "measured_rounds": 10}]
        baseline.write_text(json.dumps(records))
        current.write_text(json.dumps(records))
        argv = ["regress", "--baseline", str(baseline), "--current", str(current)]
        assert main(argv + ["--report", str(report_path)]) == 0
        assert json.loads(report_path.read_text())["status"] == "pass"
        capsys.readouterr()
        # A round-count deviation must fail the gate.
        bad = [{"name": "b", "wall_time_seconds": 1.0, "measured_rounds": 11}]
        current.write_text(json.dumps(bad))
        assert main(argv) == 1
        assert "round-count" in capsys.readouterr().out
        # Unreadable baseline is a usage error, not a crash.
        assert main(["regress", "--baseline", str(tmp_path / "missing.json")]) == 2

    def test_query_command_serves_a_session(self, capsys):
        assert main(["query", "--n", "48", "--seed", "2", "--repeat", "2"]) == 0
        output = capsys.readouterr().out
        assert "amortized" in output and "cold-equiv" in output
        assert "preprocessing rounds (paid once)" in output
        # 2 repeats x 4 queries per pass.
        assert "8 queries:" in output

    def test_query_command_rejects_tiny_n(self, capsys):
        assert main(["query", "--n", "1"]) == 2

    def test_query_command_with_mutations_repairs_between_passes(self, capsys):
        assert main(["query", "--n", "56", "--seed", "3", "--repeat", "2", "--mutate", "1"]) == 0
        output = capsys.readouterr().out
        assert "mutate edge" in output
        assert "context repairs after mutations:" in output

    def test_query_command_rejects_negative_mutate(self, capsys):
        assert main(["query", "--n", "48", "--mutate", "-1"]) == 2

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "E1" in output and "E12" in output

    def test_run_command_prints_table(self, capsys):
        assert main(["run", "E12", "--scale", "small"]) == 0
        output = capsys.readouterr().out
        assert "E12" in output and "|" in output

    def test_run_unknown_experiment_fails(self, capsys):
        assert main(["run", "E99"]) == 2

    def test_run_all_writes_file(self, tmp_path, capsys):
        # Monkeypatch run_all to a cheap subset via the E12 experiment only is
        # not possible without touching the registry, so use the real thing at
        # small scale but only assert on the output file structure.
        output = tmp_path / "report.md"
        assert main(["run-all", "--scale", "small", "--output", str(output)]) == 0
        text = output.read_text()
        assert text.startswith("# Regenerated experiment tables")
        assert "### E1" in text and "### E12" in text
