"""Tests for the parallel resumable experiment engine, the artifact store and
the benchmark regression gate."""

import json
import multiprocessing

import pytest

from repro.analysis.regression import (
    compare_benchmarks,
    compare_manifests,
    median_walls,
    run_regression,
)
from repro.experiments import (
    ArtifactStore,
    ExperimentEngine,
    Shard,
    assemble_tables,
    execute_shard,
    plan_shards,
    run_experiment,
    sweeps,
)
from repro.experiments.engine import replica_seeds
from repro.experiments.runner import ShardPlan, register_sweep, unregister

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

#: Cheap experiments used by the end-to-end engine tests (sub-second total).
CHEAP = ["E6", "E12"]


@pytest.fixture(scope="module")
def serial_small_manifest(tmp_path_factory):
    """The manifest of one serial run of every registered shard at small scale."""
    store = ArtifactStore(tmp_path_factory.mktemp("serial"))
    assert ExperimentEngine(store, jobs=1).run(plan_shards(scale="small")).ok
    return store.build_manifest()


@pytest.fixture
def synthetic_sweep():
    """A temporary registered sweep with fast, deterministic, seed-using shards."""

    def plan(scale):
        return [
            ShardPlan(family=f"unit-{index}", seed=100 + index, params={"index": index})
            for index in range(4)
        ]

    def finalize(scale, payloads):
        from repro.experiments.runner import ExperimentTable, flatten_rows

        return ExperimentTable("T99", "synthetic", ["index", "seed"], flatten_rows(payloads))

    @register_sweep("T99", plan=plan, finalize=finalize, reseedable=True)
    def run_shard(scale, seed, params):
        return [[params["index"], seed]]

    yield "T99"
    unregister("T99")


@pytest.fixture
def failing_sweep():
    def plan(scale):
        return [
            ShardPlan(family=f"f{index}", seed=index, params={"index": index})
            for index in range(3)
        ]

    def finalize(scale, payloads):
        from repro.experiments.runner import ExperimentTable, flatten_rows

        return ExperimentTable("T98", "failing", ["index"], flatten_rows(payloads))

    @register_sweep("T98", plan=plan, finalize=finalize)
    def run_shard(scale, seed, params):
        if params["index"] == 1:
            raise RuntimeError("shard blew up")
        return [[params["index"]]]

    yield "T98"
    unregister("T98")


class TestPlanning:
    def test_plan_covers_every_registered_experiment(self):
        shards = plan_shards(scale="small")
        experiments = {shard.experiment for shard in shards}
        assert {"E1", "E2", "E5", "E12", "E13", "E14"} <= experiments
        # Every sweep decomposes into at least one shard, E1 into one per workload.
        assert sum(1 for s in shards if s.experiment == "E1") == 3

    def test_plan_is_deterministic(self):
        first = plan_shards(CHEAP, scale="small")
        second = plan_shards(CHEAP, scale="small")
        assert [s.key for s in first] == [s.key for s in second]
        assert all(a == b for a, b in zip(first, second, strict=True))

    def test_shard_keys_embed_spec_hash(self):
        shard = plan_shards(["E6"], scale="small")[0]
        assert shard.key.startswith("E6-small-gadget-k16-t0-")
        assert shard.spec_hash[:12] in shard.key
        # A different spec gets a different address.
        other = Shard.make("E6", "small", "gadget-k16", shard.seed + 1, 0, dict(shard.params))
        assert other.key != shard.key

    def test_replica_seed_stream_is_stable_and_scoped(self):
        seeds = replica_seeds(2020, "E9", "small", "random-p10", trials=4)
        assert seeds == replica_seeds(2020, "E9", "small", "random-p10", trials=4)
        assert len(seeds) == 3 and len(set(seeds)) == 3
        # Seeds depend on the shard identity, not on which other shards run.
        assert seeds != replica_seeds(2020, "E9", "small", "random-p25", trials=4)
        assert seeds != replica_seeds(2021, "E9", "small", "random-p10", trials=4)

    def test_trials_replicate_only_reseedable_sweeps(self):
        shards = plan_shards(["E9", "E12"], scale="small", trials=3)
        e9_trials = sorted({s.trial for s in shards if s.experiment == "E9"})
        e12_trials = sorted({s.trial for s in shards if s.experiment == "E12"})
        assert e9_trials == [0, 1, 2]
        assert e12_trials == [0]
        # Trial 0 keeps the canonical seed.
        canonical = {(s.family): s.seed for s in plan_shards(["E9"], scale="small")}
        for shard in shards:
            if shard.experiment == "E9" and shard.trial == 0:
                assert shard.seed == canonical[shard.family]

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            plan_shards(["E99"], scale="small")
        with pytest.raises(ValueError):
            plan_shards(["E6"], scale="huge")


class TestArtifactStore:
    def test_write_then_load_round_trips(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        shard = plan_shards(["E6"], scale="small")[0]
        record = execute_shard(shard)
        store.write_record(shard, record)
        loaded = store.load_record(shard)
        assert loaded is not None
        assert loaded["payload"] == record["payload"]
        assert loaded["metrics"] == record["metrics"]

    def test_spec_mismatch_and_corruption_treated_as_absent(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        shards = plan_shards(["E6"], scale="small")
        record = execute_shard(shards[0])
        store.write_record(shards[0], record)
        # A different shard never sees another shard's artifact.
        assert store.load_record(shards[1]) is None
        # A stale artifact whose embedded spec does not match is rejected.
        path = store.shard_path(shards[0])
        tampered = json.loads(path.read_text())
        tampered["spec"]["seed"] += 1
        path.write_text(json.dumps(tampered))
        assert store.load_record(shards[0]) is None
        # A truncated file (e.g. killed mid-write without the atomic rename)
        # is rejected too.
        path.write_text(path.read_text()[:40])
        assert store.load_record(shards[0]) is None

    def test_manifest_is_deterministic_and_excludes_wall_times(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        shard = plan_shards(["E6"], scale="small")[0]
        store.write_record(shard, execute_shard(shard))
        manifest = store.build_manifest()
        entry = manifest["shards"][shard.key]
        assert entry["spec_hash"] == shard.spec_hash
        assert "wall_time_seconds" not in entry
        # Re-executing the same shard yields the same manifest (bit-identical
        # payload, different wall time).
        store.write_record(shard, execute_shard(shard))
        assert store.build_manifest() == manifest


class TestEngine:
    def test_serial_and_parallel_runs_are_bit_identical(self, tmp_path):
        shards = plan_shards(CHEAP, scale="small")
        serial_store = ArtifactStore(tmp_path / "serial")
        parallel_store = ArtifactStore(tmp_path / "parallel")
        serial_report = ExperimentEngine(serial_store, jobs=1).run(shards)
        parallel_report = ExperimentEngine(parallel_store, jobs=4).run(shards)
        assert serial_report.ok and parallel_report.ok
        assert sorted(serial_report.executed) == sorted(parallel_report.executed)
        assert serial_store.build_manifest() == parallel_store.build_manifest()
        # The assembled tables match the plain serial runner exactly.
        tables = assemble_tables(parallel_store, shards)
        by_id = {table.experiment_id: table for table in tables}
        for experiment_id in CHEAP:
            expected = run_experiment(experiment_id, scale="small")
            assert by_id[experiment_id].headers == expected.headers
            assert by_id[experiment_id].notes == expected.notes
            got_rows = [list(row) for row in by_id[experiment_id].rows]
            # E13-style float wall-clock columns are absent from these cheap
            # sweeps, so rows must match exactly.
            assert got_rows == [list(row) for row in expected.rows]

    @pytest.mark.parametrize("mp_context", ["fork", "spawn"])
    def test_full_small_sweep_manifest_is_run_invariant(
        self, tmp_path, mp_context, serial_small_manifest
    ):
        # Every registered shard at small scale: a pool run under either
        # start method must produce the serial run's artifact-store manifest
        # -- including E13, whose wall-clock measurement rides outside the
        # hashed payload.  A fork worker inherits the parent's module state
        # and a spawn worker re-imports it, and the pool takes the plan in
        # reverse, so a payload that depends on module state or on the
        # shards run before it, instead of on (spec, seed) alone, differs.
        if mp_context not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{mp_context} start method unavailable")
        store = ArtifactStore(tmp_path / mp_context)
        engine = ExperimentEngine(store, jobs=2, mp_context=mp_context)
        assert engine.run(plan_shards(scale="small")[::-1]).ok
        assert store.build_manifest() == serial_small_manifest

    def test_spawn_run_misses_module_state_written_in_the_parent(self, tmp_path, monkeypatch):
        # The check above can see module state: a shard helper rebound in
        # the parent reaches the serial run but not the re-imported modules
        # of a spawn worker, so the two manifests differ.
        original = sweeps._locality_graph
        monkeypatch.setattr(
            sweeps, "_locality_graph", lambda n, seed=1: original(n, seed=seed + 1)
        )
        shards = plan_shards(["E1"], scale="small")
        assert len(shards) > 1  # one shard would run inline, not in the pool
        serial_store = ArtifactStore(tmp_path / "serial")
        spawn_store = ArtifactStore(tmp_path / "spawn")
        assert ExperimentEngine(serial_store, jobs=1).run(shards).ok
        assert ExperimentEngine(spawn_store, jobs=2, mp_context="spawn").run(shards).ok
        assert serial_store.build_manifest() != spawn_store.build_manifest()

    def test_resume_skips_finished_shards_and_merges(self, tmp_path):
        shards = plan_shards(CHEAP, scale="small")
        assert len(shards) >= 4
        clean_store = ArtifactStore(tmp_path / "clean")
        ExperimentEngine(clean_store, jobs=1).run(shards)

        # Interrupted run: only the first two shards finished before the kill.
        resumed_store = ArtifactStore(tmp_path / "resumed")
        partial = ExperimentEngine(resumed_store, jobs=1).run(shards[:2])
        assert sorted(partial.executed) == sorted(s.key for s in shards[:2])

        resumed = ExperimentEngine(resumed_store, jobs=1, resume=True).run(shards)
        assert sorted(resumed.skipped) == sorted(s.key for s in shards[:2])
        assert sorted(resumed.executed) == sorted(s.key for s in shards[2:])
        # The merged manifest is exactly what one uninterrupted run produces.
        assert resumed_store.build_manifest() == clean_store.build_manifest()

    def test_resume_re_runs_corrupted_artifacts(self, tmp_path):
        shards = plan_shards(["E6"], scale="small")
        store = ArtifactStore(tmp_path / "store")
        ExperimentEngine(store, jobs=1).run(shards)
        store.shard_path(shards[0]).write_text("{not json")
        report = ExperimentEngine(store, jobs=1, resume=True).run(shards)
        assert report.executed == [shards[0].key]
        assert sorted(report.skipped) == sorted(s.key for s in shards[1:])

    def test_e15_records_are_jobs_independent(self, tmp_path):
        # The robustness sweep's shards rebuild graph, fault schedule and
        # both networks from their own seeds, so records are --jobs
        # independent (the ISSUE 5 acceptance pin).
        shards = plan_shards(["E15"], scale="small")
        assert len(shards) >= 4
        serial_store = ArtifactStore(tmp_path / "serial")
        parallel_store = ArtifactStore(tmp_path / "parallel")
        assert ExperimentEngine(serial_store, jobs=1).run(shards).ok
        assert ExperimentEngine(parallel_store, jobs=2).run(shards).ok
        assert serial_store.build_manifest() == parallel_store.build_manifest()

    def test_e15_interrupted_sweep_resumes_to_clean_manifest(self, tmp_path):
        # Kill-after-k, mirroring the E1-E14 resume test: only the first two
        # E15 shards finish before the interrupt; the resumed run skips them,
        # executes the rest and merges to exactly the clean-run manifest.
        shards = plan_shards(["E15"], scale="small")
        clean_store = ArtifactStore(tmp_path / "clean")
        ExperimentEngine(clean_store, jobs=1).run(shards)

        resumed_store = ArtifactStore(tmp_path / "resumed")
        partial = ExperimentEngine(resumed_store, jobs=1).run(shards[:2])
        assert sorted(partial.executed) == sorted(s.key for s in shards[:2])
        resumed = ExperimentEngine(resumed_store, jobs=1, resume=True).run(shards)
        assert sorted(resumed.skipped) == sorted(s.key for s in shards[:2])
        assert sorted(resumed.executed) == sorted(s.key for s in shards[2:])
        assert resumed_store.build_manifest() == clean_store.build_manifest()
        # The tables assembled from the resumed store match a direct run.
        table = assemble_tables(resumed_store, shards)[0]
        expected = run_experiment("E15", scale="small")
        assert [list(row) for row in table.rows] == [list(row) for row in expected.rows]

    def test_e15_corrupted_artifact_re_runs(self, tmp_path):
        shards = plan_shards(["E15"], scale="small")
        store = ArtifactStore(tmp_path / "store")
        ExperimentEngine(store, jobs=1).run(shards)
        # A truncated shard file (killed mid-write without the atomic rename)
        # and a spec-tampered one must both re-execute on resume.
        store.shard_path(shards[0]).write_text("{truncated")
        tampered = json.loads(store.shard_path(shards[1]).read_text())
        tampered["spec"]["seed"] += 1
        store.shard_path(shards[1]).write_text(json.dumps(tampered))
        report = ExperimentEngine(store, jobs=1, resume=True).run(shards)
        assert sorted(report.executed) == sorted(s.key for s in shards[:2])
        assert sorted(report.skipped) == sorted(s.key for s in shards[2:])

    def test_without_resume_everything_re_executes(self, tmp_path):
        shards = plan_shards(["E6"], scale="small")
        store = ArtifactStore(tmp_path / "store")
        ExperimentEngine(store, jobs=1).run(shards)
        report = ExperimentEngine(store, jobs=1).run(shards)
        assert sorted(report.executed) == sorted(s.key for s in shards)
        assert report.skipped == []

    def test_shard_records_carry_ambient_round_metrics(self, tmp_path):
        shard = next(
            s for s in plan_shards(["E12"], scale="small") if s.family == "dissemination-k1"
        )
        record = execute_shard(shard)
        metrics = record["metrics"]
        # The shard's network charges are observed through the ambient scope:
        # dissemination does real local + global work.
        assert metrics["total_rounds"] > 0
        assert metrics["global_messages"] > 0
        # And they are deterministic (the engine's bit-identity contract).
        assert execute_shard(shard)["metrics"] == metrics

    def test_failed_shards_do_not_kill_the_run(self, tmp_path, failing_sweep):
        shards = plan_shards([failing_sweep], scale="small")
        store = ArtifactStore(tmp_path / "store")
        report = ExperimentEngine(store, jobs=1).run(shards)
        assert not report.ok
        assert len(report.failed) == 1 and "shard blew up" in next(iter(report.failed.values()))
        assert len(report.executed) == 2
        with pytest.raises(KeyError):
            assemble_tables(store, shards)

    @pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
    def test_parallel_pool_with_synthetic_sweep(self, tmp_path, synthetic_sweep):
        shards = plan_shards([synthetic_sweep], scale="small", trials=2)
        assert len(shards) == 8  # 4 families x 2 trials (reseedable)
        store = ArtifactStore(tmp_path / "store")
        report = ExperimentEngine(store, jobs=2, mp_context="fork").run(shards)
        assert report.ok and len(report.executed) == 8
        table = assemble_tables(store, [s for s in shards if s.trial == 0])[0]
        assert [row[1] for row in table.rows] == [100, 101, 102, 103]


def _records(**overrides):
    base = [
        {"name": "bench_a", "wall_time_seconds": 1.0, "measured_rounds": 100, "n": 64},
        {"name": "bench_b", "wall_time_seconds": 2.0, "measured_rounds": 200, "n": 128},
        {"name": "bench_c", "wall_time_seconds": 4.0, "global_rounds": 17, "n": 256},
    ]
    records = json.loads(json.dumps(base))
    for name, fields in overrides.items():
        for record in records:
            if record["name"] == name:
                record.update(fields)
    return records


class TestRegressionGate:
    def test_identical_records_pass(self):
        report = compare_benchmarks(_records(), _records())
        assert report.status == "pass" and not report.violations
        assert report.checked_records == 3

    def test_uniform_slowdown_of_both_sides_passes(self):
        # A runner 3x slower than the baseline's machine slows the parent and
        # the change alike: wall time compares them, not the baseline.
        parent, current = _records(), _records()
        for record in parent + current:
            record["wall_time_seconds"] *= 3.0
        report = compare_benchmarks(_records(), current, parent_records=parent)
        assert report.status == "pass"
        assert report.checked_metrics == 9  # 6 deterministic fields, 3 wall times

    def test_single_record_wall_clock_regression_fails(self):
        report = compare_benchmarks(
            _records(),
            _records(bench_b={"wall_time_seconds": 2.0 * 1.35}),
            parent_records=_records(),
        )
        assert report.status == "fail"
        assert [v.kind for v in report.violations] == ["wall-clock"]

    def test_round_count_deviation_fails_exactly(self):
        report = compare_benchmarks(_records(), _records(bench_c={"global_rounds": 18}))
        assert report.status == "fail"
        assert [v.kind for v in report.violations] == ["round-count"]
        # Non-round drift is informational only.
        drifted = compare_benchmarks(_records(), _records(bench_a={"n": 65}))
        assert drifted.status == "pass"
        assert any("drift" in note for note in drifted.notes)

    def test_missing_record_fails_and_new_record_is_noted(self):
        report = compare_benchmarks(_records(), _records()[:2])
        assert report.status == "fail"
        assert [v.kind for v in report.violations] == ["missing-record"]
        report = compare_benchmarks(_records()[:2], _records())
        assert report.status == "pass"
        assert any("new record" in note for note in report.notes)

    def test_micro_benchmarks_are_exempt_from_wall_clock_only(self):
        base = _records(bench_a={"wall_time_seconds": 0.004})
        current = _records(bench_a={"wall_time_seconds": 0.009})  # 2.2x, but 4ms
        assert compare_benchmarks(base, current, parent_records=base).status == "pass"
        # Round counts still gate micro-benchmarks exactly.
        current = _records(bench_a={"wall_time_seconds": 0.009, "measured_rounds": 101})
        report = compare_benchmarks(base, current, parent_records=base)
        assert report.status == "fail"
        assert [v.kind for v in report.violations] == ["round-count"]
        # And the floor is configurable.
        assert (
            compare_benchmarks(
                base,
                _records(bench_a={"wall_time_seconds": 0.009}),
                min_wall_seconds=0.001,
                parent_records=base,
            ).status
            == "fail"
        )

    def test_wall_clock_is_unchecked_without_parent_runs(self):
        # The committed baseline comes from another machine: a 3x slower run
        # against it alone says nothing, so only the rounds are gated.
        current = _records()
        for record in current:
            record["wall_time_seconds"] *= 3.0
        report = compare_benchmarks(_records(), current)
        assert report.status == "pass"
        assert any("wall-clock unchecked" in note for note in report.notes)
        report = compare_benchmarks(_records(), current, parent_records=_records())
        assert report.status == "fail"
        assert all(v.kind == "wall-clock" for v in report.violations)

    def test_median_of_runs_on_each_side(self):
        # One slow outlier run on either side does not move the median of three.
        runs = [_records(), _records(bench_b={"wall_time_seconds": 9.0}), _records()]
        merged = median_walls(runs)
        assert [record["wall_time_seconds"] for record in merged] == [1.0, 2.0, 4.0]
        assert merged == _records()
        slower = [_records(bench_b={"wall_time_seconds": 2.0 * 1.35})] * 2 + [_records()]
        report = compare_benchmarks(
            _records(), median_walls(slower), parent_records=median_walls(runs)
        )
        assert [(v.record, v.kind) for v in report.violations] == [("bench_b", "wall-clock")]

    def test_manifest_comparison_is_exact(self, tmp_path):
        shards = plan_shards(["E6"], scale="small")
        store = ArtifactStore(tmp_path / "store")
        ExperimentEngine(store, jobs=1).run(shards)
        manifest = store.build_manifest()
        assert compare_manifests(manifest, manifest).status == "pass"
        tampered = json.loads(json.dumps(manifest))
        key = next(iter(tampered["shards"]))
        tampered["shards"][key]["payload_hash"] = "0" * 64
        report = compare_manifests(manifest, tampered)
        assert report.status == "fail" and report.violations[0].metric == "payload_hash"

    def test_run_regression_detects_file_kinds(self, tmp_path):
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps(_records()))
        assert run_regression(bench, [bench]).kind == "benchmarks"
        assert run_regression(bench, [bench, bench], [bench, bench]).status == "pass"
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"version": 1, "shards": {}}))
        assert run_regression(manifest, [manifest]).kind == "manifest"
        with pytest.raises(ValueError):
            run_regression(bench, [manifest])
        with pytest.raises(ValueError):
            run_regression(manifest, [manifest, manifest])
