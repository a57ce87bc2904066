"""Self-tests of the end-to-end benchmark harness (oracle, tracer, probe, runner, compare)."""

from __future__ import annotations

import json
import sys
import time
import types

import pytest

import repro.core.context as context_module
import repro.localnet.token_dissemination as dissemination_module
import repro.session as session_module
from benchmarks.e2e import run
from benchmarks.e2e.compare import verdict
from benchmarks.e2e.hostspeed import Probe
from benchmarks.e2e.oracle import INF, Oracle
from benchmarks.e2e.tracer import Tracer
from repro.graphs.graph import WeightedGraph


class TestOracle:
    def test_single_node(self):
        oracle = Oracle(1, [])
        assert oracle.distances(0) == [0]
        assert oracle.hop_diameter() == 0

    def test_disconnected_pairs_are_infinite(self):
        oracle = Oracle(4, [(0, 1, 5), (2, 3, 1)])
        assert oracle.distances(0) == [0, 5, INF, INF]
        assert oracle.hops(3) == [INF, INF, 1, 0]
        assert oracle.hop_diameter() == INF

    def test_weighted_path_prefers_light_detour(self):
        oracle = Oracle(3, [(0, 1, 2), (1, 2, 3), (0, 2, 10)])
        assert oracle.distances(0) == [0, 2, 5]
        assert oracle.hops(0) == [0, 1, 1]
        assert oracle.hop_diameter() == 1


def _toy_modules(monkeypatch):
    """Two tiny layer modules, the second importing a function of the first."""
    low = types.ModuleType("toy_low")
    exec(
        "import time\n"
        "def leaf():\n"
        "    time.sleep(0.002)\n"
        "def inner():\n"
        "    leaf()\n"
        "    leaf()\n",
        low.__dict__,
    )
    monkeypatch.setitem(sys.modules, "toy_low", low)
    high = types.ModuleType("toy_high")
    exec(
        "import time\n"
        "from toy_low import inner\n"
        "def outer():\n"
        "    time.sleep(0.002)\n"
        "    inner()\n",
        high.__dict__,
    )
    monkeypatch.setitem(sys.modules, "toy_high", high)
    return low, high


class TestTracer:
    def test_self_time_arithmetic(self, monkeypatch):
        low, high = _toy_modules(monkeypatch)
        tracer = Tracer({"high": ("toy_high",), "low": ("toy_low",)})
        tracer.install()
        try:
            tracer.begin_op()
            start = time.perf_counter()
            high.outer()
            wall = time.perf_counter() - start
        finally:
            tracer.uninstall()
        spans = {span.name: span for span in tracer.spans if span.name != "leaf"}
        assert [span.name for span in tracer.spans].count("leaf") == 2
        assert spans["inner"].parent == spans["outer"].id
        assert {span.op for span in tracer.spans} == {1}
        for span in tracer.spans:
            assert 0 <= span.self_time <= span.duration
        assert sum(span.self_time for span in tracer.spans) <= wall
        assert spans["outer"].self_time == pytest.approx(
            spans["outer"].duration - spans["inner"].duration
        )

    def test_install_covers_aliases_and_uninstall_restores(self, monkeypatch):
        low, high = _toy_modules(monkeypatch)
        original = low.inner
        tracer = Tracer({"low": ("toy_low",)})
        tracer.install()
        assert low.inner is not original and high.inner is low.inner
        tracer.uninstall()
        assert low.inner is original and high.inner is original

    def test_real_layers_round_trip(self):
        disseminate = dissemination_module.disseminate_tokens
        hop_limited = WeightedGraph.__dict__["hop_limited_distance_matrix"]
        sssp = session_module.HybridSession.__dict__["sssp"]
        tracer = Tracer()
        tracer.install()
        try:
            # disseminate_tokens is imported by name into several modules.
            assert context_module.disseminate_tokens is dissemination_module.disseminate_tokens
            assert context_module.disseminate_tokens is not disseminate
            assert WeightedGraph.__dict__["hop_limited_distance_matrix"] is not hop_limited
        finally:
            tracer.uninstall()
        assert dissemination_module.disseminate_tokens is disseminate
        assert context_module.disseminate_tokens is disseminate
        assert WeightedGraph.__dict__["hop_limited_distance_matrix"] is hop_limited
        assert session_module.HybridSession.__dict__["sssp"] is sssp


def test_probe_reads_slowdowns_and_ends_its_helper():
    with Probe(run.ROOT, ("interpreter",), elasticity=0.5) as probe:
        first = probe.slowdown()
        probe.slowdown()
        helper = probe._process
    assert first > 0 and probe.readings[0] == first and len(probe.readings) == 2
    assert helper.poll() is not None


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_runs_repeat_and_trace(workload):
    first = run.run_workload(workload, seed=3, seconds=0, smoke=True)
    second = run.run_workload(workload, seed=3, seconds=0, smoke=True)
    traced = run.run_workload(workload, seed=3, seconds=0, trace=True, smoke=True)
    for record in (first, second, traced):
        assert record["correct"] and record["detail"]["error_rate"] == 0
    assert first["detail"]["rounds"] == second["detail"]["rounds"] > 0
    # Cycle 1 is traced in the traced run and untraced in the others: the
    # wrappers must not change a single simulated round.
    rounds = first["raw"]["rounds_by_cycle"]
    assert len(rounds) == run.MIN_CYCLES and traced["traced_cycles"] == 1
    assert traced["raw"]["rounds_by_cycle"] == rounds
    assert traced["per_layer"]["rounds"] == rounds[1]
    benchmark = run.load_benchmark()
    assert set(first["end_to_end"]) == {entry["name"] for entry in benchmark["end_to_end"]}
    assert set(traced["per_layer"]) == {entry["name"] for entry in benchmark["per_layer"]}


def test_planted_wrong_answer_fails_the_run(monkeypatch, capsys, tmp_path):
    sssp_exact = session_module.sssp_exact

    def off_by_one(*args, **kwargs):
        result = sssp_exact(*args, **kwargs)
        result.distances[max(result.distances)] += 1
        return result

    monkeypatch.setattr(session_module, "sssp_exact", off_by_one)
    status = run.main(["--workload", "query-mix", "--smoke", "--out", str(tmp_path)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status != 0
    assert result["correct"] is False and result["failed"] == 20 * run.MIN_CYCLES


def test_verdicts():
    base = {seed: 100.0 + seed for seed in range(10)}
    assert verdict(base, dict(base), "lower", 0.10) == "unchanged"
    assert verdict(base, {s: v * 1.2 for s, v in base.items()}, "lower", 0.10) == "regressed"
    assert verdict(base, {s: v * 0.8 for s, v in base.items()}, "lower", 0.10) == "improved"
    noisy = {seed: 100.0 * (1 + 0.5 * (seed % 2)) for seed in range(10)}
    assert verdict(base, noisy, "lower", 0.10) == "unresolved"
    assert verdict({1: 5}, {1: 6}, "lower", 0) == "regressed"
