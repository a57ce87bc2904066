"""Smoke tests: every example script runs end to end and reports sane results."""

import re
import runpy
import sys
from pathlib import Path

import pytest

from repro.hybrid import ModelConfig
from repro.hybrid.config import MESSAGE_BITS
from repro.lower_bounds import (
    build_gamma_gadget,
    build_kssp_gadget,
    implied_round_lower_bound,
    random_disjointness_instance,
)
from repro.lower_bounds.set_disjointness import (
    implied_round_lower_bound as diameter_lower_bound,
)
from repro.util.rand import RandomSource

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, monkeypatch, argv=None):
    monkeypatch.setattr(sys, "argv", [name] + (argv or []))
    return runpy.run_path(str(EXAMPLES_DIR / name), run_name="__main__")


@pytest.mark.slow
class TestExamples:
    def test_quickstart(self, monkeypatch, capsys):
        run_example("quickstart.py", monkeypatch, argv=["60"])
        output = capsys.readouterr().out
        assert "mismatches vs Dijkstra:  0" in output
        assert "[Theorem 1.1] exact APSP" in output

    def test_isp_topology_routing(self, monkeypatch, capsys):
        run_example("isp_topology_routing.py", monkeypatch)
        output = capsys.readouterr().out
        assert "underestimates:            0" in output
        assert "gateways" in output

    def test_datacenter_diameter(self, monkeypatch, capsys):
        run_example("datacenter_diameter.py", monkeypatch)
        output = capsys.readouterr().out
        assert "[Theorem 5.1]" in output
        assert "ratio" in output

    def test_token_routing_demo(self, monkeypatch, capsys):
        run_example("token_routing_demo.py", monkeypatch)
        output = capsys.readouterr().out
        assert "[Theorem 2.2] token routing" in output
        assert "global messages moved" in output

    def test_unreliable_network(self, monkeypatch, capsys):
        run_example("unreliable_network.py", monkeypatch)
        output = capsys.readouterr().out
        assert "[fault injection]" in output
        assert "False" not in output  # every completed run stays exact
        assert "FaultToleranceExceededError" in output

    def test_serving_demo(self, monkeypatch, capsys):
        run_example("serving_demo.py", monkeypatch, argv=["64"])
        output = capsys.readouterr().out
        assert "ok=False" not in output
        assert "batch_size=6" in output  # all six SSSP queries shared one pass
        assert "acme" in output and "globex" in output

    def test_lower_bound_gadgets(self, monkeypatch, capsys):
        run_example("lower_bound_gadgets.py", monkeypatch)
        output = capsys.readouterr().out
        assert "WRONG" not in output
        assert "Figure 1" in output and "Figure 2" in output
        # The k = 16 bound is printed with the model's message size and the
        # gadget network's own send cap.
        gadget = build_kssp_gadget(path_hops=400, source_count=16, rng=RandomSource(16))
        send_cap = ModelConfig().send_cap(gadget.graph.node_count)
        bound = implied_round_lower_bound(gadget, MESSAGE_BITS, send_cap)
        assert f"implied round lower bound:   {bound:8.4f}" in output
        # Each Figure 2 bound (unweighted, then W = 40) shows a non-zero value
        # that is the Γ gadget's bound at the printed precision.
        printed = re.findall(r"lower bound:    (\S+) \(n = 143\)", output)
        expected = []
        for weight in (1, 40):
            a, b = random_disjointness_instance(6, RandomSource(9), True)
            gamma = build_gamma_gadget(6, 10, weight, a, b)
            expected.append(f"{diameter_lower_bound(gamma, ModelConfig()):.3g}")
        assert printed == expected
        assert all(float(value) > 0 for value in printed)
