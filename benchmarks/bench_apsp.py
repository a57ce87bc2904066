"""E2 -- Exact APSP (Theorem 1.1, ``Õ(√n)``) vs the SODA'20 baseline (``Õ(n^{2/3})``).

For each graph size the new algorithm and the label-broadcast baseline run on
the same instance; the report records measured rounds, the theoretical shape
for each (``√n`` vs ``n^{2/3}``), and the busiest node's cumulative global
receive load (the quantity whose asymptotics force the baseline's higher
runtime).  A small sweep also fits the empirical scaling exponent.
"""

import pytest

from benchmarks.conftest import attach, bench_network, locality_workload, run_once
from repro.analysis import fit_power_law_with_log
from repro.baselines import apsp_broadcast_baseline
from repro.core.apsp import apsp_exact


@pytest.mark.parametrize("n", [100, 200])
def test_apsp_new_algorithm(benchmark, n):
    """Theorem 1.1 algorithm on a locality-heavy graph."""
    graph = locality_workload(n)

    def run():
        network = bench_network(graph)
        return network, apsp_exact(network)

    network, result = run_once(benchmark, run)
    attach(
        benchmark,
        {
            "experiment": "E2",
            "algorithm": "theorem-1.1",
            "n": n,
            "measured_rounds": result.rounds,
            "paper_shape_sqrt_n": n ** 0.5,
            "skeleton_size": result.skeleton_size,
            "hop_length": result.hop_length,
            "busiest_node_received": network.max_total_received(),
        },
    )


@pytest.mark.parametrize("n", [100, 200])
def test_apsp_soda20_baseline(benchmark, n):
    """The label-broadcast baseline the paper improves on."""
    graph = locality_workload(n)

    def run():
        network = bench_network(graph)
        return network, apsp_broadcast_baseline(network)

    network, result = run_once(benchmark, run)
    attach(
        benchmark,
        {
            "experiment": "E2",
            "algorithm": "soda20-baseline",
            "n": n,
            "measured_rounds": result.rounds,
            "paper_shape_n_2_3": n ** (2.0 / 3.0),
            "broadcast_tokens": result.broadcast_tokens,
            "busiest_node_received": network.max_total_received(),
        },
    )


def test_apsp_scaling_exponent(benchmark):
    """Fit the measured-rounds exponent of the new algorithm over a small sweep."""
    sizes = [64, 100, 160, 240]

    def run():
        rounds = []
        for n in sizes:
            graph = locality_workload(n)
            network = bench_network(graph)
            rounds.append(apsp_exact(network).rounds)
        return rounds

    rounds = run_once(benchmark, run)
    fit = fit_power_law_with_log(sizes, rounds)
    attach(
        benchmark,
        {
            "experiment": "E2",
            "sizes": sizes,
            "rounds": rounds,
            "fitted_exponent": round(fit.exponent, 3),
            "paper_exponent": 0.5,
            "note": "simulation-scale exponents include the D-capped local phases",
        },
    )
