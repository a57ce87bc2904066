"""E5 -- Diameter approximation (Theorem 1.4 / 5.1).

Measures rounds and the achieved approximation ratio ``D̃ / D`` for the exact
and the 2-approximate CLIQUE plug-ins, next to the transformed guarantee
``α + 2/η + β/T_B``.

Also records the hop-diameter kernel behind every ``min(D, ·)`` local charge
(``csr.hop_diameter``): its wall time and how many BFS sources it searched,
on the cold-start random graph (the usual case, a few dozen sources) and on
a cycle (vertex-transitive, the worst case: every source).
"""

import pytest

from benchmarks.conftest import (
    attach,
    bench_network,
    locality_workload,
    random_workload,
    run_once,
    run_repeated,
    smoke_scaled,
)
from repro.clique import EccentricityDiameter, GatherDiameter
from repro.core.diameter import approximate_diameter
from repro.graphs import csr as csr_kernels
from repro.graphs import generators


@pytest.mark.parametrize(
    "plugin_name, plugin_factory",
    [("gather-exact", GatherDiameter), ("eccentricity-2approx", EccentricityDiameter)],
)
@pytest.mark.parametrize("n", [120, 240])
def test_diameter_approximation(benchmark, plugin_name, plugin_factory, n):
    graph = locality_workload(n, seed=n)
    true_diameter = graph.hop_diameter()

    def run():
        network = bench_network(graph, seed=n)
        return approximate_diameter(network, plugin_factory())

    result = run_once(benchmark, run)
    attach(
        benchmark,
        {
            "experiment": "E5",
            "plugin": plugin_name,
            "n": n,
            "true_diameter": true_diameter,
            "estimate": result.estimate,
            "measured_ratio": round(result.estimate / true_diameter, 4),
            "guaranteed_alpha": result.guaranteed_alpha(),
            "measured_rounds": result.rounds,
            "used_local_estimate": result.used_local_estimate,
            "skeleton_size": result.skeleton_size,
        },
    )


@pytest.mark.parametrize("family", ["random", "cycle"])
def test_hop_diameter_kernel(benchmark, monkeypatch, family):
    n = smoke_scaled(1024, 64)
    graph = random_workload(n) if family == "random" else generators.cycle_graph(n)
    csr = graph.csr()
    diameter = run_repeated(benchmark, lambda: csr_kernels.hop_diameter(csr))

    # One more, untimed call counts the sources handed to scipy's searches.
    searched = []
    dijkstra = csr_kernels.csgraph.dijkstra

    def counting(*args, indices=None, **kwargs):
        searched.append(len(indices))
        return dijkstra(*args, indices=indices, **kwargs)

    monkeypatch.setattr(csr_kernels.csgraph, "dijkstra", counting)
    assert csr_kernels.hop_diameter(csr) == diameter
    attach(
        benchmark,
        {
            "experiment": "kernel",
            "kernel": "hop_diameter",
            "family": family,
            "n": n,
            "hop_diameter": diameter,
            "sources_searched": sum(searched),
            "scipy_calls": len(searched),
        },
    )
