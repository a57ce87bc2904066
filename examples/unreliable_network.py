"""Scenario: serving shortest paths over an unreliable hybrid network.

The paper's guarantees are "with high probability" statements about a model
in which every admitted global message arrives.  Real global channels --
internet tunnels between data centers, wireless flyways -- drop packets
and burst-fail.  This example attaches a seeded
:class:`~repro.hybrid.faults.FaultModel` to a ``HybridSession`` and shows

* the fault-free path (drop rate 0) is bit-identical to the ideal model,
* under i.i.d. and bursty message loss the loss-tolerant protocols
  (acknowledged retransmission, DESIGN.md §8) still return *exact* answers,
  paying for reliability only in extra rounds, and
* when the loss is hopeless (heavier than the retry budget can beat) the
  engine raises ``FaultToleranceExceededError`` instead of serving a wrong
  result.

Run with:  python examples/unreliable_network.py
"""

from __future__ import annotations

from repro import (
    FaultModel,
    FaultToleranceExceededError,
    HybridSession,
    ModelConfig,
    generators,
    reference,
)
from repro.util.rand import RandomSource


def main() -> None:
    graph = generators.random_geometric_like_graph(
        96, neighbourhood=2, rng=RandomSource(5), extra_edge_probability=0.02
    )
    truth = reference.single_source_distances(graph, 0)
    print(
        f"unreliable HYBRID network demo: {graph.node_count} nodes, "
        f"{graph.edge_count} local edges\n"
    )

    print("[fault injection] SSSP from node 0 under increasing global message loss")
    header = (
        f"{'drop rate':>10s} {'rounds':>7s} {'overhead':>9s} "
        f"{'dropped':>8s} {'retried':>8s} {'exact':>6s}"
    )
    print(header)
    print("-" * len(header))
    ideal_rounds = None
    for drop_rate in (0.0, 0.05, 0.15, 0.3):
        model = FaultModel(drop_rate=drop_rate, seed=7, max_attempts=16)
        session = HybridSession(graph, ModelConfig(rng_seed=5), fault_model=model)
        result = session.sssp(0)
        exact = all(abs(result.distance(v) - d) <= 1e-9 for v, d in truth.items())
        metrics = session.network.metrics
        if ideal_rounds is None:
            ideal_rounds = metrics.total_rounds
        print(
            f"{drop_rate:>10.2f} {metrics.total_rounds:>7d} "
            f"{metrics.total_rounds / ideal_rounds:>8.2f}x "
            f"{metrics.global_dropped:>8d} {metrics.global_retried:>8d} {str(exact):>6s}"
        )

    print(
        "\nevery completed run is exact: retransmission recovers each lost message,"
        "\nso unreliability costs rounds, never correctness."
    )

    bursty = FaultModel(
        drop_rate=0.02, burst_rate=0.05, burst_length=4, burst_drop_rate=0.95, seed=11
    )
    session = HybridSession(graph, ModelConfig(rng_seed=5), fault_model=bursty)
    result = session.sssp(0)
    exact = all(abs(result.distance(v) - d) <= 1e-9 for v, d in truth.items())
    metrics = session.network.metrics
    print(
        f"\n[burst loss] 95% loss bursts of 4 rounds: {metrics.total_rounds} rounds, "
        f"{metrics.global_dropped} dropped, exact={exact}"
    )

    # Loss so heavy that a 2-attempt budget cannot amplify delivery to
    # certainty -- the engine refuses to fake an answer (DESIGN.md §8).
    doomed = FaultModel(drop_rate=0.9, seed=3, max_attempts=2)
    session = HybridSession(graph, ModelConfig(rng_seed=5), fault_model=doomed)
    try:
        session.sssp(0)
        print("\n[hopeless loss] unexpectedly completed")
    except FaultToleranceExceededError as error:
        print(
            "\n[hopeless loss] 90% drop with a 2-attempt budget: "
            f"FaultToleranceExceededError ({error})"
        )
        print("a partial result never masquerades as a correct one.")


if __name__ == "__main__":
    main()
