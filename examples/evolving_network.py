"""Evolving network: mutate a live graph without losing the warm session.

Opens a ``HybridSession``, pays the ``Õ(√n)`` preprocessing once, then runs
several mutate-then-query rounds.  Each weight update is journalled as a
``GraphDelta`` on the graph, and the next query routes the cached
``SkeletonContext`` through ``repair`` -- re-exploring only the damaged
exploration rows -- instead of rebuilding from scratch (DESIGN.md §12).  A
second session calls ``invalidate()`` after each mutation and replays the
identical schedule the old way so the round savings (and the bit-identical answers) are visible
side by side.

Run with:  python examples/evolving_network.py [n]
"""

from __future__ import annotations

import sys

from repro import HybridSession, ModelConfig
from repro.graphs import generators, reference
from repro.util.rand import RandomSource

EVENTS = 4


def heavy_off_skeleton_edge(session: HybridSession, rng: RandomSource):
    """Pick a heavy edge with both endpoints outside the cached skeleton.

    Weight *increases* only disturb shortest paths the edge was tight on, so
    bumping a heavy edge keeps the damage estimate low and lets the session
    repair instead of rebuild -- the repair-friendly regime E17 measures.
    """
    skeleton = set(session.context().skeleton.nodes)
    graph = session.graph
    candidates = [
        (u, v, w)
        for u, v, w in graph.edges()
        if u not in skeleton and v not in skeleton and w >= graph.max_weight() // 2
    ]
    u, v, weight = candidates[rng.randrange(len(candidates))]
    return u, v, weight


def main(n: int = 96) -> None:
    rng = RandomSource(11)
    graph = generators.connected_workload(n, rng, weighted=True, max_weight=8)
    print(f"graph: {graph.node_count} nodes, {graph.edge_count} edges, "
          f"version {graph.version}")

    warm = HybridSession(graph, ModelConfig(rng_seed=1))
    cold = HybridSession(graph.copy(), ModelConfig(rng_seed=1))

    warm.apsp()
    cold.apsp()
    print(f"preprocessing (paid once by both): {warm.preprocessing_rounds} rounds\n")

    mutation_rng = RandomSource(11).fork("example:mutations")
    warm_preprocessing_base = warm.preprocessing_rounds
    cold_preprocessing_before = cold.preprocessing_rounds
    cold_preprocessing_base = cold.preprocessing_rounds
    for event in range(EVENTS):
        u, v, weight = heavy_off_skeleton_edge(warm, mutation_rng)
        new_weight = weight + 1 + mutation_rng.randrange(4)
        warm.update_weight(u, v, new_weight)
        cold.update_weight(u, v, new_weight)
        cold.invalidate()

        warm_apsp = warm.apsp()
        cold_apsp = cold.apsp()
        record = warm.repairs[-1]
        truth = reference.single_source_distances(warm.graph, 0)
        mismatches = sum(
            1 for node, d in truth.items() if abs(warm_apsp.distance(0, node) - d) > 1e-9
        )
        identical = all(
            abs(warm_apsp.distance(s, t) - cold_apsp.distance(s, t)) < 1e-9
            for s in range(n)
            for t in range(n)
        )
        print(f"event {event + 1}: edge {{{u}, {v}}} weight {weight} -> {new_weight} "
              f"(graph version {warm.graph.version})")
        print(f"  decision: {record.action} ({record.deltas} delta, "
              f"{record.rounds} repair rounds)")
        cold_extra = cold.preprocessing_rounds - cold_preprocessing_before
        cold_preprocessing_before = cold.preprocessing_rounds
        print(f"  warm query: {warm.last_query.amortized_rounds} amortized rounds | "
              f"cold rebuild: {cold.last_query.amortized_rounds} "
              f"(+{cold_extra} re-preprocessing)")
        print(f"  answers bit-identical to cold rebuild: {identical}, "
              f"mismatches vs Dijkstra: {mismatches}")

    warm_tail = (
        sum(r.amortized_rounds for r in warm.queries[1:])
        + sum(r.rounds for r in warm.repairs)
        + (warm.preprocessing_rounds - warm_preprocessing_base)
    )
    cold_tail = sum(r.amortized_rounds for r in cold.queries[1:]) + (
        cold.preprocessing_rounds - cold_preprocessing_base
    )
    print(f"\ntail totals after the shared warm-up: repair {warm_tail} rounds vs "
          f"rebuild {cold_tail} rounds "
          f"({cold_tail / warm_tail:.2f}x amortized win).")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 96)
