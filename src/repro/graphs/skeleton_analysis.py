"""Offline analysis of skeleton graphs (Appendix C of the paper).

The skeleton graph ``S = (V_S, E_S)`` is the central structural tool of
Sections 3-5: sample nodes with probability ``1/x``, connect sampled nodes
within ``h ∈ Θ(x log n)`` hops with edges weighted by the ``h``-limited
distance.  Lemma C.1 states that sampled nodes appear on shortest paths at
least every ``h`` hops w.h.p.; Lemma C.2 that the skeleton is connected and
preserves distances exactly between sampled nodes.

These functions measure those properties on concrete graphs so E9 can report
them as a table (and so property-based tests can assert them).  They operate
on the *centralised* view of a skeleton; the distributed construction lives in
:mod:`repro.core.skeleton`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from repro.graphs import reference
from repro.graphs.graph import INFINITY, WeightedGraph
from repro.util.rand import RandomSource


def skeleton_hop_length(n: int, sampling_denominator: float, xi: float = 1.0) -> int:
    """The edge hop-length ``h = ξ · x · ln n`` of Lemma C.1 (clamped to ``[1, n]``).

    ``sampling_denominator`` is the ``x`` in "sample with probability 1/x".
    ``ξ`` is the w.h.p. constant; the asymptotic statement needs ``ξ ≥ 8c`` but
    simulations at a few hundred nodes use a smaller configurable value (see
    the fidelity policy in DESIGN.md) -- benchmarks record which ξ they used.
    """
    if n < 2:
        return 1
    h = int(math.ceil(xi * sampling_denominator * math.log(n)))
    return max(1, min(h, n))


def build_skeleton_offline(
    graph: WeightedGraph,
    skeleton_nodes: Sequence[int],
    hop_length: int,
) -> tuple[WeightedGraph, dict[int, int]]:
    """Centralised construction of the skeleton ``S`` on the given sampled nodes.

    Edges connect sampled nodes within ``hop_length`` hops, weighted by the
    ``hop_length``-limited distance ``d_h`` (Fact 4.3).  Returns the skeleton
    (relabelled ``0..|V_S|-1``) and the mapping original-id -> skeleton-id.
    """
    skeleton_nodes = list(skeleton_nodes)
    mapping = {node: index for index, node in enumerate(skeleton_nodes)}
    skeleton = WeightedGraph(max(1, len(skeleton_nodes)))
    limited = graph.hop_limited_distance_matrix(skeleton_nodes, hop_length)[:, skeleton_nodes]
    for u, row in enumerate(limited.tolist()):
        for v, dist in enumerate(row[u + 1 :], start=u + 1):
            if dist != INFINITY:
                skeleton.add_edge(u, v, max(1, int(dist)))
    return skeleton, mapping


@dataclass
class SkeletonReport:
    """Measured skeleton properties for one (graph, sample) instance.

    Attributes
    ----------
    node_count:
        ``|V_S|``.
    edge_count:
        ``|E_S|``.
    connected:
        Whether ``S`` is connected (Lemma C.2 says it should be, w.h.p.).
    distance_preserving:
        Whether ``d_S(u, v) = d_G(u, v)`` for every sampled pair checked.
    max_distance_error:
        Largest ``d_S - d_G`` over the checked pairs (0 when preserving).
    max_gap_hops:
        Largest number of consecutive non-sampled hops observed on the checked
        shortest paths (Lemma C.1 says ``<= h`` w.h.p.).
    pairs_checked:
        Number of node pairs included in the path-gap / distance audit.
    """

    node_count: int
    edge_count: int
    connected: bool
    distance_preserving: bool
    max_distance_error: float
    max_gap_hops: int
    pairs_checked: int


def sample_gap_on_shortest_path(
    graph: WeightedGraph, sampled: Sequence[int], source: int, target: int
) -> int | None:
    """Largest run of consecutive non-sampled nodes on one shortest path.

    The path is a weighted shortest path with the fewest hops among them
    (:func:`repro.graphs.reference.shortest_path`).  Returns ``None`` when
    source and target are disconnected.  Lemma C.1 bounds the gap on
    shortest paths by ``h`` w.h.p.; this measures it on one of them.
    """
    path = reference.shortest_path(graph, source, target)
    if path is None:
        return None
    sampled_set = set(sampled)
    max_gap = 0
    current_gap = 0
    for node in path:
        if node in sampled_set:
            current_gap = 0
        else:
            current_gap += 1
            max_gap = max(max_gap, current_gap)
    return max_gap


def audit_skeleton(
    graph: WeightedGraph,
    skeleton_nodes: Sequence[int],
    hop_length: int,
    rng: RandomSource,
    pair_samples: int = 50,
) -> SkeletonReport:
    """Measure Lemma C.1/C.2 properties on a concrete skeleton.

    Distance preservation is checked on up to ``pair_samples`` random sampled
    pairs, from one ``distance_matrix`` call on ``G`` and one on ``S`` over
    the pairs' sources; the path-gap audit runs on the same pairs mapped back
    to ``G``.
    """
    skeleton, mapping = build_skeleton_offline(graph, skeleton_nodes, hop_length)
    connected = skeleton.node_count <= 1 or skeleton.is_connected()

    nodes = list(skeleton_nodes)
    pairs: list[tuple[int, int]] = []
    if len(nodes) >= 2:
        for _ in range(pair_samples):
            u = rng.choice(nodes)
            v = rng.choice(nodes)
            if u != v:
                pairs.append((u, v))

    sources = sorted({u for u, _ in pairs})
    row = {u: index for index, u in enumerate(sources)}
    true_rows = graph.distance_matrix(sources).tolist()
    skeleton_rows = skeleton.distance_matrix([mapping[u] for u in sources]).tolist()
    max_error = 0.0
    preserving = True
    max_gap = 0
    for u, v in pairs:
        true_d = true_rows[row[u]][v]
        skel_d = skeleton_rows[row[u]][mapping[v]]
        if true_d == INFINITY:
            continue
        if skel_d == INFINITY:
            preserving = False
            max_error = INFINITY
        else:
            error = skel_d - true_d
            max_error = max(max_error, error)
            if error > 1e-9:
                preserving = False
        gap = sample_gap_on_shortest_path(graph, nodes, u, v)
        if gap is not None:
            max_gap = max(max_gap, gap)

    return SkeletonReport(
        node_count=skeleton.node_count if skeleton_nodes else 0,
        edge_count=skeleton.edge_count,
        connected=connected,
        distance_preserving=preserving,
        max_distance_error=max_error,
        max_gap_hops=max_gap,
        pairs_checked=len(pairs),
    )
