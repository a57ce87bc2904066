"""Source representatives on the skeleton (Algorithm 7, Fact 4.4).

Sources of a shortest-path problem on ``G`` will generally not coincide with
the randomly sampled skeleton nodes.  Each source therefore *tags* the closest
skeleton node (w.r.t. its ``h``-limited distance) as its representative, and
the pairs ``⟨d_h(s, r_s), s, r_s⟩`` are made public knowledge with one token
dissemination.  Afterwards every node can translate a distance to a
representative into a distance estimate to the original source.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.skeleton import Skeleton
from repro.graphs.graph import WeightedGraph
from repro.hybrid.network import HybridNetwork
from repro.localnet.token_dissemination import disseminate_tokens


@dataclass
class Representatives:
    """Mapping of sources to their skeleton representatives (Fact 4.4).

    Attributes
    ----------
    representative:
        ``source -> skeleton node (original ID)`` chosen as its representative
        (``source`` itself when the source was sampled into the skeleton).
    distance_to_representative:
        ``source -> d_h(source, representative)`` (0 for skeleton sources).
    skeleton_sources:
        The distinct representatives, i.e. the sources of the problem solved
        on the skeleton.
    rounds:
        Rounds consumed (dominated by the token dissemination, ``Õ(√k)``).
    """

    representative: dict[int, int]
    distance_to_representative: dict[int, float]
    skeleton_sources: list[int]
    rounds: int


def choose_representatives(
    network: HybridNetwork, skeleton: Skeleton, sources: Sequence[int]
) -> tuple[dict[int, int], dict[int, float], int]:
    """The local step of Algorithm 7: every source's representative and its distance.

    Every source picks the skeleton node minimising its ``h``-limited distance
    (itself if it is a skeleton node), which the skeleton's exploration has
    already paid for.  If a source has no skeleton node within ``h`` hops --
    possible at simulation scale even though Lemma C.1 excludes it w.h.p. --
    the closest skeleton node in the whole graph is used instead, and its
    distance is learned by a longer flood: as many rounds as the fewest hops
    of a shortest path to it.  Returns the representatives, their distances
    and the rounds of the longest such flood (0 when no source fell back);
    the floods run in parallel, and :func:`compute_representatives` charges
    them.
    """
    representative: dict[int, int] = {}
    distance: dict[int, float] = {}
    fallback_rounds = 0
    for source in sources:
        if skeleton.contains(source):
            representative[source] = source
            distance[source] = 0.0
            continue
        closest = skeleton.closest_skeleton_node(source)
        if closest is None:
            # w.h.p. impossible for h = ξ x ln n (Lemma C.1); fall back to the
            # true closest skeleton node to keep small simulations correct.
            best_distance, closest, hops = _closest_member(network.graph, source, skeleton)
            representative[source] = closest
            distance[source] = best_distance
            fallback_rounds = max(fallback_rounds, hops)
        else:
            representative[source] = closest
            distance[source] = float(skeleton.near_distances[source, skeleton.index_of[closest]])
    return representative, distance, fallback_rounds


def _closest_member(graph: WeightedGraph, source: int, skeleton: Skeleton) -> tuple:
    """``(distance, member, hops)`` of the skeleton node closest to ``source``.

    Dijkstra ordered by (distance, hops), so each settled node carries the
    fewest hops of a shortest path to it; ties between members go to the
    smallest ID.  Raises ``ValueError`` when no member is reachable.
    """
    remaining = set(skeleton.nodes)
    settled: dict[int, tuple[float, int]] = {}
    heap = [(0.0, 0, source)]
    while heap and remaining:
        d, hops, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled[u] = d, hops
        remaining.discard(u)
        for v in graph.neighbors(u):
            if v not in settled:
                heapq.heappush(heap, (d + graph.weight(u, v), hops + 1, v))
    candidates = [(settled[s][0], s) for s in skeleton.nodes if s in settled]
    if not candidates:
        raise ValueError("graph must be connected")
    best_distance, closest = min(candidates)
    return best_distance, closest, settled[closest][1]


def compute_representatives(
    network: HybridNetwork,
    skeleton: Skeleton,
    sources: Sequence[int],
    phase: str = "representatives",
) -> Representatives:
    """Run Algorithm 7 (``Compute-Representatives``) for the given sources.

    The sources pick their representatives locally
    (:func:`choose_representatives`; a source with no skeleton node within
    ``h`` hops charges its longer flood under ``phase + ":fallback"``), then
    the pairs are announced.
    """
    rounds_before = network.metrics.total_rounds
    representative, distance, fallback_rounds = choose_representatives(network, skeleton, sources)
    if fallback_rounds:
        network.charge_local_rounds(fallback_rounds, phase + ":fallback")

    # Make ⟨d_h(s, r_s), s, r_s⟩ public knowledge (token dissemination, Õ(√k)).
    tokens: dict[int, list[tuple[float, int, int]]] = {}
    for source in sources:
        tokens.setdefault(source, []).append(
            (distance[source], source, representative[source])
        )
    disseminate_tokens(network, tokens, phase=phase + ":announce")

    skeleton_sources = sorted(set(representative.values()))
    rounds = network.metrics.total_rounds - rounds_before
    return Representatives(
        representative=representative,
        distance_to_representative=distance,
        skeleton_sources=skeleton_sources,
        rounds=rounds,
    )
