"""The worst-case graph for the k-SSP lower bound (Section 6, Figure 1, Theorem 1.5).

The construction: an unweighted path of ``Ω(n)`` hops with a designated node
``b`` at one end.  A node ``v1`` sits at hop distance ``L ∈ Θ̃(√k)`` from ``b``
and a node ``v2`` at the far end of the path.  A pool of ``k`` candidate source
nodes is split uniformly at random into two halves: ``S1`` (attached to ``v1``
by one edge each) and ``S2`` (attached to ``v2``).

* ``b``'s distance to a source is ``L + 1`` if it lies in ``S1`` and
  ``≈ path length + 1 ∈ Ω(n)`` if it lies in ``S2`` -- a gap of factor
  ``Θ(n/√k)``, so even a coarse approximation must distinguish the two cases
  (Theorem 1.5's ``α' ∈ Θ(n/√k)``).
* The random split carries ``k`` bits of entropy that originate more than
  ``L`` hops away from ``b``, while everything within ``L`` hops of ``b`` can
  jointly receive only ``O(L log² n)`` bits per round over the global network.
  Hence ``Ω̃(k / (L log² n)) = Ω̃(√k)`` rounds are necessary.

This module builds the gadget, verifies the distance-gap property and exposes
the information-bottleneck accounting used by benchmark E6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.graphs.graph import WeightedGraph
from repro.util.rand import RandomSource


@dataclass
class KSSPGadget:
    """The Figure 1 worst-case instance.

    Attributes
    ----------
    graph:
        The constructed unweighted graph.
    bottleneck_node:
        The node ``b`` that has to learn all source distances.
    near_anchor / far_anchor:
        The path nodes ``v1`` (at distance ``L`` from ``b``) and ``v2`` (at the
        far end) the sources attach to.
    near_sources / far_sources:
        The random split ``S1`` / ``S2`` of the source pool.
    path_hops:
        Number of hops between ``b`` and ``v2``.
    bottleneck_distance:
        The parameter ``L = hop(b, v1)``.
    """

    graph: WeightedGraph
    bottleneck_node: int
    near_anchor: int
    far_anchor: int
    near_sources: list[int]
    far_sources: list[int]
    path_hops: int
    bottleneck_distance: int

    @property
    def sources(self) -> list[int]:
        """All ``k`` sources (near and far)."""
        return sorted(self.near_sources + self.far_sources)

    @property
    def source_count(self) -> int:
        """The number of sources ``k``."""
        return len(self.near_sources) + len(self.far_sources)


def suggested_bottleneck_distance(source_count: int) -> int:
    """The paper's choice ``L ∈ Θ̃(√k)`` (here simply ``⌈√k⌉``)."""
    return max(1, math.isqrt(max(source_count, 1)))


def build_kssp_gadget(
    path_hops: int,
    source_count: int,
    rng: RandomSource,
    bottleneck_distance: int | None = None,
) -> KSSPGadget:
    """Construct the Figure 1 gadget.

    Parameters
    ----------
    path_hops:
        Hop length of the backbone path (the ``Ω(n)`` part).
    source_count:
        The number of sources ``k`` (split evenly between ``S1`` and ``S2``).
    bottleneck_distance:
        The distance ``L`` of the near anchor from ``b``; defaults to
        ``Θ(√k)``.
    """
    if path_hops < 2:
        raise ValueError("the backbone path needs at least 2 hops")
    if source_count < 2:
        raise ValueError("need at least 2 sources")
    L = (
        bottleneck_distance
        if bottleneck_distance is not None
        else suggested_bottleneck_distance(source_count)
    )
    if L >= path_hops:
        raise ValueError("the bottleneck distance L must be smaller than the path length")

    n = (path_hops + 1) + source_count
    graph = WeightedGraph(n)
    # Backbone path: nodes 0..path_hops, with b = 0.
    for i in range(path_hops):
        graph.add_edge(i, i + 1, 1)
    bottleneck = 0
    near_anchor = L
    far_anchor = path_hops

    source_nodes = list(range(path_hops + 1, n))
    shuffled = list(source_nodes)
    rng.shuffle(shuffled)
    half = source_count // 2
    near_sources = sorted(shuffled[:half])
    far_sources = sorted(shuffled[half:])
    for source in near_sources:
        graph.add_edge(source, near_anchor, 1)
    for source in far_sources:
        graph.add_edge(source, far_anchor, 1)

    return KSSPGadget(
        graph=graph,
        bottleneck_node=bottleneck,
        near_anchor=near_anchor,
        far_anchor=far_anchor,
        near_sources=near_sources,
        far_sources=far_sources,
        path_hops=path_hops,
        bottleneck_distance=L,
    )


def distance_gap_factor(gadget: KSSPGadget) -> float:
    """Ratio between ``b``'s distance to a far source and to a near source.

    Theorem 1.5 argues this factor is ``Θ(n/√k)``: an algorithm that cannot
    tell whether a source is near or far cannot α-approximate for any
    ``α`` below it.
    """
    distances = gadget.graph.distance_matrix([gadget.bottleneck_node])[0].tolist()
    near = min(distances[s] for s in gadget.near_sources)
    far = min(distances[s] for s in gadget.far_sources)
    return far / near


def assignment_entropy_bits(gadget: KSSPGadget) -> float:
    """Entropy (in bits) of the random S1/S2 split that ``b`` must learn.

    Choosing which half of the ``k`` candidates is near carries
    ``log2 C(k, k/2) ≈ k - O(log k)`` bits.
    """
    k = gadget.source_count
    half = k // 2
    return math.log2(math.comb(k, half))


def bottleneck_capacity_bits_per_round(
    gadget: KSSPGadget, message_bits: int, send_cap: int
) -> float:
    """Global-network bits per round that can reach the ``L``-hop prefix of the path.

    Only the ``L`` path nodes closest to ``b`` can forward information to ``b``
    within ``L`` rounds over local edges, and each of them can receive at most
    ``send_cap · message_bits`` bits per round globally (Lemma 4.4 of [3],
    restated in Section 6).
    """
    return float(gadget.bottleneck_distance * send_cap * message_bits)


def implied_round_lower_bound(
    gadget: KSSPGadget, message_bits: int, send_cap: int
) -> float:
    """The Theorem 1.5 lower bound ``Ω̃(√k)`` instantiated for this gadget.

    The bound is ``min(L, entropy / per-round capacity of the prefix)`` -- the
    adversary argument gives the minimum of the hop-distance bound and the
    information bound.
    """
    entropy = assignment_entropy_bits(gadget)
    capacity = bottleneck_capacity_bits_per_round(gadget, message_bits, send_cap)
    information_bound = entropy / capacity if capacity > 0 else float("inf")
    return min(float(gadget.bottleneck_distance), information_bound)
