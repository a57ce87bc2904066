"""Clustering the graph around a ruling set (the first half of Algorithm 1).

Given a ``(2µ+1, β)``-ruling set, every node joins the cluster of its closest
ruler (ties broken towards the smaller ruler ID).  The resulting clustering
has two properties the helper-set construction relies on:

* every cluster contains at least ``µ`` nodes, because any ball of radius ``µ``
  around a ruler is disjoint from other rulers' balls (rulers are ``≥ 2µ+1``
  apart) and all of it joins that ruler, and
* the hop radius of a cluster is at most the covering radius ``β`` of the
  ruling set, so any two members are within ``2β`` hops of each other.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.hybrid.network import HybridNetwork
from repro.localnet.flooding import multi_source_hop_distances


@dataclass
class Clustering:
    """A partition of the nodes into clusters around rulers.

    Attributes
    ----------
    node_to_ruler:
        For each node, the ruler of the cluster it joined.
    members:
        ``ruler -> sorted list of member nodes`` (every ruler appears, and
        every node appears in exactly one cluster).
    radius:
        The maximum hop distance from any node to its ruler.
    rounds_charged:
        Local rounds charged for establishing the clustering and for letting
        every member learn its whole cluster (the two loops of Algorithm 1).
    """

    node_to_ruler: list[int]
    members: dict[int, list[int]]
    radius: int
    rounds_charged: int

    def cluster_sizes(self) -> list[int]:
        """Sizes of all clusters."""
        return [len(members) for members in self.members.values()]


def cluster_around_rulers(
    network: HybridNetwork,
    rulers: Sequence[int],
    mu: int,
    phase: str = "clustering",
) -> Clustering:
    """Assign every node to its closest ruler and let clusters learn themselves.

    The two exploration loops of Algorithm 1 are bounded by ``2µ⌈log n⌉`` and
    ``4µ⌈log n⌉`` rounds in the paper (the covering radius of the ruling set of
    Lemma 2.1).  Our greedy ruling set has covering radius at most ``2µ``, so
    the loops only need to flood to the *actual* cluster radius; we charge
    ``3 · radius`` rounds (discover the closest ruler, then learn the cluster),
    capped from above by the paper's bound -- charging what the protocol
    actually needed keeps small-scale round counts meaningful.
    """
    if not rulers:
        raise ValueError("at least one ruler is required")
    assignment = multi_source_hop_distances(network, rulers)
    if len(assignment) != network.n:
        raise ValueError("graph must be connected for the clustering to cover all nodes")

    node_to_ruler: list[int] = [0] * network.n
    members: dict[int, list[int]] = {ruler: [] for ruler in rulers}
    radius = 0
    for node in range(network.n):
        hops, ruler = assignment[node]
        node_to_ruler[node] = ruler
        members[ruler].append(node)
        radius = max(radius, hops)
    for ruler in members:
        members[ruler].sort()

    log_factor = network.config.log_rounds(network.n)
    paper_bound = max(1, 6 * mu * log_factor)
    rounds = max(1, min(3 * radius, paper_bound))
    network.charge_local_rounds(rounds, phase)
    return Clustering(
        node_to_ruler=node_to_ruler,
        members=members,
        radius=radius,
        rounds_charged=rounds,
    )
