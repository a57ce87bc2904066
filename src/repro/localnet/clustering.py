"""Clustering the graph around a ruling set (the first half of Algorithm 1).

Given a ``(2µ+1, β)``-ruling set, every node joins the cluster of its closest
ruler (ties broken towards the smaller ruler ID).  The resulting clustering
has two properties the helper-set construction relies on:

* every cluster contains at least ``µ`` nodes, because any ball of radius ``µ``
  around a ruler is disjoint from other rulers' balls (rulers are ``≥ 2µ+1``
  apart) and all of it joins that ruler, and
* the hop radius of a cluster is at most the covering radius ``β`` of the
  ruling set, so any two members are within ``2β`` hops of each other.

The outcome depends only on the hop topology and ``µ``, so it comes from the
graph's cached :meth:`~repro.graphs.graph.WeightedGraph.ruler_clustering`;
this module charges the rounds.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.hybrid.network import HybridNetwork
from repro.localnet.ruling_set import compute_ruling_set


@dataclass(frozen=True)
class Clustering:
    """A partition of the nodes into clusters around rulers.

    Attributes
    ----------
    members:
        ``ruler -> ascending member IDs`` (read-only int64), in ruler order;
        every node appears in exactly one cluster.
    radius:
        The maximum hop distance from any node to its ruler.
    """

    members: Mapping[int, np.ndarray]
    radius: int


def cluster_around_rulers(network: HybridNetwork, mu: int, phase: str) -> Clustering:
    """Compute the ruling set, join every node to its closest ruler, learn the clusters.

    Charges the ruling set as ``<phase>:ruling-set`` (Lemma 2.1) and the two
    exploration loops of Algorithm 1 as ``<phase>:clustering``.  Those loops
    are bounded by ``2µ⌈log n⌉`` and ``4µ⌈log n⌉`` rounds in the paper (the
    covering radius of the ruling set of Lemma 2.1).  Our greedy ruling set
    has covering radius at most ``2µ``, so the loops only need to flood to
    the *actual* cluster radius; we charge ``3 · radius`` rounds (discover
    the closest ruler, then learn the cluster), capped from above by the
    paper's bound -- charging what the protocol actually needed keeps
    small-scale round counts meaningful.
    """
    compute_ruling_set(network, mu, phase=phase + ":ruling-set")
    _, members, radius = network.graph.ruler_clustering(2 * mu)
    paper_bound = max(1, 6 * mu * network.config.log_rounds(network.n))
    network.charge_local_rounds(max(1, min(3 * radius, paper_bound)), phase + ":clustering")
    return Clustering(members=members, radius=radius)
