"""Helper sets (Definition 2.1, Algorithm 1, Lemma 2.2).

A family of helper sets assigns every node ``w`` of a well-spread set ``W``
(e.g. the senders or receivers of a token-routing instance) a set ``H_w`` of
nearby nodes so that

1. ``|H_w| ≥ µ`` for ``µ ∈ Θ(min(√k, n/|W|))``,
2. every helper is within ``Õ(µ)`` hops of ``w``, and
3. no node helps more than ``Õ(1)`` members of ``W``.

The construction (Algorithm 1) computes a ``(2µ+1, 2µ⌈log n⌉)``-ruling set,
clusters every node around its closest ruler, and then lets each cluster
member join ``H_w`` for each ``w ∈ W`` in its cluster independently with
probability ``q = min(2µ/|C|, 1)``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from repro.hybrid.network import HybridNetwork
from repro.localnet.clustering import cluster_around_rulers
from repro.util.rand import RandomSource


@dataclass
class HelperSets:
    """A family of helper sets for the member set ``W`` (Definition 2.1).

    Attributes
    ----------
    members:
        The set ``W`` the helpers were computed for.
    mu:
        The size/radius parameter ``µ`` of Definition 2.1.
    helpers:
        ``w -> sorted list of helper nodes`` for every ``w ∈ W``.
    radius:
        The hop radius of the ruler clustering the construction is based on
        (it bounds property (2) and the Routing-Preparation floods).
    rounds_charged:
        Rounds consumed by Algorithm 1 (ruling set + the exploration loops).
    """

    members: list[int]
    mu: int
    helpers: dict[int, list[int]]
    radius: int
    rounds_charged: int

    def min_helper_count(self) -> int:
        """Smallest ``|H_w|`` over all members (property (1) wants ``≥ µ``)."""
        if not self.helpers:
            return 0
        return min(len(h) for h in self.helpers.values())

    def max_membership_load(self) -> int:
        """Largest number of helper sets any single node belongs to (property (3))."""
        load: dict[int, int] = {}
        for helper_nodes in self.helpers.values():
            for node in helper_nodes:
                load[node] = load.get(node, 0) + 1
        return max(load.values()) if load else 0

    def max_helper_radius(self, network: HybridNetwork) -> int:
        """Largest hop distance between a member and one of its helpers (property (2))."""
        worst = 0
        members = [member for member, helper_nodes in self.helpers.items() if helper_nodes]
        all_hops = network.local_graph.bfs_hops_many(members)
        for member, hops in zip(members, all_hops, strict=True):
            for helper in self.helpers[member]:
                worst = max(worst, int(hops.get(helper, network.n)))
        return worst


def helper_parameter(n: int, member_count: int, tokens_per_member: int) -> int:
    """The ``µ = ⌊min(√k, n/|W|)⌋`` of Lemma 2.2 (clamped to ``≥ 1``)."""
    if member_count <= 0:
        return 1
    bound_by_tokens = math.isqrt(max(tokens_per_member, 1))
    bound_by_density = max(1, n // member_count)
    return max(1, min(bound_by_tokens, bound_by_density))


def compute_helper_sets(
    network: HybridNetwork,
    members: Sequence[int],
    tokens_per_member: int,
    phase: str = "helper-sets",
    rng: RandomSource | None = None,
) -> HelperSets:
    """Run Algorithm 1 (``Compute-Helpers``) for the member set ``W``.

    Parameters
    ----------
    network:
        The HYBRID network.
    members:
        The set ``W`` (senders or receivers); assumed to be reasonably well
        spread (the paper samples them uniformly at random).
    tokens_per_member:
        The per-member workload ``k`` that determines ``µ``.
    rng:
        Randomness for the helper sampling step; defaults to a fork of the
        network's root source.
    """
    member_list = sorted(set(members))
    if not member_list:
        raise ValueError("the member set W must be non-empty")
    rng = rng or network.fork_rng(phase + ":sampling")
    rounds_before = network.metrics.total_rounds

    mu = helper_parameter(network.n, len(member_list), tokens_per_member)
    clustering = cluster_around_rulers(network, mu, phase)

    member_set = set(member_list)
    helpers: dict[int, list[int]] = {member: [] for member in member_list}
    for cluster_array in clustering.members.values():
        cluster_members = cluster_array.tolist()
        cluster_size = len(cluster_members)
        local_members = [node for node in cluster_members if node in member_set]
        if not local_members:
            continue
        probability = min(2.0 * mu / cluster_size, 1.0)
        for node in cluster_members:
            for member in local_members:
                if rng.bernoulli(probability):
                    helpers[member].append(node)
    # A member always serves as its own helper; this guarantees non-empty
    # helper sets even in the degenerate small-n / tiny-cluster regime where
    # the w.h.p. size guarantee of Lemma 2.2 has no bite.
    for member in member_list:
        if member not in helpers[member]:
            helpers[member].append(member)
    for member in member_list:
        helpers[member].sort()

    rounds_charged = network.metrics.total_rounds - rounds_before
    return HelperSets(
        members=member_list,
        mu=mu,
        helpers=helpers,
        radius=clustering.radius,
        rounds_charged=rounds_charged,
    )
