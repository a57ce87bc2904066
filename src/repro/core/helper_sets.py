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

The helper sets are int64 arrays: one helper column grouped per member
(:class:`HelperSets`), sampled with one draw of uniforms for every coin flip
(:func:`sample_helpers`).
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.graphs import csr as csr_kernels
from repro.hybrid.network import HybridNetwork
from repro.localnet.clustering import cluster_around_rulers
from repro.util.rand import RandomSource


@dataclass(frozen=True, eq=False)
class HelperSets:
    """A family of helper sets for the member set ``W`` (Definition 2.1).

    The helpers are one int64 column grouped per member: member
    ``members[j]`` is helped by ``nodes[bounds[j]:bounds[j + 1]]``, ascending.

    Attributes
    ----------
    members:
        The set ``W`` the helpers were computed for (ascending int64).
    mu:
        The size/radius parameter ``µ`` of Definition 2.1.
    nodes, bounds:
        The helper column and each member's slice of it (int64).
    radius:
        The hop radius of the ruler clustering the construction is based on
        (it bounds property (2) and the Routing-Preparation floods).
    rounds_charged:
        Rounds consumed by Algorithm 1 (ruling set + the exploration loops).
    """

    members: np.ndarray
    mu: int
    nodes: np.ndarray
    bounds: np.ndarray
    radius: int
    rounds_charged: int

    def __post_init__(self) -> None:
        for column in (self.members, self.nodes, self.bounds):
            column.setflags(write=False)

    @property
    def helpers(self) -> dict[int, np.ndarray]:
        """``w -> ascending int64 helper nodes`` for every ``w ∈ W``."""
        pieces = np.split(self.nodes, self.bounds[1:-1])
        return dict(zip(self.members.tolist(), pieces, strict=True))

    def counts(self) -> np.ndarray:
        """``|H_w|`` per member, in member order."""
        return np.diff(self.bounds)

    def min_helper_count(self) -> int:
        """Smallest ``|H_w|`` over all members (property (1) wants ``≥ µ``)."""
        return int(self.counts().min()) if self.members.size else 0

    def max_membership_load(self) -> int:
        """Largest number of helper sets any single node belongs to (property (3))."""
        return int(np.bincount(self.nodes).max()) if self.nodes.size else 0

    def max_helper_radius(self, network: HybridNetwork) -> int:
        """Largest hop distance between a member and one of its helpers (property (2)).

        A helper its member cannot reach counts as ``n`` hops.
        """
        if not self.nodes.size:
            return 0
        levels = csr_kernels.bfs_level_matrix(network.graph.csr(), self.members)
        hops = levels[np.repeat(np.arange(self.members.size), self.counts()), self.nodes]
        return int(np.where(hops < 0, network.n, hops).max())


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
    if member_list[0] < 0 or member_list[-1] >= network.n:
        raise ValueError(f"the member set W must lie in [0, {network.n})")
    rng = rng or network.fork_rng(phase + ":sampling")
    rounds_before = network.metrics.total_rounds

    mu = helper_parameter(network.n, len(member_list), tokens_per_member)
    clustering = cluster_around_rulers(network, mu, phase)

    member_array = np.array(member_list, dtype=np.int64)
    nodes, bounds = sample_helpers(clustering.members, member_array, mu, network.n, rng)
    rounds_charged = network.metrics.total_rounds - rounds_before
    return HelperSets(
        members=member_array,
        mu=mu,
        nodes=nodes,
        bounds=bounds,
        radius=clustering.radius,
        rounds_charged=rounds_charged,
    )


def sample_helpers(
    clusters: Mapping[int, np.ndarray], members: np.ndarray, mu: int, n: int, rng: RandomSource
) -> tuple[np.ndarray, np.ndarray]:
    """The sampling step of Algorithm 1: the helper column and its member bounds.

    ``clusters`` partitions ``[0, n)`` (ascending int64 members per cluster,
    in cluster order) and ``members`` is ``W``, ascending.  Every cluster
    node joins ``H_w`` for each ``w ∈ W`` of its cluster independently with
    probability ``q = min(2µ/|C|, 1)``: one coin flip per (cluster node,
    local member) pair, in (cluster, node, member) order.  Clusters with
    ``q ≥ 1`` keep every pair without a draw, so only the other clusters'
    pairs consume randomness, all from one :meth:`RandomSource.uniforms`
    draw (``u < q``).  No per-pair column is built: a cluster with ``L``
    local members numbers its pairs ``node rank · L + member rank``, so a
    kept pair's flat index decodes to its cluster (one ``searchsorted`` over
    the clusters' pair offsets) and to its node and member (one ``divmod``
    by ``L``).  A member always serves as its own helper; this guarantees
    non-empty helper sets even in the degenerate small-n / tiny-cluster
    regime where the w.h.p. size guarantee of Lemma 2.2 has no bite.

    Returns ``(nodes, bounds)`` as in :class:`HelperSets`.
    """
    column = np.concatenate(list(clusters.values()))
    sizes = np.array([nodes.size for nodes in clusters.values()], dtype=np.int64)
    is_member = np.zeros(n, dtype=bool)
    is_member[members] = True
    local = is_member[column]
    local_counts = np.bincount(np.repeat(np.arange(sizes.size), sizes)[local], minlength=sizes.size)
    local_members = column[local]
    node_starts = np.cumsum(sizes) - sizes
    member_starts = np.cumsum(local_counts) - local_counts
    probability = np.minimum(2.0 * mu / sizes, 1.0)
    pairs = sizes * local_counts
    drawn = np.flatnonzero((probability < 1.0) & (pairs > 0))
    full = np.flatnonzero((probability >= 1.0) & (pairs > 0))

    def decode(groups: np.ndarray, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (member, node) of each flat pair index over the ``groups`` clusters' pairs."""
        ends = np.cumsum(pairs[groups])
        position = np.searchsorted(ends, flat, side="right")
        cluster = groups[position]
        node_rank, member_rank = np.divmod(
            flat - (ends - pairs[groups])[position], local_counts[cluster]
        )
        return (
            local_members[member_starts[cluster] + member_rank],
            column[node_starts[cluster] + node_rank],
        )

    coins = rng.uniforms(int(pairs[drawn].sum()))
    hit_members, hit_nodes = decode(
        drawn, np.flatnonzero(coins < np.repeat(probability[drawn], pairs[drawn]))
    )
    full_members, full_nodes = decode(full, np.arange(pairs[full].sum()))
    # One sorted ``member · n + node`` key column groups the helpers per member.
    keys = np.unique(
        np.concatenate((hit_members, full_members, members)) * n
        + np.concatenate((hit_nodes, full_nodes, members))
    )
    return keys % n, np.searchsorted(keys, np.append(members, n) * n)
