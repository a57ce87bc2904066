"""Tests for helper sets (Definition 2.1 / Algorithm 1 / Lemma 2.2)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.helper_sets import compute_helper_sets, helper_parameter, sample_helpers
from repro.graphs import generators
from repro.hybrid import HybridNetwork, ModelConfig
from repro.localnet.clustering import cluster_around_rulers
from repro.util.rand import RandomSource, sample_nodes


@pytest.fixture
def network():
    graph = generators.random_geometric_like_graph(
        60, neighbourhood=2, rng=RandomSource(5), extra_edge_probability=0.02
    )
    return HybridNetwork(graph, ModelConfig(rng_seed=4))


def sampled_members(network, probability, seed):
    members = sample_nodes(network.graph.nodes(), probability, RandomSource(seed))
    return members or [0]


def edge_list_hops(graph, source):
    """Hop distances from ``source`` by a BFS over ``graph.edges()``."""
    adjacency = {node: [] for node in range(graph.node_count)}
    for u, v, _ in graph.edges():
        adjacency[u].append(v)
        adjacency[v].append(u)
    hops, frontier, level = {source: 0}, [source], 0
    while frontier:
        level += 1
        reached = []
        for u in frontier:
            for v in adjacency[u]:
                if v not in hops:
                    hops[v] = level
                    reached.append(v)
        frontier = reached
    return hops


def scalar_helpers(clusters, members, mu, rng):
    """The sampling step of Algorithm 1 as one coin flip per pair (the oracle).

    Clusters in order, their nodes ascending, their members ascending; each
    pair joins with ``rng.bernoulli(q)``, which draws nothing at ``q >= 1``.
    Returns ``member -> sorted helper list``, every member helping itself.
    """
    member_set = set(members)
    helpers = {member: [] for member in members}
    for cluster_array in clusters.values():
        cluster_members = cluster_array.tolist()
        local_members = [node for node in cluster_members if node in member_set]
        if not local_members:
            continue
        probability = min(2.0 * mu / len(cluster_members), 1.0)
        for node in cluster_members:
            for member in local_members:
                if rng.bernoulli(probability):
                    helpers[member].append(node)
    for member in members:
        if member not in helpers[member]:
            helpers[member].append(member)
    return {member: sorted(nodes) for member, nodes in helpers.items()}


@st.composite
def clusterings(draw):
    """A partition of ``[0, n)`` into ascending clusters, a member set and µ."""
    n = draw(st.integers(min_value=1, max_value=60))
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=max(1, n - 1)), max_size=12)))
    cuts = [cut for cut in cuts if cut < n]
    pieces = [order[a:b] for a, b in zip([0, *cuts], [*cuts, n], strict=True)]
    clusters = {min(piece): np.array(sorted(piece), dtype=np.int64) for piece in pieces}
    members = sorted(draw(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1)))
    mu = draw(st.integers(min_value=1, max_value=8))
    return n, clusters, members, mu


class TestHelperParameter:
    def test_bounded_by_sqrt_k(self):
        assert helper_parameter(n=1000, member_count=10, tokens_per_member=49) == 7

    def test_bounded_by_density(self):
        assert helper_parameter(n=100, member_count=50, tokens_per_member=10_000) == 2

    def test_at_least_one(self):
        assert helper_parameter(n=10, member_count=10, tokens_per_member=0) == 1

    def test_empty_member_set(self):
        assert helper_parameter(n=10, member_count=0, tokens_per_member=5) == 1


class TestComputeHelperSets:
    def test_every_member_has_helpers(self, network):
        members = sampled_members(network, 0.2, seed=1)
        helpers = compute_helper_sets(network, members, tokens_per_member=9)
        assert set(helpers.helpers) == set(members)
        assert helpers.min_helper_count() >= 1

    def test_membership_load_is_small(self, network):
        members = sampled_members(network, 0.15, seed=2)
        helpers = compute_helper_sets(network, members, tokens_per_member=16)
        # Property (3) of Definition 2.1: Õ(1) sets per node; at this scale a
        # generous constant * log n bound.
        bound = 4 * network.config.log_rounds(network.n) + 4
        assert helpers.max_membership_load() <= bound

    def test_helpers_are_nearby(self, network):
        members = sampled_members(network, 0.15, seed=3)
        helpers = compute_helper_sets(network, members, tokens_per_member=16)
        # Property (2): hop distance Õ(µ); the clustering radius is the bound
        # our construction guarantees.
        radius_bound = 2 * helpers.radius + 1
        assert helpers.max_helper_radius(network) <= radius_bound

    def test_mu_matches_parameter_formula(self, network):
        members = sampled_members(network, 0.2, seed=4)
        helpers = compute_helper_sets(network, members, tokens_per_member=25)
        assert helpers.mu == helper_parameter(network.n, len(set(members)), 25)

    def test_rounds_charged_positive(self, network):
        members = sampled_members(network, 0.2, seed=5)
        before = network.metrics.total_rounds
        helpers = compute_helper_sets(network, members, tokens_per_member=4)
        assert helpers.rounds_charged == network.metrics.total_rounds - before
        assert helpers.rounds_charged > 0

    def test_empty_member_set_rejected(self, network):
        with pytest.raises(ValueError):
            compute_helper_sets(network, [], tokens_per_member=3)

    def test_member_is_its_own_helper_fallback(self, network):
        helpers = compute_helper_sets(network, [7], tokens_per_member=1)
        assert 7 in helpers.helpers[7]

    def test_helper_sets_grow_with_k(self, network):
        members = sampled_members(network, 0.1, seed=6)
        small_net = HybridNetwork(network.graph, ModelConfig(rng_seed=8))
        large_net = HybridNetwork(network.graph, ModelConfig(rng_seed=8))
        small = compute_helper_sets(small_net, members, tokens_per_member=1)
        large = compute_helper_sets(large_net, members, tokens_per_member=36)
        assert large.mu >= small.mu

    def test_deterministic_given_seed(self, network):
        members = sampled_members(network, 0.2, seed=7)
        net_a = HybridNetwork(network.graph, ModelConfig(rng_seed=42))
        net_b = HybridNetwork(network.graph, ModelConfig(rng_seed=42))
        a = compute_helper_sets(net_a, members, tokens_per_member=9)
        b = compute_helper_sets(net_b, members, tokens_per_member=9)
        assert np.array_equal(a.members, b.members)
        assert np.array_equal(a.nodes, b.nodes) and np.array_equal(a.bounds, b.bounds)
        assert a.helpers.keys() == b.helpers.keys()
        assert all(np.array_equal(a.helpers[m], b.helpers[m]) for m in a.helpers)

    def test_helpers_are_int64_arrays(self, network):
        helpers = compute_helper_sets(network, sampled_members(network, 0.2, seed=8), 9)
        for column in (helpers.members, helpers.nodes, helpers.bounds):
            assert column.dtype == np.int64
        assert all(nodes.dtype == np.int64 for nodes in helpers.helpers.values())
        assert helpers.bounds[0] == 0 and helpers.bounds[-1] == helpers.nodes.size

    def test_matches_scalar_sampling_on_the_clustering(self, network):
        # compute_helper_sets end to end against the per-pair loop over the
        # same clustering and the same forked source.
        members = sampled_members(network, 0.2, seed=9)
        helpers = compute_helper_sets(network, members, tokens_per_member=16)
        replay = HybridNetwork(network.graph, ModelConfig(rng_seed=4))
        clustering = cluster_around_rulers(replay, helpers.mu, "helper-sets")
        oracle = scalar_helpers(
            clustering.members,
            sorted(set(members)),
            helpers.mu,
            replay.fork_rng("helper-sets:sampling"),
        )
        assert {m: nodes.tolist() for m, nodes in helpers.helpers.items()} == oracle

    def test_audits_match_the_scalar_definitions(self, network):
        members = sampled_members(network, 0.3, seed=10)
        helpers = compute_helper_sets(network, members, tokens_per_member=16)
        per_member = helpers.helpers
        assert helpers.min_helper_count() == min(len(nodes) for nodes in per_member.values())
        load = {}
        for nodes in per_member.values():
            for node in nodes.tolist():
                load[node] = load.get(node, 0) + 1
        assert helpers.max_membership_load() == max(load.values())
        hops = {member: edge_list_hops(network.graph, member) for member in per_member}
        worst = max(
            hops[member].get(node, network.n)
            for member, nodes in per_member.items()
            for node in nodes.tolist()
        )
        assert helpers.max_helper_radius(network) == worst

    def test_members_outside_the_network_rejected(self, network):
        with pytest.raises(ValueError):
            compute_helper_sets(network, [0, network.n], tokens_per_member=3)


class TestBatchedSampling:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(clusterings(), st.integers(min_value=0, max_value=2**32))
    def test_equals_scalar_loop(self, case, seed):
        n, clusters, members, mu = case
        batched_rng, scalar_rng = RandomSource(seed), RandomSource(seed)
        nodes, bounds = sample_helpers(
            clusters, np.array(members, dtype=np.int64), mu, n, batched_rng
        )
        expected = scalar_helpers(clusters, members, mu, scalar_rng)
        assert nodes.dtype == np.int64 and bounds.dtype == np.int64
        assert bounds.size == len(members) + 1
        assert bounds[0] == 0 and bounds[-1] == nodes.size
        pieces = np.split(nodes, bounds[1:-1])
        got = {member: piece.tolist() for member, piece in zip(members, pieces, strict=True)}
        assert got == expected
        # Both paths consumed the same draws: the next draw agrees.
        assert batched_rng.random() == scalar_rng.random()

    def test_full_probability_clusters_draw_nothing(self):
        # Two clusters of 3 with µ = 2: q = min(4/3, 1) = 1, so no draw.
        clusters = {0: np.array([0, 1, 2]), 3: np.array([3, 4, 5])}
        rng, untouched = RandomSource(5), RandomSource(5)
        nodes, bounds = sample_helpers(clusters, np.array([1, 4]), 2, 6, rng)
        assert nodes.tolist() == [0, 1, 2, 3, 4, 5] and bounds.tolist() == [0, 3, 6]
        assert rng.random() == untouched.random()
