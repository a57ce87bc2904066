"""Tests for helper sets (Definition 2.1 / Algorithm 1 / Lemma 2.2)."""

import pytest

from repro.core.helper_sets import compute_helper_sets, helper_parameter
from repro.graphs import generators
from repro.hybrid import HybridNetwork, ModelConfig
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
        assert a.helpers == b.helpers
