"""Tests for the lower-bound constructions of Sections 6 and 7."""

import pytest

from repro.graphs import reference
from repro.hybrid import ModelConfig
from repro.hybrid.config import MESSAGE_BITS
from repro.lower_bounds import (
    assignment_entropy_bits,
    build_gamma_gadget,
    build_kssp_gadget,
    choose_parameters,
    classify_disjointness_from_diameter,
    disjointness_bits_required,
    distance_gap_factor,
    implied_round_lower_bound,
    measure_cut_traffic,
    per_round_cut_capacity_bits,
    predicted_diameter,
    random_disjointness_instance,
    suggested_bottleneck_distance,
    verify_simulation_partition,
)
from repro.lower_bounds.set_disjointness import (
    implied_round_lower_bound as diameter_round_lower_bound,
)
from repro.util.rand import RandomSource


class TestKSSPGadget:
    def test_construction_counts(self):
        gadget = build_kssp_gadget(path_hops=40, source_count=16, rng=RandomSource(1))
        assert gadget.graph.node_count == 41 + 16
        assert gadget.source_count == 16
        assert len(gadget.near_sources) == 8
        assert gadget.graph.is_connected()

    def test_default_bottleneck_distance(self):
        gadget = build_kssp_gadget(path_hops=40, source_count=16, rng=RandomSource(2))
        assert gadget.bottleneck_distance == suggested_bottleneck_distance(16) == 4

    def test_distance_gap_is_large(self):
        gadget = build_kssp_gadget(path_hops=60, source_count=16, rng=RandomSource(3))
        factor = distance_gap_factor(gadget)
        # Θ(n / √k): here 61 / 5 ≈ 12.
        assert factor >= (gadget.path_hops + 1) / (gadget.bottleneck_distance + 1) - 1

    def test_near_and_far_distances(self):
        gadget = build_kssp_gadget(path_hops=30, source_count=8, rng=RandomSource(4))
        distances = reference.single_source_distances(gadget.graph, gadget.bottleneck_node)
        for s in gadget.near_sources:
            assert distances[s] == gadget.bottleneck_distance + 1
        for s in gadget.far_sources:
            assert distances[s] == gadget.path_hops + 1

    def test_entropy_is_about_k_bits(self):
        gadget = build_kssp_gadget(path_hops=50, source_count=20, rng=RandomSource(5))
        entropy = assignment_entropy_bits(gadget)
        assert 0.6 * 20 <= entropy <= 20

    def test_implied_round_lower_bound_positive(self):
        gadget = build_kssp_gadget(path_hops=50, source_count=24, rng=RandomSource(6))
        bound = implied_round_lower_bound(gadget, message_bits=64, send_cap=6)
        assert 0 < bound <= gadget.bottleneck_distance

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            build_kssp_gadget(path_hops=1, source_count=4, rng=RandomSource(7))
        with pytest.raises(ValueError):
            build_kssp_gadget(path_hops=10, source_count=1, rng=RandomSource(7))
        with pytest.raises(ValueError):
            build_kssp_gadget(
                path_hops=5, source_count=100, rng=RandomSource(7), bottleneck_distance=10
            )


class TestGammaGadget:
    def make(self, disjoint, weight, k=3, path_hops=4, seed=1):
        a, b = random_disjointness_instance(k, RandomSource(seed), disjoint=disjoint)
        return build_gamma_gadget(k, path_hops, weight, a, b)

    def test_lemma_71_weighted_disjoint(self):
        gadget = self.make(disjoint=True, weight=10)
        diameter = reference.weighted_diameter(gadget.graph)
        assert diameter <= gadget.weight + 2 * gadget.path_hops
        assert predicted_diameter(gadget) == gadget.weight + 2 * gadget.path_hops

    def test_lemma_71_weighted_intersecting(self):
        gadget = self.make(disjoint=False, weight=10)
        diameter = reference.weighted_diameter(gadget.graph)
        assert diameter >= 2 * gadget.weight + gadget.path_hops

    def test_lemma_72_unweighted_disjoint(self):
        gadget = self.make(disjoint=True, weight=1)
        assert reference.hop_diameter(gadget.graph) == gadget.path_hops + 1

    def test_lemma_72_unweighted_intersecting(self):
        gadget = self.make(disjoint=False, weight=1)
        assert reference.hop_diameter(gadget.graph) == gadget.path_hops + 2

    def test_classification_from_exact_diameter(self):
        for disjoint in (True, False):
            gadget = self.make(disjoint=disjoint, weight=12, seed=3)
            diameter = reference.weighted_diameter(gadget.graph)
            assert classify_disjointness_from_diameter(gadget, diameter) == disjoint

    def test_columns_partition_all_nodes(self):
        gadget = self.make(disjoint=True, weight=5, k=3, path_hops=5)
        columns = gadget.columns()
        nodes = sorted(node for column in columns for node in column)
        assert nodes == list(range(gadget.node_count))
        assert len(columns) == gadget.path_hops + 1

    def test_alice_bob_cover_everything(self):
        gadget = self.make(disjoint=True, weight=5, path_hops=6)
        rounds = gadget.path_hops // 2
        for r in range(rounds):
            covered = set(gadget.alice_nodes(r)) | set(gadget.bob_nodes(r))
            assert covered == set(range(gadget.node_count))

    def test_simulation_partition_property(self):
        gadget = self.make(disjoint=False, weight=7, path_hops=6)
        assert verify_simulation_partition(gadget, rounds=gadget.path_hops // 2)

    def test_input_length_validation(self):
        with pytest.raises(ValueError):
            build_gamma_gadget(3, 4, 5, [0] * 8, [0] * 9)

    def test_disjointness_flag(self):
        gadget = self.make(disjoint=True, weight=5)
        assert gadget.disjoint()
        gadget = self.make(disjoint=False, weight=5)
        assert not gadget.disjoint()


class TestSetDisjointnessAccounting:
    def test_choose_parameters_respects_budget(self):
        params = choose_parameters(300)
        assert params.node_count <= 330
        assert params.k >= 2 and params.path_hops >= 2

    def test_required_bits_quadratic(self):
        assert disjointness_bits_required(10) == 100

    def test_cut_capacity_formula(self):
        config = ModelConfig()
        expected = 64 * config.send_cap(64) * MESSAGE_BITS
        assert per_round_cut_capacity_bits(64, config) == expected

    def test_implied_lower_bound_bounded_by_half_path(self):
        a, b = random_disjointness_instance(3, RandomSource(5), disjoint=True)
        gadget = build_gamma_gadget(3, 6, 7, a, b)
        bound = diameter_round_lower_bound(gadget, ModelConfig())
        assert bound <= gadget.path_hops // 2

    def test_measure_cut_traffic_with_aggregation(self):
        from repro.localnet.aggregation import aggregate_max

        a, b = random_disjointness_instance(3, RandomSource(6), disjoint=True)
        gadget = build_gamma_gadget(3, 6, 1, a, b)
        measurement = measure_cut_traffic(
            gadget,
            ModelConfig(rng_seed=1),
            lambda network: aggregate_max(network, {0: 1.0, gadget.u_hub: 2.0}),
        )
        assert measurement.cut_bits > 0
        assert measurement.total_rounds > 0
        assert measurement.required_bits == gadget.k ** 2
