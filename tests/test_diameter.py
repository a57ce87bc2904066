"""Tests for diameter approximation in the HYBRID model (Section 5, Theorem 5.1)."""

import zlib

import pytest

from repro.clique import EccentricityDiameter, GatherDiameter
from repro.core.diameter import approximate_diameter
from repro.graphs import generators
from repro.graphs.graph import WeightedGraph
from repro.hybrid import FaultModel, HybridNetwork, ModelConfig
from repro.session import HybridSession
from repro.util.rand import RandomSource


def make_network(graph, seed):
    return HybridNetwork(graph, ModelConfig(rng_seed=seed, skeleton_xi=1.0))


class TestDiameterApproximation:
    @pytest.mark.parametrize("seed", [41, 42])
    def test_exact_clique_algorithm_on_random_graph(self, seed):
        graph = generators.connected_workload(44, RandomSource(seed), weighted=False)
        network = make_network(graph, seed)
        result = approximate_diameter(network, GatherDiameter())
        true_diameter = graph.hop_diameter()
        assert true_diameter <= result.estimate
        assert result.estimate <= result.guaranteed_alpha() * true_diameter + 2 * result.hop_length

    def test_small_diameter_graphs_answered_exactly(self):
        graph = generators.connected_workload(
            40, RandomSource(43), weighted=False, average_degree=6.0
        )
        network = make_network(graph, 43)
        result = approximate_diameter(network, GatherDiameter())
        # D is tiny, so the local phase sees everything and Equation (3) takes
        # the exact branch.
        assert result.used_local_estimate
        assert result.estimate == graph.hop_diameter()

    def test_large_diameter_ring(self):
        graph = generators.random_geometric_like_graph(
            60, neighbourhood=2, rng=RandomSource(44), extra_edge_probability=0.0
        )
        network = make_network(graph, 44)
        result = approximate_diameter(network, GatherDiameter())
        true_diameter = graph.hop_diameter()
        assert true_diameter <= result.estimate <= 1.5 * true_diameter + 2 * result.hop_length

    def test_eccentricity_based_approximation(self):
        graph = generators.random_geometric_like_graph(
            50, neighbourhood=2, rng=RandomSource(45), extra_edge_probability=0.0
        )
        network = make_network(graph, 45)
        result = approximate_diameter(network, EccentricityDiameter())
        true_diameter = graph.hop_diameter()
        assert result.estimate >= true_diameter
        limit = (result.guaranteed_alpha()) * true_diameter + 2 * result.hop_length
        assert result.estimate <= limit

    def test_path_graph_exact_branch_vs_skeleton_branch(self):
        path = generators.path_graph(30)
        network = make_network(path, 46)
        result = approximate_diameter(network, GatherDiameter())
        assert result.estimate >= path.hop_diameter()

    def test_weighted_graph_rejected(self):
        graph = generators.connected_workload(20, RandomSource(47), weighted=True, max_weight=5)
        network = make_network(graph, 47)
        with pytest.raises(ValueError):
            approximate_diameter(network, GatherDiameter())

    def test_metadata_recorded(self):
        graph = generators.connected_workload(30, RandomSource(48), weighted=False)
        network = make_network(graph, 48)
        result = approximate_diameter(network, GatherDiameter())
        assert result.rounds == network.metrics.total_rounds
        assert result.skeleton_size >= 1
        assert result.clique_rounds >= 1
        assert result.local_max_hop >= 1

    def test_guaranteed_alpha_formula(self):
        graph = generators.connected_workload(30, RandomSource(49), weighted=False)
        network = make_network(graph, 49)
        result = approximate_diameter(network, EccentricityDiameter())
        spec = result.spec
        expected = spec.alpha + 2.0 / spec.eta + spec.beta / max(1, result.exploration_depth)
        assert result.guaranteed_alpha() == pytest.approx(expected)

    def test_disconnected_graph_rejected_before_any_charge(self):
        # Two 20-node paths: Section 5 assumes a connected G.
        graph = WeightedGraph.from_edges(40, [(u, u + 1, 1) for u in range(39) if u != 19])
        network = make_network(graph, 50)
        with pytest.raises(ValueError, match="connected"):
            approximate_diameter(network, GatherDiameter())
        assert network.metrics.total_rounds == 0


def unfit_session(case):
    """A cold session on a graph Section 5 does not cover."""
    if case == "weighted":
        graph = generators.connected_workload(40, RandomSource(52), weighted=True, max_weight=5)
        return HybridSession(graph, ModelConfig(rng_seed=52))
    graph = WeightedGraph.from_edges(40, [(u, u + 1, 1) for u in range(39) if u != 19])
    return HybridSession(graph, ModelConfig(rng_seed=52))


class TestSessionDiameterValidation:
    @pytest.mark.parametrize("case", ["weighted", "disconnected"])
    def test_rejected_before_any_charge(self, case):
        session = unfit_session(case)
        with pytest.raises(ValueError):
            session.diameter()
        assert session.metrics.total_rounds == 0
        assert session.preprocessing_rounds == 0
        assert session.queries == []


DIAMETER_GRAPHS = {
    "workload64": lambda: generators.connected_workload(64, RandomSource(7), weighted=False),
    "dense40": lambda: generators.connected_workload(
        40, RandomSource(43), weighted=False, average_degree=6.0
    ),
    "ring60": lambda: generators.random_geometric_like_graph(
        60, neighbourhood=2, rng=RandomSource(44), extra_edge_probability=0.0
    ),
    "ring50": lambda: generators.random_geometric_like_graph(
        50, neighbourhood=2, rng=RandomSource(45), extra_edge_probability=0.0
    ),
    "path30": lambda: generators.path_graph(30),
    "path80": lambda: generators.path_graph(80),
    "cycle120": lambda: generators.cycle_graph(120),
    "ring300": lambda: generators.random_geometric_like_graph(
        300, neighbourhood=2, rng=RandomSource(8), extra_edge_probability=0.0
    ),
    "locality256": lambda: generators.random_geometric_like_graph(
        256, neighbourhood=2, rng=RandomSource(1), extra_edge_probability=0.01
    ),
}


class TestAlgorithm9Pins:
    """Algorithm 9's answers and accounting, recorded with the n-source local phase.

    Recorded when step 3 ran one bounded BFS per node and aggregated the n
    per-node maxima.  The path graphs take the skeleton branch
    (``D > η·h``), the others the exact one.  A key is (graph, seed, CLIQUE
    algorithm, 5% message drops).  ``ANSWERS`` holds (ĥ, exact branch taken,
    D̃, η·h + 1); ``ACCOUNTING`` holds (aggregate rounds, total rounds,
    global messages, global bits, dropped messages, CRC of every phase's
    local and global rounds).
    """

    ANSWERS = {
        ("workload64", 7, "gather", False): (6.0, True, 6.0, 52),
        ("dense40", 43, "gather", False): (4.0, True, 4.0, 35),
        ("ring60", 44, "gather", False): (15.0, True, 15.0, 49),
        ("ring50", 45, "eccentricity", False): (13.0, True, 13.0, 42),
        ("path30", 46, "gather", False): (28.0, False, 63.0, 28),
        ("locality256", 1, "gather", False): (56.0, True, 56.0, 156),
        ("workload64", 7, "gather", True): (6.0, True, 6.0, 52),
        ("ring60", 44, "eccentricity", True): (15.0, True, 15.0, 49),
        ("path80", 5, "gather", False): (62.0, False, 180.0, 62),
        ("cycle120", 6, "eccentricity", False): (60.0, True, 60.0, 86),
        ("ring300", 8, "gather", False): (75.0, True, 75.0, 176),
        ("path80", 5, "gather", True): (62.0, False, 180.0, 62),
    }
    ACCOUNTING = {
        ("workload64", 7, "gather", False): (6, 186, 1041, 66624, 0, 3944900967),
        ("dense40", 43, "gather", False): (6, 107, 524, 33536, 0, 4116704116),
        ("ring60", 44, "gather", False): (6, 268, 705, 45120, 0, 1646774899),
        ("ring50", 45, "eccentricity", False): (6, 210, 586, 37504, 0, 3603132653),
        ("path30", 46, "gather", False): (5, 153, 289, 18496, 0, 3253646988),
        ("locality256", 1, "gather", False): (8, 510, 4445, 284480, 0, 1698650593),
        ("workload64", 7, "gather", True): (6, 255, 1645, 105280, 100, 2024592676),
        ("ring60", 44, "eccentricity", True): (6, 259, 865, 55360, 39, 961403593),
        ("path80", 5, "gather", False): (7, 586, 2317, 148288, 0, 889480622),
        ("cycle120", 6, "eccentricity", False): (7, 305, 1687, 107968, 0, 208731427),
        ("ring300", 8, "gather", False): (9, 497, 4873, 311872, 0, 320693450),
        ("path80", 5, "gather", True): (7, 699, 4016, 257024, 206, 2739115149),
    }

    @pytest.mark.parametrize("key", sorted(ANSWERS))
    def test_matches_recorded(self, key):
        name, seed, algorithm, drops = key
        faults = FaultModel(drop_rate=0.05, seed=3) if drops else None
        network = HybridNetwork(
            DIAMETER_GRAPHS[name](), ModelConfig(rng_seed=seed, skeleton_xi=1.0, faults=faults)
        )
        clique = GatherDiameter() if algorithm == "gather" else EccentricityDiameter()
        result = approximate_diameter(network, clique)
        metrics = network.metrics
        phases = sorted((p, b.local_rounds, b.global_rounds) for p, b in metrics.phases.items())
        answer = (
            result.local_max_hop,
            result.used_local_estimate,
            result.estimate,
            result.exploration_depth,
        )
        accounting = (
            metrics.phases["diameter:aggregate"].global_rounds,
            metrics.total_rounds,
            metrics.global_messages,
            metrics.global_bits,
            metrics.global_dropped,
            zlib.crc32(repr(phases).encode()),
        )
        assert answer == self.ANSWERS[key]
        assert accounting == self.ACCOUNTING[key]
