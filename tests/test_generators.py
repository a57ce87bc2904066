"""Unit tests for the workload graph generators (repro.graphs.generators)."""

import numpy
import pytest

from repro.graphs import generators
from repro.util.rand import RandomSource


def degrees(graph):
    """Every node's degree, read from the CSR view's row bounds."""
    return numpy.diff(graph.csr().indptr)


@pytest.fixture
def rng():
    return RandomSource(42)


class TestSimpleFamilies:
    def test_path_graph(self):
        graph = generators.path_graph(6)
        assert graph.edge_count == 5
        assert graph.hop_diameter() == 5

    def test_cycle_graph(self):
        graph = generators.cycle_graph(8)
        assert graph.edge_count == 8
        assert graph.hop_diameter() == 4

    def test_cycle_too_small(self):
        with pytest.raises(ValueError):
            generators.cycle_graph(2)

    def test_star_graph(self):
        graph = generators.star_graph(7)
        assert degrees(graph)[0] == 6
        assert graph.hop_diameter() == 2

    def test_complete_graph(self):
        graph = generators.complete_graph(6)
        assert graph.edge_count == 15
        assert graph.hop_diameter() == 1

    def test_grid_graph(self):
        graph = generators.grid_graph(3, 4)
        assert graph.node_count == 12
        assert graph.hop_diameter() == 5

    def test_torus_graph_is_regular(self):
        graph = generators.torus_graph(4, 4)
        assert (degrees(graph) == 4).all()

    def test_torus_too_small(self):
        with pytest.raises(ValueError):
            generators.torus_graph(2, 5)

    def test_barbell_graph(self):
        graph = generators.barbell_graph(4, 3)
        assert graph.is_connected()
        assert graph.hop_diameter() == 3 + 2

    def test_caterpillar_graph(self):
        graph = generators.caterpillar_graph(5, 2)
        assert graph.node_count == 15
        assert graph.is_connected()


class TestRandomFamilies:
    def test_random_tree_is_tree(self, rng):
        graph = generators.random_tree(20, rng)
        assert graph.edge_count == 19
        assert graph.is_connected()

    def test_random_connected_graph_connected(self, rng):
        graph = generators.random_connected_graph(40, 4.0, rng)
        assert graph.is_connected()

    def test_random_connected_graph_degree(self, rng):
        graph = generators.random_connected_graph(60, 5.0, rng)
        average_degree = 2 * graph.edge_count / graph.node_count
        assert 3.0 <= average_degree <= 6.0

    def test_random_connected_graph_weighted(self, rng):
        graph = generators.random_connected_graph(30, 3.0, rng, max_weight=10)
        weights = {w for _, _, w in graph.edges()}
        assert max(weights) <= 10
        assert min(weights) >= 1

    def test_random_connected_graph_rejects_low_degree(self, rng):
        with pytest.raises(ValueError):
            generators.random_connected_graph(10, 0.5, rng)

    def test_geometric_like_graph_connected_and_local(self, rng):
        graph = generators.random_geometric_like_graph(50, 2, rng, extra_edge_probability=0.0)
        assert graph.is_connected()
        assert graph.hop_diameter() >= 50 // (2 * 2) - 1

    def test_clustered_isp_graph(self, rng):
        graph = generators.clustered_isp_graph(5, 8, rng)
        assert graph.node_count == 40
        assert graph.is_connected()

    def test_datacenter_pod_graph(self):
        graph = generators.datacenter_pod_graph(3, 2, 4)
        assert graph.is_connected()
        # core + agg + racks + servers
        assert graph.node_count == 3 + 3 + 6 + 24

    def test_connected_workload_unweighted(self, rng):
        graph = generators.connected_workload(30, rng, weighted=False)
        assert graph.is_unweighted()
        assert graph.is_connected()

    def test_connected_workload_weighted(self, rng):
        graph = generators.connected_workload(30, rng, weighted=True, max_weight=12)
        assert not graph.is_unweighted() or graph.max_weight() == 1
        assert graph.is_connected()

    def test_assign_random_weights_bounds(self, rng):
        graph = generators.path_graph(10)
        weighted = generators.assign_random_weights(graph, 6, rng)
        assert all(1 <= w <= 6 for _, _, w in weighted.edges())
        assert weighted.edge_count == graph.edge_count


class TestScenarioFamilies:
    def test_power_law_graph_connected_with_hubs(self, rng):
        graph = generators.power_law_graph(150, rng, attachment=2)
        assert graph.is_connected()
        # Preferential attachment concentrates degree: the busiest node sees
        # many times the average degree.
        average = 2.0 * graph.edge_count / graph.node_count
        assert degrees(graph).max() >= 3 * average

    def test_power_law_graph_weighted(self, rng):
        graph = generators.power_law_graph(60, rng, attachment=3, max_weight=9)
        assert graph.is_connected()
        assert 1 <= graph.max_weight() <= 9

    def test_power_law_graph_pinned_edges(self):
        # Regression pin for the RL002 fix: attachment targets are drawn from
        # a set whose iteration order used to leak hash-table internals into
        # the endpoint multiset (and hence into every later degree-
        # proportional draw).  The generator now iterates sorted(chosen), so
        # this exact edge list is a pure function of the seed on every
        # interpreter.
        graph = generators.power_law_graph(12, RandomSource(7), attachment=2)
        edges = sorted((min(u, v), max(u, v), w) for u, v, w in graph.edges())
        expected_pairs = [
            (0, 1),
            (0, 2),
            (0, 3),
            (0, 4),
            (0, 7),
            (0, 8),
            (0, 9),
            (1, 2),
            (1, 4),
            (1, 5),
            (1, 6),
            (1, 7),
            (2, 3),
            (2, 5),
            (2, 6),
            (2, 10),
            (2, 11),
            (3, 9),
            (3, 11),
            (4, 8),
            (8, 10),
        ]
        assert edges == [(u, v, 1) for u, v in expected_pairs]

    def test_power_law_rejects_bad_parameters(self, rng):
        with pytest.raises(ValueError):
            generators.power_law_graph(1, rng)
        with pytest.raises(ValueError):
            generators.power_law_graph(10, rng, attachment=0)

    def test_grid_with_highways(self, rng):
        graph = generators.grid_with_highways_graph(8, 12, 10, rng)
        base_edges = 8 * 11 + 7 * 12
        assert graph.is_connected()
        assert graph.edge_count > base_edges
        # Highways are cheaper than streets, so weighted distances can
        # undercut street-only paths.
        assert graph.max_weight() == 4
        assert not graph.is_unweighted()

    def test_grid_with_highways_rejects_negative_count(self, rng):
        with pytest.raises(ValueError):
            generators.grid_with_highways_graph(4, 4, -1, rng)

    def test_hierarchical_isp_graph(self, rng):
        graph = generators.hierarchical_isp_graph(5, 3, 4, rng)
        assert graph.node_count == 5 + 15 + 60
        assert graph.is_connected()
        # Leaves are degree-1 access nodes hanging off regionals.
        leaf_base = 5 + 15
        assert (degrees(graph)[leaf_base:] == 1).all()

    def test_hierarchical_isp_rejects_bad_dimensions(self, rng):
        with pytest.raises(ValueError):
            generators.hierarchical_isp_graph(1, 3, 4, rng)
