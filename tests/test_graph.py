"""Unit tests for the weighted graph kernel (repro.graphs.graph)."""


import numpy
import pytest

from repro.graphs import csr as csr_kernels
from repro.graphs import generators, reference
from repro.graphs.graph import DELTA_LOG_LIMIT, INFINITY, WeightedGraph
from repro.util.rand import RandomSource


def build_triangle() -> WeightedGraph:
    graph = WeightedGraph(3)
    graph.add_edge(0, 1, 2)
    graph.add_edge(1, 2, 3)
    graph.add_edge(0, 2, 10)
    return graph


class TestBasicStructure:
    def test_node_count(self):
        assert WeightedGraph(5).node_count == 5

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            WeightedGraph(0)

    def test_add_edge_and_weight(self):
        graph = build_triangle()
        assert graph.has_edge(0, 1)
        assert graph.weight(0, 1) == 2
        assert graph.weight(1, 0) == 2

    def test_edge_count(self):
        assert build_triangle().edge_count == 3

    def test_self_loop_rejected(self):
        graph = WeightedGraph(3)
        with pytest.raises(ValueError):
            graph.add_edge(1, 1, 1)

    def test_nonpositive_weight_rejected(self):
        graph = WeightedGraph(3)
        with pytest.raises(ValueError):
            graph.add_edge(0, 1, 0)

    def test_out_of_range_node_rejected(self):
        graph = WeightedGraph(3)
        with pytest.raises(ValueError):
            graph.add_edge(0, 3, 1)

    @pytest.mark.parametrize("weight", [1.5, 2.0, numpy.float64(3.0), True, "2", None])
    def test_non_integer_weight_rejected(self, weight):
        # Integer weights keep every distance an exact float64 sum; a float
        # or bool weight must fail loudly and leave the graph untouched.
        graph = build_triangle()
        version = graph.version
        with pytest.raises(ValueError, match="integers"):
            graph.add_edge(1, 0, weight)
        with pytest.raises(ValueError, match="integers"):
            WeightedGraph(2).add_edge(0, 1, weight)
        with pytest.raises(ValueError, match="integers"):
            graph.update_weight(1, 2, weight)
        assert graph.version == version
        assert graph.weight(0, 1) == 2
        assert graph.weight(1, 2) == 3

    def test_numpy_integer_weight_accepted(self):
        graph = WeightedGraph(3)
        graph.add_edge(0, 1, numpy.int64(4))
        graph.add_edge(1, 2, numpy.int32(2))
        graph.update_weight(0, 1, numpy.int16(5))
        assert graph.distance_matrix([0]).tolist() == [[0.0, 5.0, 7.0]]
        with pytest.raises(ValueError, match="positive"):
            graph.update_weight(0, 1, numpy.int64(0))

    def test_remove_edge(self):
        graph = build_triangle()
        graph.remove_edge(0, 1)
        assert not graph.has_edge(0, 1)
        assert graph.edge_count == 2

    def test_remove_missing_edge_raises(self):
        graph = WeightedGraph(3)
        with pytest.raises(KeyError):
            graph.remove_edge(0, 1)

    def test_out_of_range_ids_never_wrap(self):
        # Regression: remove_edge(-1, 1) used to delete adjacency[n-1][1]
        # through negative indexing, leaving a half-edge behind.
        graph = WeightedGraph(4)
        graph.add_edge(3, 1, 2)
        graph.csr()
        version = graph.version
        with pytest.raises(ValueError):
            graph.remove_edge(-1, 1)
        assert graph.has_edge(1, 3) and graph.has_edge(3, 1)
        assert graph.edge_count == 1
        assert graph.version == version
        assert graph._csr is not None
        for u, v in ((-1, 1), (1, -1), (4, 1), (1, 4)):
            with pytest.raises(ValueError):
                graph.has_edge(u, v)
            with pytest.raises(ValueError):
                graph.weight(u, v)

    def test_neighbors_and_degree(self):
        graph = build_triangle()
        assert sorted(graph.neighbors(0)) == [1, 2]
        assert numpy.diff(graph.csr().indptr).tolist() == [2, 2, 2]

    def test_edges_iteration_is_undirected_once(self):
        edges = list(build_triangle().edges())
        assert len(edges) == 3
        assert all(u < v for u, v, _ in edges)

    def test_max_weight_and_unweighted_flag(self):
        graph = build_triangle()
        assert graph.max_weight() == 10
        assert not graph.is_unweighted()
        unweighted = generators.path_graph(4)
        assert unweighted.is_unweighted()

    def test_copy_is_independent(self):
        graph = build_triangle()
        clone = graph.copy()
        clone.remove_edge(0, 1)
        assert graph.has_edge(0, 1)
        assert not clone.has_edge(0, 1)


def hop_levels(graph, source, max_hops=None):
    """The production BFS levels of one source (``-1`` marks unreached nodes)."""
    return csr_kernels.bfs_level_matrix(graph.csr(), [source], max_hops)[0].tolist()


class TestTraversal:
    def test_bfs_hops_on_path(self):
        path = generators.path_graph(6)
        assert hop_levels(path, 0) == [0, 1, 2, 3, 4, 5]

    def test_bfs_hops_with_limit(self):
        path = generators.path_graph(6)
        assert hop_levels(path, 0, max_hops=2) == [0, 1, 2, -1, -1, -1]

    def test_negative_max_hops_rejected(self):
        path = generators.path_graph(4)
        with pytest.raises(ValueError, match="max_hops must be non-negative"):
            reference.hop_distances(path, 0, -1)
        with pytest.raises(ValueError, match="hop_limit must be non-negative"):
            path.hop_limited_distance_matrix([0], -1)

    def test_batched_kernels_reject_out_of_range_sources(self):
        # -1 must not wrap around to node n - 1, and n must raise the graph's
        # own error rather than scipy's.
        path = generators.path_graph(4)
        for sources in ([-1], [4], [0, 4]):
            for call in (
                lambda: path.distance_matrix(sources),
                lambda: path.hop_limited_distance_matrix(sources, 2),
            ):
                with pytest.raises(ValueError, match=r"outside \[0, 4\)"):
                    call()

    def test_ball(self):
        path = generators.path_graph(7)
        assert hop_levels(path, 3, 1) == [-1, -1, 1, 0, 1, -1, -1]

    def test_hop_distance(self):
        path = generators.path_graph(5)
        assert hop_levels(path, 2) == [2, 1, 0, 1, 2]

    def test_hop_distance_disconnected(self):
        graph = WeightedGraph(4)
        graph.add_edge(0, 1, 1)
        graph.add_edge(2, 3, 1)
        assert hop_levels(graph, 0) == [0, 1, -1, -1]
        assert reference.hop_distances(graph, 0) == {0: 0, 1: 1}

    def test_hop_diameter_of_path(self):
        assert generators.path_graph(9).hop_diameter() == 8

    def test_hop_diameter_of_complete_graph(self):
        assert generators.complete_graph(5).hop_diameter() == 1

    def test_hop_diameter_disconnected(self):
        graph = WeightedGraph(3)
        graph.add_edge(0, 1, 1)
        assert graph.hop_diameter() == INFINITY

    def test_is_connected(self):
        assert generators.path_graph(4).is_connected()
        graph = WeightedGraph(3)
        graph.add_edge(0, 1, 1)
        assert not graph.is_connected()

    def test_connected_components(self):
        graph = WeightedGraph(5)
        graph.add_edge(0, 1, 1)
        graph.add_edge(2, 3, 1)
        assert csr_kernels.component_sizes(graph.csr()).tolist() == [2, 2, 2, 2, 1]


class TestIsConnected:
    """``is_connected`` reads the component sizes cached on the CSR view."""

    def test_single_node(self):
        assert WeightedGraph(1).is_connected()

    def test_edgeless_pair(self):
        assert not WeightedGraph(2).is_connected()

    def test_two_components(self):
        graph = WeightedGraph.from_edges(5, [(0, 1, 1), (1, 2, 3), (3, 4, 2)])
        assert not graph.is_connected()
        graph.add_edge(2, 3, 1)
        assert graph.is_connected()

    def test_follows_topology_mutations(self):
        graph = generators.path_graph(4)
        assert graph.is_connected()
        graph.remove_edge(1, 2)
        # The dropped view must not answer with the old component sizes.
        assert graph._csr is None
        assert not graph.is_connected()
        graph.add_edge(0, 3, 2)
        assert graph._csr is None
        assert graph.is_connected()

    def test_follows_weight_update(self):
        graph = WeightedGraph.from_edges(3, [(0, 1, 1)])
        assert not graph.is_connected()
        before = graph.csr()
        graph.update_weight(0, 1, 7)
        # A fresh view on the same topology, with its own (same) answer.
        assert graph.csr() is not before
        assert not graph.is_connected()
        graph.add_edge(1, 2, 4)
        graph.update_weight(1, 2, 5)
        assert graph.is_connected()


class TestDistances:
    def test_dijkstra_prefers_light_path(self):
        graph = build_triangle()
        distances = graph.distance_matrix([0])[0]
        assert distances[2] == 5  # via node 1, not the weight-10 edge

    def test_hop_limited_distances_respects_limit(self):
        graph = build_triangle()
        limited = reference.hop_limited_distances(graph, 0, 1)
        # With one hop the only way to node 2 is the direct weight-10 edge.
        assert limited[2] == 10
        assert limited[1] == 2

    def test_hop_limited_distances_equals_dijkstra_with_enough_hops(self):
        rng = RandomSource(5)
        graph = generators.connected_workload(25, rng, weighted=True, max_weight=7)
        exact = reference.single_source_distances(graph, 0)
        limited = reference.hop_limited_distances(graph, 0, 25)
        assert limited == exact

    def test_hop_limited_zero_hops(self):
        graph = build_triangle()
        assert reference.hop_limited_distances(graph, 0, 0) == {0: 0.0}

    def test_shortest_path_hops(self):
        path = generators.path_graph(5)
        assert reference.shortest_path(path, 0, 4) == [0, 1, 2, 3, 4]
        # The weighted shortest path, not the fewest-hop one.
        assert reference.shortest_path(build_triangle(), 0, 2) == [0, 1, 2]
        assert reference.shortest_path(path, 3, 3) == [3]

    def test_shortest_path_hops_disconnected(self):
        graph = WeightedGraph(3)
        graph.add_edge(0, 1, 1)
        assert reference.shortest_path(graph, 0, 2) is None


class TestConversion:
    def test_from_edges(self):
        graph = WeightedGraph.from_edges(3, [(0, 1, 4), (1, 2, 5)])
        assert graph.weight(0, 1) == 4
        assert graph.weight(1, 2) == 5


class TestMutationSemantics:
    """Pinned mutation semantics behind the delta log (DESIGN.md §12)."""

    def test_add_edge_duplicate_replaces_weight(self):
        graph = build_triangle()
        version = graph.version
        graph.add_edge(0, 1, 7)
        assert graph.weight(0, 1) == 7
        assert graph.weight(1, 0) == 7
        assert graph.edge_count == 3
        assert graph.version == version + 1
        assert graph.deltas_since(version)[-1].kind == "update"

    def test_add_edge_same_weight_is_noop(self):
        graph = build_triangle()
        version = graph.version
        graph.add_edge(0, 1, 2)
        assert graph.version == version
        assert graph.deltas_since(version) == []

    def test_update_weight_requires_existing_edge(self):
        graph = WeightedGraph(3)
        graph.add_edge(0, 1, 2)
        with pytest.raises(KeyError):
            graph.update_weight(1, 2, 5)

    def test_update_weight_rejects_nonpositive(self):
        graph = build_triangle()
        with pytest.raises(ValueError):
            graph.update_weight(0, 1, 0)

    def test_update_weight_same_weight_is_noop(self):
        graph = build_triangle()
        version = graph.version
        graph.update_weight(0, 1, 2)
        assert graph.version == version

    def test_update_weight_patches_both_directions_and_bumps_version(self):
        graph = build_triangle()
        version = graph.version
        graph.update_weight(2, 0, 4)
        assert graph.weight(0, 2) == 4
        assert graph.weight(2, 0) == 4
        assert graph.version == version + 1

    def test_update_weight_keeps_hop_diameter_cache(self, monkeypatch):
        graph = build_triangle()
        assert graph.hop_diameter() == 1
        graph.update_weight(0, 1, 9)

        def recompute(csr):
            raise AssertionError("the hop diameter was recomputed")

        monkeypatch.setattr(csr_kernels, "hop_diameter", recompute)
        assert graph.hop_diameter() == 1

    def test_update_weight_refreshes_csr_in_place(self):
        graph = WeightedGraph(4)
        graph.add_edge(0, 1, 2)
        graph.add_edge(1, 2, 3)
        graph.add_edge(2, 3, 4)
        before = graph.csr()
        graph.update_weight(1, 2, 9)
        after = graph.csr()
        assert after is not before
        # The refresh shares the topology arrays and only rewrites weights.
        assert after.indptr is before.indptr
        assert after.indices is before.indices
        rebuilt = WeightedGraph.from_edges(4, graph.edges()).csr()
        assert (after.weights == rebuilt.weights).all()
        assert (after.indptr == rebuilt.indptr).all()

    def test_every_mutation_records_a_delta(self):
        graph = WeightedGraph(4)
        start = graph.version
        graph.add_edge(0, 1, 2)
        graph.add_edge(1, 2, 3)
        graph.update_weight(0, 1, 5)
        graph.remove_edge(1, 2)
        deltas = graph.deltas_since(start)
        assert [d.kind for d in deltas] == ["add", "add", "update", "remove"]
        assert [(d.u, d.v) for d in deltas] == [(0, 1), (1, 2), (0, 1), (1, 2)]
        assert [d.version for d in deltas] == [start + 1, start + 2, start + 3, start + 4]
        add, _, update, remove = deltas
        assert (add.weight, add.old_weight, add.topological) == (2, None, True)
        assert (update.weight, update.old_weight, update.topological) == (5, 2, False)
        assert (remove.weight, remove.old_weight, remove.topological) == (None, 3, True)

    def test_deltas_since_edge_cases(self):
        graph = WeightedGraph(3)
        graph.add_edge(0, 1, 1)
        assert graph.deltas_since(graph.version) == []
        assert graph.deltas_since(graph.version + 1) is None  # future version
        # A gap wider than the bounded log is reported as uncoverable.
        for _ in range(DELTA_LOG_LIMIT + 1):
            graph.update_weight(0, 1, 2)
            graph.update_weight(0, 1, 1)
        assert graph.deltas_since(0) is None
        assert len(graph.deltas_since(graph.version - DELTA_LOG_LIMIT)) == DELTA_LOG_LIMIT
