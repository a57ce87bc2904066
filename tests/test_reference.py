"""Unit tests for the sequential reference algorithms (repro.graphs.reference)."""

import itertools

import networkx as nx
import pytest

from repro.graphs import generators, reference
from repro.graphs.graph import INFINITY, WeightedGraph
from repro.util.rand import RandomSource


def to_networkx(graph):
    """The same graph as a :class:`networkx.Graph`, built from ``graph.edges()`` alone."""
    theirs = nx.Graph()
    theirs.add_nodes_from(range(graph.node_count))
    theirs.add_weighted_edges_from(graph.edges())
    return theirs


@pytest.fixture
def graph():
    return generators.connected_workload(30, RandomSource(17), weighted=True, max_weight=9)


class TestDistances:
    def test_single_source_matches_networkx(self, graph):
        ours = reference.single_source_distances(graph, 0)
        theirs = nx.single_source_dijkstra_path_length(to_networkx(graph), 0)
        assert ours == pytest.approx(theirs)

    def test_all_pairs_symmetry(self, graph):
        all_pairs = reference.all_pairs_distances(graph)
        for u in range(0, 30, 5):
            for v in range(0, 30, 7):
                assert all_pairs[u][v] == pytest.approx(all_pairs[v][u])

    def test_multi_source_subset_of_all_pairs(self, graph):
        sources = [0, 3, 9]
        multi = reference.multi_source_distances(graph, sources)
        full = reference.all_pairs_distances(graph)
        for s in sources:
            assert multi[s] == full[s]

    def test_weighted_diameter_matches_networkx(self, graph):
        ours = reference.weighted_diameter(graph)
        lengths = dict(nx.all_pairs_dijkstra_path_length(to_networkx(graph)))
        theirs = max(max(row.values()) for row in lengths.values())
        assert ours == pytest.approx(theirs)

    def test_hop_diameter_matches_networkx(self, graph):
        assert reference.hop_diameter(graph) == nx.diameter(to_networkx(graph))

    def test_eccentricity_hops(self):
        path = generators.path_graph(7)
        assert reference.eccentricity(path, 0) == 6
        assert reference.eccentricity(path, 3) == 3

    def test_eccentricity_disconnected(self):
        graph = WeightedGraph(3)
        graph.add_edge(0, 1, 1)
        assert reference.eccentricity(graph, 0) == INFINITY

    def test_shortest_path_diameter_path_graph(self):
        path = generators.path_graph(6)
        assert reference.shortest_path_diameter(path) == 5

    def test_shortest_path_diameter_heavy_shortcut(self):
        # Shortcut edge is heavy, so shortest paths use many hops.
        graph = generators.path_graph(5)
        graph.add_edge(0, 4, 100)
        assert reference.shortest_path_diameter(graph) == 4


def disconnected_graph():
    graph = generators.connected_workload(12, RandomSource(5), weighted=True, max_weight=6)
    split = WeightedGraph(20)
    for u, v, w in graph.edges():
        split.add_edge(u, v, w)
    for node in range(12, 19):
        split.add_edge(node, node + 1, 1 + node % 4)
    return split


class TestNetworkxCrossCheck:
    """The heapq Dijkstra oracles against networkx, built from the edge list alone."""

    @pytest.mark.parametrize(
        "graph",
        [
            generators.connected_workload(40, RandomSource(3), weighted=True, max_weight=9),
            generators.random_geometric_like_graph(
                40, neighbourhood=2, rng=RandomSource(4), extra_edge_probability=0.05
            ),
            disconnected_graph(),
            WeightedGraph(1),
        ],
        ids=["weighted", "locality", "disconnected", "single-node"],
    )
    def test_distance_oracles_match_networkx(self, graph):
        theirs = to_networkx(graph)
        expected = dict(nx.all_pairs_dijkstra_path_length(theirs))
        nodes = list(graph.nodes())
        assert reference.all_pairs_distances(graph) == expected
        assert reference.multi_source_distances(graph, nodes[::3]) == {
            s: expected[s] for s in nodes[::3]
        }
        for source in nodes:
            assert reference.single_source_distances(graph, source) == expected[source]
        if nx.is_connected(theirs):
            eccentricity = nx.eccentricity(theirs, weight="weight")
            assert reference.weighted_diameter(graph) == nx.diameter(theirs, weight="weight")
        else:
            eccentricity = dict.fromkeys(nodes, INFINITY)
            assert reference.weighted_diameter(graph) == INFINITY
        for node in nodes:
            assert reference.eccentricity(graph, node, weighted=True) == eccentricity[node]


CROSS_CHECK_GRAPHS = {
    "weighted": lambda: generators.connected_workload(
        40, RandomSource(3), weighted=True, max_weight=9
    ),
    "heavy shortcut": lambda: WeightedGraph.from_edges(
        5, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (0, 4, 100), (1, 3, 2)]
    ),
    "disconnected": disconnected_graph,
    "single-node": lambda: WeightedGraph(1),
}


class TestHopAndPathOracles:
    """``hop_distances`` and ``shortest_path`` against networkx."""

    @pytest.mark.parametrize("name", sorted(CROSS_CHECK_GRAPHS))
    def test_hop_distances_match_networkx(self, name):
        graph = CROSS_CHECK_GRAPHS[name]()
        theirs = to_networkx(graph)
        for source in graph.nodes():
            expected = nx.single_source_shortest_path_length(theirs, source)
            assert reference.hop_distances(graph, source) == expected
            for max_hops in (0, 1, 3):
                limited = nx.single_source_shortest_path_length(theirs, source, cutoff=max_hops)
                assert reference.hop_distances(graph, source, max_hops) == limited

    @pytest.mark.parametrize("name", sorted(CROSS_CHECK_GRAPHS))
    def test_shortest_path_is_a_fewest_hop_shortest_path(self, name):
        graph = CROSS_CHECK_GRAPHS[name]()
        theirs = to_networkx(graph)
        for source in graph.nodes():
            distances = nx.single_source_dijkstra_path_length(theirs, source)
            for target in graph.nodes():
                path = reference.shortest_path(graph, source, target)
                if target not in distances:
                    assert path is None
                    continue
                assert path[0] == source and path[-1] == target
                weight = sum(graph.weight(u, v) for u, v in itertools.pairwise(path))
                assert weight == distances[target]
                fewest = min(
                    len(p) for p in nx.all_shortest_paths(theirs, source, target, weight="weight")
                )
                assert len(path) == fewest

    def test_rejects_bad_arguments(self, graph):
        for bad in (-1, graph.node_count):
            with pytest.raises(ValueError):
                reference.hop_distances(graph, bad)
            with pytest.raises(ValueError):
                reference.shortest_path(graph, 0, bad)


class TestHopLimitedOracle:
    def test_rejects_out_of_range_source(self, graph):
        for bad in (-1, graph.node_count):
            with pytest.raises(ValueError):
                reference.hop_limited_distances(graph, bad, 3)

    def test_rejects_negative_hop_limit(self, graph):
        with pytest.raises(ValueError):
            reference.hop_limited_distances(graph, 0, -1)

    def test_single_node(self):
        single = WeightedGraph(1)
        assert reference.hop_limited_distances(single, 0, 0) == {0: 0.0}
        assert reference.hop_limited_distances(single, 0, 5) == {0: 0.0}

    def test_enough_hops_match_networkx(self, graph):
        # A second opinion that shares no code with the package.
        theirs = nx.single_source_dijkstra_path_length(to_networkx(graph), 0)
        assert reference.hop_limited_distances(graph, 0, graph.node_count) == theirs


class TestComparisonHelpers:
    def test_max_stretch(self):
        assert reference.max_stretch({1: 2.0, 2: 4.0}, {1: 3.0, 2: 4.0}) == pytest.approx(1.5)

    def test_has_one_sided_error_accepts_overestimates(self):
        assert reference.has_one_sided_error({1: 2.0}, {1: 2.5})

    def test_has_one_sided_error_rejects_underestimates(self):
        assert not reference.has_one_sided_error({1: 2.0}, {1: 1.0})
