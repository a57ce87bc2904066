"""The batched CSR kernels against the single-source references.

Every batched multi-source method of ``WeightedGraph`` -- ``bfs_hops_many``,
``balls_many``, ``hop_limited_distances_many`` / ``hop_limited_distance_matrix``,
``dijkstra_many`` / ``distance_matrix``, ``hop_eccentricities`` and
``hop_diameter`` -- must equal, bit for bit, the pure-Python single-source
traversal it batches (``bfs_hops``, ``hop_limited_distances``, ``dijkstra``,
``hop_eccentricity``; DESIGN.md §4).  The properties run over random graph
families: connected and disconnected, n = 1, unit and heavy weights, empty
and duplicate source lists, and source lists split into many chunks.
End to end, the engine must record the same RoundMetrics as the per-message
scalar oracle of ``tests/scalar_plane.py``.
"""

import importlib

import numpy
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scalar_plane import ScalarPlaneNetwork

from repro.core.apsp import apsp_exact
from repro.core.sssp import sssp_exact
from repro.graphs import csr as csr_kernels
from repro.graphs import generators
from repro.graphs.graph import INFINITY, WeightedGraph
from repro.hybrid import HybridNetwork, ModelConfig
from repro.util.hashing import hash_family_for_network
from repro.util.rand import RandomSource

common_settings = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def graph_case(draw):
    """A random graph (any family above), a hop limit and a source list."""
    n = draw(st.integers(min_value=1, max_value=30))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    max_weight = draw(st.sampled_from([1, 1, 7, 1000]))
    rng = RandomSource(seed)
    if n > 1 and draw(st.booleans()):
        degree = draw(st.sampled_from([1.5, 3.0, 5.0]))
        graph = generators.random_connected_graph(n, degree, rng, max_weight=max_weight)
    else:
        # Sparse random edges: usually disconnected, sometimes edgeless.
        graph = WeightedGraph(n)
        for _ in range(draw(st.integers(min_value=0, max_value=2 * n))):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                graph.add_edge(u, v, 1 + rng.randrange(max_weight))
    hop_limit = draw(st.integers(min_value=0, max_value=n))
    sources = draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=n + 3))
    return graph, hop_limit, sources


class TestBackendSelection:
    def test_unknown_backend_rejected(self):
        # There is one traversal path; a backend argument is an error, never
        # silently ignored.
        with pytest.raises(TypeError):
            WeightedGraph(3, backend="csr")

    def test_mutation_invalidates_csr_cache(self):
        graph = WeightedGraph(4)
        graph.add_edge(0, 1, 2)
        graph.add_edge(1, 2, 1)
        before = graph.csr()
        assert before.directed_edge_count == 4
        graph.add_edge(2, 3, 5)
        assert graph._csr is None
        assert graph.csr().directed_edge_count == 6
        assert graph.bfs_hops_many([0])[0] == {0: 0, 1: 1, 2: 2, 3: 3}
        graph.remove_edge(2, 3)
        assert graph._csr is None
        assert graph.bfs_hops_many([0])[0] == {0: 0, 1: 1, 2: 2}


class TestTraversalEquivalence:
    @common_settings
    @given(graph_case())
    def test_bfs_hops_agree(self, case):
        graph, hop_limit, sources = case
        assert graph.bfs_hops_many(sources) == [graph.bfs_hops(s) for s in sources]
        assert graph.bfs_hops_many(sources, hop_limit) == [
            graph.bfs_hops(s, hop_limit) for s in sources
        ]
        assert [set(ball) for ball in graph.balls_many(sources, hop_limit)] == [
            set(graph.ball(s, hop_limit)) for s in sources
        ]

    @common_settings
    @given(graph_case())
    def test_dijkstra_agree(self, case):
        graph, _, sources = case
        assert graph.dijkstra_many(sources) == [graph.dijkstra(s) for s in sources]

    @common_settings
    @given(graph_case())
    def test_hop_limited_distances_agree(self, case):
        graph, hop_limit, sources = case
        assert graph.hop_limited_distances_many(sources, hop_limit) == [
            graph.hop_limited_distances(s, hop_limit) for s in sources
        ]

    @common_settings
    @given(graph_case())
    def test_shortest_distances_within_hops_agree(self, case):
        # Exact wherever d_h already equals d (some shortest path fits the
        # hop budget), and never below the exact distance anywhere.
        graph, hop_limit, sources = case
        exact = graph.distance_matrix(sources)
        limited = graph.hop_limited_distance_matrix(sources, hop_limit)
        for row, source in enumerate(sources):
            fast = graph.shortest_distances_within_hops(source, hop_limit)
            for node, value in fast.items():
                assert value >= exact[row, node]
            for node in numpy.flatnonzero(numpy.isfinite(limited[row])).tolist():
                if limited[row, node] == exact[row, node]:
                    assert fast[node] == exact[row, node]

    @common_settings
    @given(graph_case())
    def test_eccentricities_and_diameter_agree(self, case):
        graph, hop_limit, _ = case
        nodes = list(graph.nodes())
        assert graph.hop_eccentricities() == [graph.hop_eccentricity(u) for u in nodes]
        assert graph.hop_eccentricities(max_hops=hop_limit) == [
            float(max(graph.bfs_hops(u, hop_limit).values())) for u in nodes
        ]
        assert graph.hop_diameter() == max(graph.hop_eccentricity(u) for u in nodes)

    @common_settings
    @given(graph_case())
    def test_distance_matrix_agree(self, case):
        graph, hop_limit, sources = case
        n = graph.node_count
        expected = numpy.full((len(sources), n), numpy.inf)
        expected_limited = numpy.full((len(sources), n), numpy.inf)
        for row, source in enumerate(sources):
            for node, value in graph.dijkstra(source).items():
                expected[row, node] = value
            for node, value in graph.hop_limited_distances(source, hop_limit).items():
                expected_limited[row, node] = value
        assert numpy.array_equal(graph.distance_matrix(sources), expected)
        assert numpy.array_equal(
            graph.hop_limited_distance_matrix(sources, hop_limit), expected_limited
        )

    def test_disconnected_graphs_agree(self):
        graph = WeightedGraph(6)
        graph.add_edge(0, 1, 3)
        graph.add_edge(2, 3, 1)
        sources = list(range(6))
        assert graph.bfs_hops_many(sources) == [graph.bfs_hops(s) for s in sources]
        assert graph.dijkstra_many(sources) == [graph.dijkstra(s) for s in sources]
        assert graph.hop_diameter() == INFINITY

    def test_single_node_and_empty_sources(self):
        graph = WeightedGraph(1)
        assert graph.bfs_hops_many([0]) == [{0: 0}]
        assert graph.dijkstra_many([0]) == [{0: 0.0}]
        assert graph.hop_eccentricities() == [0.0]
        assert graph.hop_diameter() == 0.0
        cycle = generators.cycle_graph(5)
        assert cycle.bfs_hops_many([]) == []
        assert cycle.distance_matrix([]).shape == (0, 5)
        assert cycle.hop_limited_distance_matrix([], 2).shape == (0, 5)


class TestChunking:
    @common_settings
    @given(graph_case())
    def test_forced_chunking_matches_references(self, case):
        # One source per chunk: the chunk matrices are concatenated, so the
        # results must not move.
        graph, hop_limit, sources = case
        original = csr_kernels.CHUNK_BYTES
        csr_kernels.CHUNK_BYTES = 1
        try:
            assert graph.bfs_hops_many(sources, hop_limit) == [
                graph.bfs_hops(s, hop_limit) for s in sources
            ]
            assert graph.dijkstra_many(sources) == [graph.dijkstra(s) for s in sources]
            assert graph.hop_limited_distances_many(sources, hop_limit) == [
                graph.hop_limited_distances(s, hop_limit) for s in sources
            ]
            assert graph.hop_eccentricities() == [
                graph.hop_eccentricity(u) for u in graph.nodes()
            ]
        finally:
            csr_kernels.CHUNK_BYTES = original


class TestLayerModules:
    def test_every_traced_layer_module_imports(self):
        from benchmarks.e2e.tracer import LAYERS

        for modules in LAYERS.values():
            for name in modules:
                importlib.import_module(name)


class TestSimulationEquivalence:
    """Fixed-seed end-to-end runs: the engine equals the scalar oracle."""

    @staticmethod
    def _run(network_class, algorithm, n=64, seed=9):
        graph = generators.connected_workload(
            n, RandomSource(seed), weighted=True, max_weight=6
        )
        network = network_class(graph, ModelConfig(rng_seed=seed))
        result = algorithm(network)
        return network.metrics, result

    @pytest.mark.parametrize(
        "algorithm", [lambda net: sssp_exact(net, source=0), apsp_exact], ids=["sssp", "apsp"]
    )
    def test_round_metrics_identical(self, algorithm):
        oracle_metrics, oracle_result = self._run(ScalarPlaneNetwork, algorithm)
        engine_metrics, engine_result = self._run(HybridNetwork, algorithm)
        assert oracle_metrics.as_dict() == engine_metrics.as_dict()
        assert oracle_result.rounds == engine_result.rounds
        assert {
            name: (phase.local_rounds, phase.global_rounds)
            for name, phase in oracle_metrics.phases.items()
        } == {
            name: (phase.local_rounds, phase.global_rounds)
            for name, phase in engine_metrics.phases.items()
        }

    def test_sssp_distances_identical(self):
        _, oracle = self._run(ScalarPlaneNetwork, lambda net: sssp_exact(net, source=0))
        _, engine = self._run(HybridNetwork, lambda net: sssp_exact(net, source=0))
        assert oracle.distances == engine.distances

    def test_apsp_matrices_identical(self):
        _, oracle = self._run(ScalarPlaneNetwork, apsp_exact)
        _, engine = self._run(HybridNetwork, apsp_exact)
        assert (oracle.matrix == engine.matrix).all()


class TestBatchedHashing:
    def test_many_matches_scalar_evaluation(self):
        function = hash_family_for_network(257, RandomSource(4))
        rng = RandomSource(11)
        lanes = (
            [rng.randrange(1 << 20) for _ in range(500)],
            [rng.randrange(1 << 20) for _ in range(500)],
            [rng.randrange(64) for _ in range(500)],
        )
        batched = function.many(lanes)
        assert batched == [function(key) for key in zip(*lanes, strict=True)]

    def test_many_empty(self):
        function = hash_family_for_network(64, RandomSource(1))
        assert function.many(()) == []
