"""The CSR kernels against the one oracle, ``repro.graphs.reference``.

The kernels are the only traversal path of ``WeightedGraph`` (DESIGN.md §4),
and each must equal, bit for bit, its edge-list oracle: the BFS levels of
``csr.bfs_level_matrix`` equal ``reference.hop_distances``,
``distance_matrix`` the heapq Dijkstra ``reference.single_source_distances``,
the ``d_h`` kernel ``hop_limited_distance_matrix`` the Bellman-Ford
``reference.hop_limited_distances``, ``csr.hop_diameter`` the BFS
``reference.hop_diameter`` and ``reference.eccentricity``, and
``ruler_clustering`` a greedy scan over ``reference.hop_distances`` from
every node (:func:`oracle_clustering`); no oracle shares code with the CSR
view.  The properties run over random graph families: connected and
disconnected, n = 1, unit and heavy weights, empty and duplicate source
lists, and source lists split into many chunks.
The weighted ``d_h`` kernel answers most rows from one bounded search and a
hop certificate and falls back to Bellman-Ford rounds on the rest; both
paths are pinned against the rounds and the oracle, and the bit-parallel
bounded search against scipy's bounded Dijkstra.
End to end, the engine must record the same RoundMetrics as the per-message
scalar oracle of ``tests/scalar_plane.py``.
"""

import importlib

import numpy
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scalar_plane import ScalarPlaneNetwork
from scipy.sparse import csgraph

from repro.core.apsp import apsp_exact
from repro.core.sssp import sssp_exact
from repro.graphs import csr as csr_kernels
from repro.graphs import generators, reference
from repro.graphs.graph import INFINITY, WeightedGraph
from repro.graphs.skeleton_analysis import skeleton_hop_length
from repro.hybrid import HybridNetwork, ModelConfig
from repro.util import hashing
from repro.util.hashing import KWiseHashFunction, hash_family_for_network
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
        assert hop_levels(graph, [0]).tolist() == [[0, 1, 2, 3]]
        graph.remove_edge(2, 3)
        assert graph._csr is None
        assert hop_levels(graph, [0]).tolist() == [[0, 1, 2, -1]]


class TestTraversalEquivalence:
    @common_settings
    @given(graph_case())
    def test_bfs_hops_agree(self, case):
        graph, hop_limit, sources = case
        assert numpy.array_equal(hop_levels(graph, sources), hop_reference(graph, sources))
        assert numpy.array_equal(
            hop_levels(graph, sources, hop_limit), hop_reference(graph, sources, hop_limit)
        )

    @common_settings
    @given(graph_case())
    def test_dijkstra_agree(self, case):
        graph, _, sources = case
        assert numpy.array_equal(graph.distance_matrix(sources), distance_reference(graph, sources))

    @common_settings
    @given(graph_case())
    def test_hop_limited_distances_agree(self, case):
        graph, hop_limit, sources = case
        assert numpy.array_equal(
            graph.hop_limited_distance_matrix(sources, hop_limit),
            hop_limited_reference(graph, sources, hop_limit),
        )

    @common_settings
    @given(graph_case())
    def test_eccentricities_and_diameter_agree(self, case):
        graph, hop_limit, _ = case
        nodes = list(graph.nodes())
        diameter = graph.hop_diameter()
        assert diameter == reference.hop_diameter(graph)
        assert diameter == max(reference.eccentricity(graph, u) for u in nodes)
        if diameter < INFINITY:
            # Algorithm 9's local phase: on a connected graph the largest hop
            # distance any node sees within hop_limit hops is min(D, hop_limit).
            assert min(diameter, hop_limit) == hop_levels(graph, nodes, hop_limit).max()

    @common_settings
    @given(graph_case())
    def test_distance_matrix_agree(self, case):
        # A shortest path has at most n - 1 edges, so d_{n-1} is the exact
        # distance: the Bellman-Ford oracle pins distance_matrix independently
        # of the heapq Dijkstra one.
        graph, _, sources = case
        expected = hop_limited_reference(graph, sources, max(graph.node_count - 1, 0))
        assert numpy.array_equal(graph.distance_matrix(sources), expected)

    def test_disconnected_graphs_agree(self):
        graph = WeightedGraph(6)
        graph.add_edge(0, 1, 3)
        graph.add_edge(2, 3, 1)
        sources = list(range(6))
        assert numpy.array_equal(hop_levels(graph, sources), hop_reference(graph, sources))
        assert numpy.array_equal(graph.distance_matrix(sources), distance_reference(graph, sources))
        assert graph.hop_diameter() == INFINITY

    def test_single_node_and_empty_sources(self):
        graph = WeightedGraph(1)
        assert hop_levels(graph, [0]).tolist() == [[0]]
        assert graph.distance_matrix([0]).tolist() == [[0.0]]
        assert reference.hop_diameter(graph) == 0.0
        assert graph.hop_diameter() == 0.0
        assert clustering_lists(graph.ruler_clustering(2)) == ([0], {0: [0]}, 0)
        cycle = generators.cycle_graph(5)
        assert hop_levels(cycle, []).shape == (0, 5)
        assert cycle.distance_matrix([]).shape == (0, 5)
        assert cycle.hop_limited_distance_matrix([], 2).shape == (0, 5)


@st.composite
def hop_certificate_case(draw):
    """A graph, a hop regime for the certificate, sources and a chunk budget.

    ``small`` hop limits on weighted paths and heavy weights force the
    Bellman-Ford fallback, ``large`` ones (at least ``n * max_weight``)
    certify every row, and ``mixed`` ones land anywhere in between.  Source
    lists of 64 to 130 entries (a partial last word) reach the bit-parallel
    pass whenever the first source's row is certified.
    """
    n = draw(st.integers(min_value=1, max_value=24))
    rng = RandomSource(draw(st.integers(min_value=0, max_value=10_000)))
    family = draw(st.sampled_from(["path", "heavy", "connected", "sparse", "edgeless"]))
    max_weight = {"path": 9, "heavy": 1000, "connected": 7, "sparse": 7, "edgeless": 1}[family]
    graph = WeightedGraph(n)
    if family == "path":
        # Light and heavy edges mixed, so a run of h + 1 light edges (d just
        # above the certificate's bound) sits beside heavier ones.
        weights = st.sampled_from([1, 2, max_weight])
        for node, weight in enumerate(draw(st.lists(weights, min_size=n - 1, max_size=n - 1))):
            graph.add_edge(node, node + 1, weight)
    elif family in ("heavy", "connected") and n > 1:
        graph = generators.random_connected_graph(n, 3.0, rng, max_weight=max_weight)
    elif family == "sparse":
        # Usually disconnected, sometimes edgeless.
        for _ in range(draw(st.integers(min_value=0, max_value=n))):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                graph.add_edge(u, v, 1 + rng.randrange(max_weight))
    regime = draw(st.sampled_from(["small", "large", "mixed"]))
    if regime == "small":
        hop_limit = draw(st.integers(min_value=0, max_value=3))
    elif regime == "large":
        hop_limit = n * max_weight
    else:
        hop_limit = draw(st.integers(min_value=0, max_value=n))
    sources = draw(
        st.one_of(
            st.just(list(range(n))),
            st.lists(st.integers(min_value=0, max_value=n - 1), max_size=n + 3),
            st.lists(st.integers(min_value=0, max_value=n - 1), min_size=64, max_size=130),
        )
    )
    byte_budget = draw(st.sampled_from([None, 1, 8 * 4 * 3 * n]))
    return graph, hop_limit, sources, byte_budget


def weighted_path(weights, n=None, extra=()):
    """Path ``0 - 1 - ...`` with the given edge weights, plus ``extra`` edges."""
    graph = WeightedGraph(n or len(weights) + 1)
    for node, weight in enumerate(weights):
        graph.add_edge(node, node + 1, weight)
    for u, v, weight in extra:
        graph.add_edge(u, v, weight)
    return graph


def dense(maps, n, missing=numpy.inf):
    """Single-source ``{node: value}`` maps as one row each (``missing`` where absent)."""
    matrix = numpy.full((len(maps), n), missing)
    for row, values in enumerate(maps):
        for node, value in values.items():
            matrix[row, node] = value
    return matrix


def hop_levels(graph, sources, max_hops=None):
    """The production BFS levels, chunked like every batched kernel (``-1``: unreached)."""
    return csr_kernels.run_chunked(csr_kernels.bfs_level_matrix, graph.csr(), sources, max_hops)


def hop_reference(graph, sources, max_hops=None):
    """The oracle's ``reference.hop_distances`` maps as a dense ``-1``-filled matrix."""
    maps = [reference.hop_distances(graph, s, max_hops) for s in sources]
    return dense(maps, graph.node_count, missing=-1)


def distance_reference(graph, sources):
    """The oracle's ``reference.single_source_distances`` maps as a dense matrix."""
    maps = [reference.single_source_distances(graph, s) for s in sources]
    return dense(maps, graph.node_count)


def hop_limited_reference(graph, sources, hop_limit):
    """The oracle's ``reference.hop_limited_distances`` maps as a dense matrix."""
    maps = [reference.hop_limited_distances(graph, s, hop_limit) for s in sources]
    return dense(maps, graph.node_count)


#: Beside a path 0 -1- 1 -2- 2: a second component 3 -3- 4 -3- 5 -3- 6 of a
#: larger weighted diameter, and the isolated node 7.
TWO_PATHS = [(3, 4, 3), (4, 5, 3), (5, 6, 3)]


class TestHopCertificate:
    """``hop_limited_matrix``: certified bounded rows plus the rounds fallback."""

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(hop_certificate_case())
    # Tight bounds: from node 1, node 3 is at d = 2 = h * min_weight + 1 over
    # two light edges, and a unit-weight component next to a heavy one.
    @example((weighted_path((2, 1, 1)), 1, [0, 1, 2, 3], None))
    @example((weighted_path((1, 1), n=5, extra=[(3, 4, 2)]), 1, [1, 0, 3], 1))
    # The bit-parallel pass: a limit equal to a realised distance (node 2 at
    # d = 4 = h * min_weight from node 0; the bound is inclusive), an arc
    # heavier than the limit, two components of different weighted
    # diameters beside an isolated node (h = 5 leaves the heavier one
    # uncertified), and n = 1.
    @example((weighted_path((2, 2)), 2, [0, 1, 2] * 22, None))
    @example((weighted_path((1, 1), extra=[(0, 2, 50)]), 2, [0, 1, 2] * 30, None))
    @example((weighted_path((1, 2), n=8, extra=TWO_PATHS), 5, [*range(8)] * 9, None))
    @example((WeightedGraph(1), 3, [0] * 64, None))
    # Partial words of 16 to 63 sources: a probe depth of 12 (the pass), and
    # of 40 (the pass from 20 sources on, scipy below).
    @example((weighted_path((1, 2) * 4), 12, [*range(9)] * 2, None))
    @example((generators.cycle_graph(40, weight=2), 30, [*range(0, 40, 2)] * 2, None))
    @example((generators.cycle_graph(40, weight=2), 30, [*range(40)] + [5] * 23, None))
    @example((generators.cycle_graph(40, weight=2), 30, [*range(19)], None))
    def test_matches_rounds_and_single_source(self, case):
        graph, hop_limit, sources, byte_budget = case
        csr = graph.csr()
        chunks = csr_kernels.chunked_sources(graph.node_count, sources, byte_budget=byte_budget)
        kernel = numpy.concatenate(
            [csr_kernels.hop_limited_matrix(csr, chunk, hop_limit) for chunk in chunks], axis=0
        )
        assert kernel.shape == (len(sources), graph.node_count)
        assert numpy.array_equal(kernel, csr_kernels._relax_rounds(csr, sources, hop_limit))
        assert numpy.array_equal(kernel, hop_limited_reference(graph, sources, hop_limit))
        # The bit-parallel pass equals scipy's bounded Dijkstra on every case,
        # whether or not the kernel picked it.
        limit = hop_limit * csr.min_weight
        bounded = csgraph.dijkstra(csr_kernels._scipy_view(csr), indices=sources, limit=limit)
        bitset = csr_kernels._bitset_bounded_distances(csr, sources, limit)
        assert numpy.array_equal(bitset, bounded.reshape(len(sources), graph.node_count))

    @staticmethod
    def _count_fallback_rows(monkeypatch):
        """Record the sources of every ``_relax_rounds`` call the kernel makes."""
        calls: list[list[int]] = []
        rounds = csr_kernels._relax_rounds

        def counting(csr, sources, max_rounds):
            calls.append([int(source) for source in sources])
            return rounds(csr, sources, max_rounds)

        monkeypatch.setattr(csr_kernels, "_relax_rounds", counting)
        return calls

    def test_mixed_chunk_falls_back_only_on_uncertified_rows(self, monkeypatch):
        # Path 0 -2- 1 -2- 2 plus isolated node 3, h = 1, bound 1 * 2: rows 1
        # and 3 reach their whole component within the bound, rows 0 and 2
        # have d = 4 to the far end and need the rounds.
        graph = WeightedGraph(4)
        graph.add_edge(0, 1, 2)
        graph.add_edge(1, 2, 2)
        calls = self._count_fallback_rows(monkeypatch)
        kernel = graph.hop_limited_distance_matrix(range(4), 1)
        assert calls == [[0, 2]]
        assert numpy.array_equal(kernel, hop_limited_reference(graph, range(4), 1))

    def test_fast_path_engages_on_the_cold_start_instance(self, monkeypatch):
        # The skeleton exploration's depth is far above the hop diameter, so
        # no row may reach the rounds -- and the answer must not move.
        n = 1024
        graph = generators.connected_workload(n, RandomSource(1), weighted=True, max_weight=8)
        hop_limit = skeleton_hop_length(n, n**0.5, xi=0.75)
        exact = graph.distance_matrix()
        assert exact[numpy.isfinite(exact)].max() <= hop_limit * graph.csr().min_weight
        calls = self._count_fallback_rows(monkeypatch)
        kernel = graph.hop_limited_distance_matrix(range(n), hop_limit)
        assert calls == []
        monkeypatch.undo()
        assert numpy.array_equal(kernel, exact)
        rounds = csr_kernels._relax_rounds(graph.csr(), range(n), hop_limit)
        assert numpy.array_equal(kernel, rounds)
        # A hop limit below the hop diameter does reach the fallback.
        calls = self._count_fallback_rows(monkeypatch)
        graph.hop_limited_distance_matrix(range(8), 2)
        assert calls and calls[0]

    def test_bitset_pass_runs_only_for_many_rows_of_shallow_weighted_depth(self, monkeypatch):
        calls: list[int] = []
        bitset = csr_kernels._bitset_bounded_distances

        def counting(csr, sources, limit):
            calls.append(len(sources))
            return bitset(csr, sources, limit)

        monkeypatch.setattr(csr_kernels, "_bitset_bounded_distances", counting)
        n = 1024
        hop_limit = skeleton_hop_length(n, n**0.5, xi=0.75)
        graph = generators.connected_workload(n, RandomSource(1), weighted=True, max_weight=8)
        # Node 0's row, the probe, has depth 29: calls of at least 15 sources
        # take the pass (a cold sssp's 29 members' rows among them), 14 do not.
        probe = graph.hop_limited_distance_matrix([0], hop_limit)
        assert probe[numpy.isfinite(probe)].max() == 29
        for rows in (n, 29, 15, 14, 8, 1):
            graph.hop_limited_distance_matrix(range(rows), hop_limit)
        assert calls == [n, 29, 15]
        # Unit weights keep scipy BFS; a weighted cycle's first row is not
        # hop-certified at this depth (its weighted eccentricity is 1024).
        calls.clear()
        unit = generators.connected_workload(n, RandomSource(1))
        unit.hop_limited_distance_matrix(range(n), hop_limit)
        cycle = generators.cycle_graph(n, weight=2)
        kernel = cycle.hop_limited_distance_matrix(range(64), hop_limit)
        assert calls == []
        monkeypatch.undo()
        rounds = csr_kernels._relax_rounds(cycle.csr(), range(64), hop_limit)
        assert numpy.array_equal(kernel, rounds)


def disconnected_pair_of_paths(n):
    """Two paths with no edge between them."""
    graph = WeightedGraph(n)
    for node in range(n - 1):
        if node != n // 2 - 1:
            graph.add_edge(node, node + 1, 1 + node % 3)
    return graph


ADVERSARIAL_FAMILIES = {
    "n=1": lambda: WeightedGraph(1),
    "n=2 edge": lambda: generators.path_graph(2, weight=5),
    "n=2 edgeless": lambda: WeightedGraph(2),
    "path": lambda: generators.path_graph(37, weight=3),
    "cycle even": lambda: generators.cycle_graph(40),
    "cycle odd": lambda: generators.cycle_graph(41),
    "star": lambda: generators.star_graph(30),
    "complete": lambda: generators.complete_graph(25),
    "two cliques and a long path": lambda: generators.barbell_graph(8, 30),
    "two cliques and a one-edge path": lambda: generators.barbell_graph(12, 1),
    "disconnected": lambda: disconnected_pair_of_paths(20),
    "isolated node": lambda: WeightedGraph.from_edges(3, [(0, 1, 1)]),
}


class TestHopDiameterKernel:
    """``csr.hop_diameter``: eccentricity bounding against the edge-list oracle."""

    @common_settings
    @given(graph_case())
    def test_matches_independent_oracle(self, case):
        graph, _, _ = case
        assert csr_kernels.hop_diameter(graph.csr()) == reference.hop_diameter(graph)

    @pytest.mark.parametrize("family", sorted(ADVERSARIAL_FAMILIES))
    def test_adversarial_families(self, family):
        graph = ADVERSARIAL_FAMILIES[family]()
        expected = reference.hop_diameter(graph)
        assert csr_kernels.hop_diameter(graph.csr()) == expected
        assert graph.hop_diameter() == expected

    @staticmethod
    def _count_searched_sources(monkeypatch):
        """Record the sources of every scipy search the kernel makes."""
        searched: list[int] = []
        dijkstra = csr_kernels.csgraph.dijkstra

        def counting(*args, indices=None, **kwargs):
            searched.extend(int(source) for source in numpy.atleast_1d(indices))
            return dijkstra(*args, indices=indices, **kwargs)

        monkeypatch.setattr(csr_kernels.csgraph, "dijkstra", counting)
        return searched

    def test_cold_start_instance_searches_few_sources(self, monkeypatch):
        graph = generators.connected_workload(1024, RandomSource(1), weighted=True, max_weight=8)
        csr = graph.csr()
        searched = self._count_searched_sources(monkeypatch)
        diameter = csr_kernels.hop_diameter(csr)
        monkeypatch.undo()
        assert len(searched) <= 128
        assert len(set(searched)) == len(searched)
        assert diameter == reference.hop_diameter(graph)

    def test_vertex_transitive_graph_searches_each_source_once(self, monkeypatch):
        # No bound settles any node of a cycle: every node is searched, once.
        n = 1024
        csr = generators.cycle_graph(n).csr()
        searched = self._count_searched_sources(monkeypatch)
        assert csr_kernels.hop_diameter(csr) == n // 2
        assert sorted(searched) == list(range(n))

    @staticmethod
    def _count_sweeps(monkeypatch):
        """Record the diameter each all-sources sweep returns."""
        sweeps: list[int] = []
        sweep = csr_kernels._bitset_hop_diameter

        def counting(csr):
            sweeps.append(sweep(csr))
            return sweeps[-1]

        monkeypatch.setattr(csr_kernels, "_bitset_hop_diameter", counting)
        return sweeps

    @common_settings
    @given(graph_case())
    def test_sweep_matches_independent_oracle(self, case):
        # The sweep on its own, whatever the selection rule would pick.
        graph = case[0]
        if graph.node_count > 1 and graph.is_connected():
            sweep = csr_kernels._bitset_hop_diameter(graph.csr())
            assert sweep == reference.hop_diameter(graph)

    @pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129])
    def test_sweep_at_word_boundaries(self, monkeypatch, n):
        graphs = [generators.connected_workload(n, RandomSource(n), weighted=True, max_weight=8)]
        if n - 1 <= csr_kernels.BITSET_MAX_DEPTH:
            graphs.append(generators.complete_graph(n))
        sweeps = self._count_sweeps(monkeypatch)
        for graph in graphs:
            assert csr_kernels.hop_diameter(graph.csr()) == reference.hop_diameter(graph)
        assert sweeps == [reference.hop_diameter(graph) for graph in graphs]

    def test_cold_start_instance_searches_node_zero_then_sweeps(self, monkeypatch):
        graph = generators.connected_workload(1024, RandomSource(1), weighted=True, max_weight=8)
        csr = graph.csr()
        searched = self._count_searched_sources(monkeypatch)
        sweeps = self._count_sweeps(monkeypatch)
        assert csr_kernels.hop_diameter(csr) == 11
        assert searched == [0]
        assert sweeps == [11]

    @pytest.mark.parametrize(
        "family, build",
        [
            # Degree rule: node 0 is the hub (eccentricity 1, degree 1023).
            ("star", lambda: generators.star_graph(1024)),
            # Depth rule: node 0's eccentricity is 512 ...
            ("cycle", lambda: generators.cycle_graph(1024)),
            # ... and 109 on the ring of 2-neighbourhoods with 1% long links.
            (
                "locality",
                lambda: generators.random_geometric_like_graph(
                    1024, neighbourhood=2, rng=RandomSource(1), extra_edge_probability=0.01
                ),
            ),
        ],
    )
    def test_deep_or_high_degree_graphs_keep_bounding(self, monkeypatch, family, build):
        graph = build()
        sweeps = self._count_sweeps(monkeypatch)
        assert csr_kernels.hop_diameter(graph.csr()) == reference.hop_diameter(graph)
        assert sweeps == []


def oracle_clustering(graph, separation):
    """Greedy rulers and closest-ruler clusters from ``reference.hop_distances`` of every node."""
    n = graph.node_count
    hops = [reference.hop_distances(graph, node) for node in range(n)]
    rulers = []
    for node in range(n):
        if all(hops[ruler].get(node, INFINITY) > separation for ruler in rulers):
            rulers.append(node)
    members = {ruler: [] for ruler in rulers}
    radius = 0
    for node in range(n):
        distance, ruler = min((hops[node].get(r, INFINITY), r) for r in rulers)
        members[ruler].append(node)
        radius = max(radius, distance)
    return rulers, members, radius


def clustering_lists(clustering):
    rulers, members, radius = clustering
    return rulers.tolist(), {r: m.tolist() for r, m in members.items()}, radius


class TestRulerClustering:
    @common_settings
    @given(graph_case(), st.integers(min_value=0, max_value=8))
    @example((generators.cycle_graph(30), 0, []), 10)
    @example((WeightedGraph(3), 0, []), 2)
    def test_kernel_matches_oracle(self, case, separation):
        graph = case[0]
        clustering = graph.ruler_clustering(separation)
        assert clustering_lists(clustering) == oracle_clustering(graph, separation)
        assert list(clustering.members) == clustering.rulers.tolist()
        for array in (clustering.rulers, *clustering.members.values()):
            assert array.dtype == numpy.int64
            assert not array.flags.writeable

    def test_negative_separation_rejected(self):
        with pytest.raises(ValueError, match="separation must be non-negative"):
            generators.path_graph(3).ruler_clustering(-1)

    def test_cache_lifecycle(self):
        graph = generators.connected_workload(40, RandomSource(5), weighted=True, max_weight=6)
        clustering = graph.ruler_clustering(4)
        assert graph.ruler_clustering(4) is clustering
        # Hops ignore weights: a weight update keeps the very same object.
        u, v, w = next(graph.edges())
        graph.update_weight(u, v, w + 1)
        assert graph.ruler_clustering(4) is clustering
        # A topology change recomputes, and the new result is the new graph's.
        graph.remove_edge(u, v)
        removed = graph.ruler_clustering(4)
        assert removed is not clustering
        assert clustering_lists(removed) == oracle_clustering(graph, 4)
        graph.add_edge(u, v, w)
        added = graph.ruler_clustering(4)
        assert added is not removed
        assert clustering_lists(added) == oracle_clustering(graph, 4)
        assert clustering_lists(added) == clustering_lists(clustering)


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
            assert numpy.array_equal(
                hop_levels(graph, sources, hop_limit), hop_reference(graph, sources, hop_limit)
            )
            assert numpy.array_equal(
                graph.distance_matrix(sources), distance_reference(graph, sources)
            )
            assert numpy.array_equal(
                graph.hop_limited_distance_matrix(sources, hop_limit),
                hop_limited_reference(graph, sources, hop_limit),
            )
            # One source per batch: the doubling batches stay within the budget.
            assert csr_kernels.hop_diameter(graph.csr()) == reference.hop_diameter(graph)
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
        assert batched.dtype == numpy.int64
        assert batched.tolist() == [function(key) for key in zip(*lanes, strict=True)]

    def test_many_empty(self):
        function = hash_family_for_network(64, RandomSource(1))
        empty = function.many(())
        assert empty.dtype == numpy.int64 and empty.size == 0

    def test_many_reduces_lazy_representatives(self):
        # At the field's edges the lazily folded value lands on p itself
        # (x + 0 at key p - 1 encodes x = p); the result is still canonical.
        prime = (1 << 61) - 1
        keys = [0, 1, prime - 2, prime - 1, prime, (1 << 62) - 2, (1 << 62) - 1]
        for coefficients in ([1, 0], [1, prime - 1], [2, 2], [prime - 1] * 3):
            function = KWiseHashFunction(coefficients, 1 << 40)
            assert function.many([keys]).tolist() == [function(key) for key in keys]

    # Lane values up to 2^62 - 1 (the range _canonical_token_keys emits),
    # with the field's edges mixed in; batches on both sides of the block.
    EDGES = [0, 1, (1 << 61) - 2, (1 << 61) - 1, 1 << 61, (1 << 62) - 1]
    SIZES = [0, 1, 2, 30, hashing._BLOCK - 1, hashing._BLOCK, hashing._BLOCK + 1]

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        n=st.sampled_from([2, 3, 64, 257, 1024, 1 << 17]),
        seed=st.integers(min_value=0, max_value=2**32),
        lane_count=st.integers(min_value=1, max_value=3),
        size=st.sampled_from(SIZES),
        prefix=st.lists(st.integers(min_value=0, max_value=(1 << 62) - 1), max_size=6),
    )
    def test_many_matches_scalar_on_any_lanes(self, n, seed, lane_count, size, prefix):
        function = hash_family_for_network(n, RandomSource(seed))
        rng = RandomSource(seed + 1)
        lanes = []
        for lane_index in range(lane_count):
            lane = [
                rng.choice(self.EDGES) if rng.random() < 0.2 else rng.randrange(1 << 62)
                for _ in range(size)
            ]
            head = prefix[lane_index:][:size]
            lane[: len(head)] = head
            lanes.append(lane)
        batched = function.many(lanes)
        expected = [function(tuple(lane[i] for lane in lanes)) for i in range(size)]
        assert batched.dtype == numpy.int64 and batched.size == size
        assert batched.tolist() == expected
