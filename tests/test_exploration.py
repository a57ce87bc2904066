"""The skeleton's depth-``h`` exploration: member rows eagerly, the full matrix lazily.

Compute-Skeleton (Algorithm 6) charges the whole exploration, but the
simulator computes only the skeleton members' ``d_h`` rows; the full
``n × n`` matrix is built from the exploration's frozen snapshot the first
time something reads it (only APSP's final combination step does).  These
tests pin that

* a skeleton built from member rows equals one built from the full matrix,
  on connected, disconnected, single-node and edge-outage survivor graphs,
  through the connectivity-doubling path and through ``extended``;
* no query except ``apsp`` materialises the full matrix, and a cold ``sssp``
  computes at most ``|V_S| + 2`` rows;
* rows describe the graph version the exploration ran on, not the live graph;
* repair makes the same decision, charges the same rounds and yields the same
  member rows whether or not the full matrix was materialised.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import HybridNetwork, HybridSession, ModelConfig
from repro.core.context import prepare_skeleton_context
from repro.core.skeleton import compute_skeleton
from repro.graphs import csr as csr_kernels
from repro.graphs import generators, reference
from repro.graphs.graph import WeightedGraph
from repro.graphs.skeleton_analysis import skeleton_hop_length
from repro.hybrid.faults import FaultModel
from repro.localnet.flooding import LimitedExploration
from repro.util.rand import RandomSource


def literal_d_h(graph, hop_limit):
    """The full ``d_h`` matrix from the edge-list Bellman-Ford oracle."""
    n = graph.node_count
    expected = np.full((n, n), np.inf)
    for source in range(n):
        for node, value in reference.hop_limited_distances(graph, source, hop_limit).items():
            expected[source, node] = value
    return expected


def full_matrix_skeleton(full, nodes):
    """Skeleton weights and near distances read off a full ``d_h`` matrix."""
    weights = np.full((len(nodes), len(nodes)), np.inf)
    for i, u in enumerate(nodes):
        for j, v in enumerate(nodes):
            if i < j and np.isfinite(full[u, v]):
                weights[i, j] = weights[j, i] = max(1, int(round(full[u, v])))
    return weights, full[:, nodes]


def assert_matches_full_matrix(skeleton, local_graph):
    full = literal_d_h(local_graph, skeleton.hop_length)
    weights, near = full_matrix_skeleton(full, skeleton.nodes)
    assert np.array_equal(skeleton.weights, weights)
    assert not skeleton.weights.flags.writeable
    assert np.array_equal(skeleton.near_distances, near)
    assert skeleton.near_distances.flags.c_contiguous
    assert not skeleton.near_distances.flags.writeable
    assert np.array_equal(skeleton.knowledge_matrix, full)


@st.composite
def exploration_case(draw):
    """A network (connected, disconnected, n = 1 or with edge outages) and a probability."""
    family = draw(st.sampled_from(["connected", "sparse", "single", "outages", "path"]))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = RandomSource(seed)
    n = 1 if family == "single" else draw(st.integers(min_value=2, max_value=28))
    if family == "path":
        # Long hop distances against a tiny xi: the connectivity retry doubles h.
        graph = generators.path_graph(n)
        for node in range(n - 1):
            graph.update_weight(node, node + 1, 1 + rng.randrange(6))
    elif family == "sparse":
        graph = WeightedGraph(n)
        for _ in range(draw(st.integers(min_value=0, max_value=n))):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                graph.add_edge(u, v, 1 + rng.randrange(6))
    elif family == "single":
        graph = WeightedGraph(1)
    else:
        graph = generators.connected_workload(n, rng, weighted=True, max_weight=6)
    faults = None
    if family == "outages":
        edges = sorted((u, v) for u, v, _ in graph.edges())
        picks = draw(st.lists(st.integers(min_value=0, max_value=len(edges) - 1), max_size=4))
        faults = FaultModel(edge_outages=[edges[pick] for pick in picks])
    xi = 0.05 if family == "path" else draw(st.sampled_from([0.3, 0.75, 1.0]))
    config = ModelConfig(rng_seed=seed, skeleton_xi=xi, faults=faults)
    probability = draw(st.sampled_from([0.1, 0.3, 1.0]))
    ensure_connected = family == "path" or draw(st.booleans())
    return HybridNetwork(graph, config), probability, ensure_connected


class TestMemberRowsEqualFullMatrix:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(exploration_case(), st.integers(min_value=0, max_value=10_000))
    def test_skeleton_from_member_rows_equals_full_matrix_skeleton(self, case, pick):
        network, probability, ensure_connected = case
        skeleton = compute_skeleton(network, probability, ensure_connected=ensure_connected)
        assert not skeleton.exploration.materialised
        assert_matches_full_matrix(skeleton, network.local_graph)

        # A derived skeleton (one more member) gets the same treatment.
        context = prepare_skeleton_context(network, probability)
        extended = context.extended([pick % network.n])
        if extended is not None:
            assert_matches_full_matrix(extended.skeleton, network.local_graph)

    def test_connectivity_retry_doubles_and_matches(self):
        config = ModelConfig(rng_seed=3, skeleton_xi=0.05)
        network = HybridNetwork(generators.path_graph(30), config)
        skeleton = compute_skeleton(network, 0.3, ensure_connected=True)
        first = skeleton_hop_length(network.n, 1 / 0.3, xi=0.05)
        assert skeleton.hop_length > first  # the doubling path ran
        assert skeleton.is_connected()
        assert_matches_full_matrix(skeleton, network.local_graph)

    def test_survivor_graph_rows_ignore_outage_edges(self):
        graph = generators.connected_workload(24, RandomSource(4), weighted=True, max_weight=5)
        outages = sorted((u, v) for u, v, _ in graph.edges())[::3]
        network = HybridNetwork(
            graph, ModelConfig(rng_seed=4, faults=FaultModel(edge_outages=outages))
        )
        skeleton = compute_skeleton(network, 0.3)
        assert network.local_graph is not graph
        assert_matches_full_matrix(skeleton, network.local_graph)

    @example(extra=[0])
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.integers(min_value=0, max_value=39), max_size=5))
    def test_extended_slices_the_materialised_matrix_identically(self, extra):
        graph = generators.connected_workload(40, RandomSource(8), weighted=True, max_weight=7)
        lazy = prepare_skeleton_context(HybridNetwork(graph, ModelConfig(rng_seed=8)), 0.2)
        eager = prepare_skeleton_context(HybridNetwork(graph, ModelConfig(rng_seed=8)), 0.2)
        eager.skeleton.knowledge_matrix  # materialise before extending
        lazy_extended, eager_extended = lazy.extended(extra), eager.extended(extra)
        assert (lazy_extended is None) == (eager_extended is None)
        if lazy_extended is None:
            return
        assert not lazy_extended.skeleton.exploration.materialised
        assert eager_extended.skeleton.exploration is eager.skeleton.exploration
        assert lazy_extended.skeleton.nodes == eager_extended.skeleton.nodes
        assert np.array_equal(
            lazy_extended.skeleton.near_distances, eager_extended.skeleton.near_distances
        )
        assert np.array_equal(lazy_extended.skeleton.weights, eager_extended.skeleton.weights)


class CountingRows:
    """Monkeypatch ``csr.hop_limited_matrix`` to count the ``d_h`` rows it computes."""

    def __init__(self, monkeypatch):
        self.calls: list[int] = []
        original = csr_kernels.hop_limited_matrix

        def counting(csr, sources, hop_limit):
            sources = list(sources)
            self.calls.append(len(sources))
            return original(csr, sources, hop_limit)

        monkeypatch.setattr(csr_kernels, "hop_limited_matrix", counting)

    @property
    def rows(self) -> int:
        return sum(self.calls)


class CountingMaterialisations:
    """Spy on :meth:`LimitedExploration.matrix`: which calls built the full matrix."""

    def __init__(self, monkeypatch):
        self.built: list[LimitedExploration] = []
        original = LimitedExploration.matrix

        def spy(exploration):
            if not exploration.materialised:
                self.built.append(exploration)
            return original(exploration)

        monkeypatch.setattr(LimitedExploration, "matrix", spy)


class TestRowsComputedOnDemand:
    def test_only_apsp_materialises_the_full_matrix(self, monkeypatch):
        graph = generators.connected_workload(48, RandomSource(5), weighted=True, max_weight=7)
        session = HybridSession(graph, ModelConfig(rng_seed=5))
        # The diameter algorithm of Section 5 needs an unweighted graph.
        unweighted = HybridSession(
            generators.connected_workload(48, RandomSource(5), weighted=False),
            ModelConfig(rng_seed=5),
        )
        spy = CountingMaterialisations(monkeypatch)
        session.sssp(3)
        session.sssp_batch([5, 7, 11])
        session.shortest_paths([1, 2, 4])
        session.shortest_paths([9])
        unweighted.diameter()
        unweighted.sssp(2)
        assert spy.built == []
        first = session.apsp()
        second = session.apsp()
        assert len(spy.built) == 1
        assert spy.built[0] is session.context().skeleton.exploration
        assert np.array_equal(first.matrix, second.matrix)

    def test_cold_sssp_computes_at_most_member_rows_plus_two(self, monkeypatch):
        # The cold-start instance: n = 1024, weights 1..8, h = 167.
        graph = generators.connected_workload(1024, RandomSource(1), weighted=True, max_weight=8)
        counter = CountingRows(monkeypatch)
        session = HybridSession(graph, ModelConfig(rng_seed=1))
        result = session.sssp(17)
        members = session.context().skeleton.size
        assert counter.rows <= members + 2
        assert max(counter.calls) < graph.node_count
        assert result.distances == pytest.approx(graph.dijkstra(17))

    def test_two_apsp_calls_compute_the_full_matrix_once(self, monkeypatch):
        graph = generators.connected_workload(40, RandomSource(6), weighted=True, max_weight=5)
        session = HybridSession(graph, ModelConfig(rng_seed=6))
        session.context()
        counter = CountingRows(monkeypatch)
        session.apsp()
        session.apsp()
        assert counter.rows == graph.node_count


class TestSnapshot:
    @pytest.mark.parametrize("mutation", ["update", "add", "remove"])
    def test_old_skeleton_reads_the_pre_mutation_matrix(self, mutation):
        graph = generators.connected_workload(36, RandomSource(2), weighted=True, max_weight=6)
        context = prepare_skeleton_context(HybridNetwork(graph, ModelConfig(rng_seed=2)), 0.25)
        skeleton = context.skeleton
        before = literal_d_h(graph, skeleton.hop_length)
        u, v, weight = max(graph.edges(), key=lambda edge: edge[2])
        if mutation == "update":
            graph.update_weight(u, v, 1 if weight > 1 else 2)
        elif mutation == "remove":
            u, v, _ = min(graph.edges(), key=lambda edge: edge[2])
            graph.remove_edge(u, v)
        else:
            graph.add_edge(*next(
                (a, b) for a in range(36) for b in range(a + 1, 36) if not graph.has_edge(a, b)
            ), 1)
        assert not context.is_current()
        assert not np.array_equal(literal_d_h(graph, skeleton.hop_length), before)
        assert np.array_equal(skeleton.knowledge_matrix, before)
        assert np.array_equal(skeleton.exploration.rows([u, v]), before[[u, v]])

    def test_weight_update_leaves_the_old_view_untouched(self):
        graph = generators.connected_workload(20, RandomSource(3), weighted=True, max_weight=4)
        snapshot = graph.csr()
        weights = snapshot.weights.copy()
        u, v, weight = next(graph.edges())
        graph.update_weight(u, v, weight + 5)
        assert graph.csr() is not snapshot
        assert np.array_equal(snapshot.weights, weights)
        assert not np.array_equal(graph.csr().weights, weights)

    def test_full_matrix_is_read_only(self):
        graph = generators.connected_workload(20, RandomSource(3), weighted=True, max_weight=4)
        skeleton = compute_skeleton(HybridNetwork(graph, ModelConfig(rng_seed=3)), 0.3)
        with pytest.raises(ValueError):
            skeleton.knowledge_matrix[0, 0] = 1.0


def off_skeleton_edges(session, heavy):
    """Edges away from the canonical skeleton, heaviest (or lightest) first."""
    members = set(session.context().skeleton.nodes)
    return sorted(
        ((u, v, w) for u, v, w in session.graph.edges() if u not in members and v not in members),
        key=lambda edge: (-edge[2] if heavy else edge[2], edge[0], edge[1]),
    )


class TestRepairWithoutTheFullMatrix:
    @pytest.mark.parametrize(
        "batch, expected",
        [
            ("raise one heavy edge", "repaired"),
            ("raise three heavy edges", "repaired"),
            ("lower many light edges", "rebuilt"),
        ],
    )
    def test_same_decision_rounds_and_member_rows(self, batch, expected):
        def make_session():
            graph = generators.connected_workload(60, RandomSource(12), weighted=True, max_weight=7)
            return HybridSession(graph, ModelConfig(rng_seed=12))

        lazy, eager = make_session(), make_session()
        lazy.sssp(4)
        # Publish E_S on the lazy side too, so the two sessions differ only in
        # whether the exploration's full matrix was built.
        lazy.context().published_skeleton_distances("publish")
        eager.apsp()
        if batch.startswith("raise"):
            count = 1 if batch == "raise one heavy edge" else 3
            deltas = [(u, v, w + 3) for u, v, w in off_skeleton_edges(lazy, heavy=True)[:count]]
        else:
            deltas = [(u, v, max(1, w - 4)) for u, v, w in off_skeleton_edges(lazy, heavy=False)]
        for session in (lazy, eager):
            for u, v, weight in deltas:
                session.update_weight(u, v, weight)
        lazy.sssp(4)
        eager.apsp()

        assert [(r.action, r.rounds) for r in lazy.repairs] == [
            (r.action, r.rounds) for r in eager.repairs
        ]
        assert [r.action for r in eager.repairs] == [expected]
        lazy_context, eager_context = lazy.context(), eager.context()
        assert not lazy_context.skeleton.exploration.materialised
        assert eager_context.skeleton.exploration.materialised
        assert lazy_context.skeleton.nodes == eager_context.skeleton.nodes
        assert np.array_equal(
            lazy_context.skeleton.near_distances, eager_context.skeleton.near_distances
        )
        assert np.array_equal(lazy_context.skeleton.weights, eager_context.skeleton.weights)
        # Both equal a cold exploration of the mutated graph.
        assert_matches_full_matrix(eager_context.skeleton, eager.graph)
        assert_matches_full_matrix(lazy_context.skeleton, lazy.graph)
