"""The skeleton's depth-``h`` exploration: member rows eagerly, the full matrix lazily.

Compute-Skeleton (Algorithm 6) charges the whole exploration, but the
simulator computes only the skeleton members' ``d_h`` rows; the full
``n × n`` matrix is built from the exploration's frozen snapshot the first
time something reads it (only APSP's final combination step does).  These
tests pin that

* a skeleton built from member rows equals one built from the full matrix,
  on connected, disconnected, single-node and edge-removed graphs,
  through the connectivity-doubling path and through ``extended``;
* no query except ``apsp`` materialises the full matrix, and a cold ``sssp``
  computes at most ``|V_S| + 2`` rows;
* rows describe the graph version the exploration ran on, not the live graph;
* repair makes the same decision, charges the same rounds and yields the same
  member rows whether or not the full matrix was materialised;
* the hop certificate (``csr.certified_rows``) holds only on exact rows, and
  repair recomputes every row that changes, so a repaired session -- its
  certified mask included -- equals a cold one bit for bit, also on a family
  with ``h`` below the hop diameter.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import HybridNetwork, HybridSession, ModelConfig
from repro.baselines.apsp_broadcast import apsp_broadcast_baseline
from repro.core.context import SkeletonContext, prepare_skeleton_context
from repro.core.skeleton import compute_skeleton
from repro.graphs import csr as csr_kernels
from repro.graphs import generators, reference
from repro.graphs.csr import chunked_sources
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


def assert_matches_full_matrix(skeleton, graph):
    full = literal_d_h(graph, skeleton.hop_length)
    weights, near = full_matrix_skeleton(full, skeleton.nodes)
    assert np.array_equal(skeleton.weights, weights)
    assert not skeleton.weights.flags.writeable
    assert np.array_equal(skeleton.near_distances, near)
    assert skeleton.near_distances.flags.c_contiguous
    assert not skeleton.near_distances.flags.writeable
    assert np.array_equal(skeleton.knowledge_matrix, full)


@st.composite
def exploration_case(draw):
    """A network (connected, disconnected, n = 1 or with edges removed) and a probability."""
    family = draw(st.sampled_from(["connected", "sparse", "single", "removed-edges", "path"]))
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
    if family == "removed-edges":
        edges = sorted((u, v) for u, v, _ in graph.edges())
        picks = draw(st.lists(st.integers(min_value=0, max_value=len(edges) - 1), max_size=4))
        for pick in sorted(set(picks)):
            graph.remove_edge(*edges[pick])
    xi = 0.05 if family == "path" else draw(st.sampled_from([0.3, 0.75, 1.0]))
    config = ModelConfig(rng_seed=seed, skeleton_xi=xi)
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
        assert_matches_full_matrix(skeleton, network.graph)

        # A derived skeleton (one more member) gets the same treatment.
        context = prepare_skeleton_context(network, probability)
        extended = context.extended([pick % network.n])
        if extended is not None:
            assert_matches_full_matrix(extended.skeleton, network.graph)

    def test_connectivity_retry_doubles_and_matches(self):
        config = ModelConfig(rng_seed=3, skeleton_xi=0.05)
        network = HybridNetwork(generators.path_graph(30), config)
        skeleton = compute_skeleton(network, 0.3, ensure_connected=True)
        first = skeleton_hop_length(network.n, 1 / 0.3, xi=0.05)
        assert skeleton.hop_length > first  # the doubling path ran
        assert skeleton.is_connected()
        assert_matches_full_matrix(skeleton, network.graph)

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
        assert result.distances == pytest.approx(reference.single_source_distances(graph, 17))

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


def reference_matrix(graph):
    """All-pairs distances from the edge-list Dijkstra oracle, as an array."""
    matrix = np.full((graph.node_count, graph.node_count), np.inf)
    for source, row in reference.all_pairs_distances(graph).items():
        matrix[source, list(row)] = list(row.values())
    return matrix


def copy_graph(graph):
    copy = WeightedGraph(graph.node_count)
    for u, v, w in graph.edges():
        copy.add_edge(u, v, w)
    return copy


class RecomputeSpy:
    """Record the ``d_h`` rows each :meth:`SkeletonContext.repair` recomputes.

    A repair reads the old exploration (its snapshot) and recomputes rows on
    the new graph's snapshot; only the latter are recorded, one set per
    repair call.
    """

    def __init__(self, monkeypatch):
        self.recomputed: list[set[int]] = []
        self._old = None
        original_repair = SkeletonContext.repair
        original_kernel = csr_kernels.hop_limited_matrix

        def repair(context, deltas):
            self._old = context.skeleton.exploration.snapshot
            self.recomputed.append(set())
            try:
                return original_repair(context, deltas)
            finally:
                self._old = None

        def kernel(csr, sources, hop_limit):
            sources = list(sources)
            if self._old is not None and csr is not self._old:
                self.recomputed[-1].update(int(source) for source in sources)
            return original_kernel(csr, sources, hop_limit)

        monkeypatch.setattr(SkeletonContext, "repair", repair)
        monkeypatch.setattr(csr_kernels, "hop_limited_matrix", kernel)


def barbell_case(seed):
    """Two weighted 60-cliques joined by an 80-edge unit path: ``h`` = 57 < D = 82.

    Rows near the middle of the path reach everything within the bound and
    are certified; clique rows are not.
    """
    graph = generators.barbell_graph(60, 80)
    rng = RandomSource(seed)
    for u, v, _ in sorted(graph.edges()):
        if max(u, v) < 120:  # a clique edge
            graph.update_weight(u, v, 1 + rng.randrange(3))
    return graph


class TestHopCertificate:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(exploration_case(), st.integers(min_value=0, max_value=12))
    def test_certified_rows_are_exact_and_match_the_bounded_search(self, case, hop_limit):
        network, _, _ = case
        csr = network.graph.csr()
        sources = range(csr.n)
        d_h = csr_kernels.hop_limited_matrix(csr, sources, hop_limit)
        certified = csr_kernels.certified_rows(csr, sources, d_h, hop_limit)
        exact = csr_kernels.distance_matrix(csr, sources)
        assert np.array_equal(d_h[certified], exact[certified])
        # The kernel's own test: the bounded search reaches the whole component.
        bounded = exact <= hop_limit * csr.min_weight
        reached = np.count_nonzero(bounded, axis=1)
        assert np.array_equal(certified, reached == csr_kernels.component_sizes(csr))

    @pytest.mark.parametrize("hop_limit", [0, 1, 2, 3, 5, 8, 12])
    def test_two_components_and_an_isolated_node(self, hop_limit):
        # Path 0 -1- 1 -2- 2 (weighted diameter 3), path 3 -3- 4 -3- 5 -3- 6
        # (diameter 9) and the isolated node 7: each component's rows pass
        # the certificate at their own hop limit, node 7's at every limit.
        graph = WeightedGraph.from_edges(8, [(0, 1, 1), (1, 2, 2), (3, 4, 3), (4, 5, 3), (5, 6, 3)])
        csr = graph.csr()
        sources = range(8)
        d_h = csr_kernels.hop_limited_matrix(csr, sources, hop_limit)
        certified = csr_kernels.certified_rows(csr, sources, d_h, hop_limit)
        # The certificate as first written: finite on the whole component,
        # largest finite value within the bound.
        finite = np.isfinite(d_h)
        largest = np.max(d_h, axis=1, where=finite, initial=0.0)
        written = (np.count_nonzero(finite, axis=1) == [3, 3, 3, 4, 4, 4, 4, 1]) & (
            largest <= hop_limit * csr.min_weight
        )
        assert np.array_equal(certified, written)
        assert certified[7]
        assert certified[0] == (hop_limit >= 3) and certified[3] == (hop_limit >= 9)
        exact = csr_kernels.distance_matrix(csr, sources)
        assert np.array_equal(d_h[certified], exact[certified])

    def test_exploration_caches_a_read_only_mask(self):
        graph = barbell_case(1)
        skeleton = compute_skeleton(HybridNetwork(graph, ModelConfig(rng_seed=1)), 0.07)
        mask = skeleton.exploration.certified()
        assert mask is skeleton.exploration.certified()
        assert not mask.flags.writeable
        with pytest.raises(ValueError):
            mask[0] = False

    @pytest.mark.parametrize("faults", [None, FaultModel(drop_rate=0.05, seed=3)])
    def test_mixed_family_apsp_baseline_and_repair_match_reference(self, faults):
        graph = barbell_case(2)
        session = HybridSession(graph, ModelConfig(rng_seed=2), fault_model=faults)
        matrix = session.apsp().matrix
        certified = session.context().skeleton.exploration.certified()
        assert 0 < int(certified.sum()) < graph.node_count
        truth = reference_matrix(graph)
        assert np.array_equal(matrix, truth)
        baseline = apsp_broadcast_baseline(
            HybridNetwork(copy_graph(graph), ModelConfig(rng_seed=2, faults=faults))
        )
        assert np.array_equal(baseline.matrix, truth)

        # A heavy left-clique edge raised: the right clique's rows are beyond
        # h hops of both endpoints, so both endpoint columns are inf there and
        # the tightness test must skip them without an inf - inf warning.
        old = session.context().skeleton.exploration
        members = set(session.context().skeleton.nodes)
        u, v, w = max(
            (edge for edge in graph.edges() if max(edge[:2]) < 60 and not members & set(edge[:2])),
            key=lambda edge: (edge[2], edge[0], edge[1]),
        )
        session.update_weight(u, v, w + 4)
        repaired = session.apsp().matrix
        assert [record.action for record in session.repairs] == ["repaired"]
        assert 0 < session.repairs[0].rows < graph.node_count
        assert (~np.isfinite(old.rows([u, v])).any(axis=0)).any()

        cold = HybridSession(copy_graph(graph), ModelConfig(rng_seed=2), fault_model=faults)
        assert np.array_equal(repaired, cold.apsp().matrix)
        assert np.array_equal(repaired, reference_matrix(graph))
        warm_exploration = session.context().skeleton.exploration
        cold_exploration = cold.context().skeleton.exploration
        assert np.array_equal(warm_exploration.matrix(), cold_exploration.matrix())
        assert np.array_equal(warm_exploration.certified(), cold_exploration.certified())


def apply_delta(session, members, kind, pick, amount):
    """One mutation of ``kind`` off the skeleton ``members`` (None when none applies)."""
    graph = session.graph
    edges = sorted(edge for edge in graph.edges() if not members & set(edge[:2]))
    if not edges:
        return None
    u, v, weight = edges[pick % len(edges)]
    if kind == "raise":
        session.update_weight(u, v, weight + amount)
    elif kind == "lower":
        if weight == 1:
            return None
        session.update_weight(u, v, max(1, weight - amount))
    elif kind == "add":
        n = graph.node_count
        missing = [
            (a, b)
            for a in range(n)
            for b in range(a + 1, n)
            if not graph.has_edge(a, b) and not members & {a, b}
        ]
        if not missing:
            return None
        session.add_edge(*missing[pick % len(missing)], 1 + amount % 8)
    else:
        survivor = copy_graph(graph)
        survivor.remove_edge(u, v)
        if not survivor.is_connected():
            return None
        session.remove_edge(u, v)
    return kind


def locality_case(seed):
    """A weighted locality graph on 64 nodes: hop diameter 16 exceeds ``h`` = 10 at ξ = 0.3."""
    base = generators.random_geometric_like_graph(
        64, 2, RandomSource(seed), extra_edge_probability=0.02
    )
    rng = RandomSource(seed + 1000)
    graph = WeightedGraph(64)
    for u, v, _ in sorted(base.edges()):
        graph.add_edge(u, v, 2 + rng.randrange(7))
    return graph


def pendant_triangle_case(seed):
    """A random weighted graph on 0..61 (weights 2..8) with the triangle 0-62-63 (weight 2).

    Every row but 62's and 63's is equidistant from 62 and 63, so lowering
    {62, 63} to 1 flags two rows while halving the certificate's bound.
    """
    base = generators.connected_workload(62, RandomSource(seed), weighted=True, max_weight=7)
    graph = WeightedGraph(64)
    for u, v, w in base.edges():
        graph.add_edge(u, v, w + 1)
    for u, v in ((0, 62), (0, 63), (62, 63)):
        graph.add_edge(u, v, 2)
    return graph


delta_kinds = st.sampled_from(["raise", "lower", "add", "remove"])
delta_batch = st.lists(
    st.tuples(delta_kinds, st.integers(0, 10_000), st.integers(1, 8)), min_size=1, max_size=3
)


class TestRepairMatchesCold:
    """A repaired session equals a cold one, certified mask included (DESIGN.md §12)."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    # Lowering the pendant edge {62, 63} (the last one, pick -1) to 1 drops
    # w_min from 2, and repair keeps the batch: rows lose their certificate
    # although their values stay.
    @example(
        family="pendant", seed=5, batch=[("lower", -1, 8)], faults=False, materialised=True
    )
    @example(
        family="pendant",
        seed=12,
        batch=[("lower", -1, 8), ("raise", 3, 5)],
        faults=True,
        materialised=False,
    )
    @example(
        family="pendant",
        seed=3,
        batch=[("raise", 3, 3), ("add", 15, 6), ("remove", 9, 1)],
        faults=True,
        materialised=True,
    )
    @example(
        family="pendant",
        seed=27,
        batch=[("raise", 3, 3), ("add", 15, 6), ("remove", 9, 1)],
        faults=False,
        materialised=False,
    )
    @given(
        family=st.sampled_from(["pendant", "locality"]),
        seed=st.integers(0, 200),
        batch=delta_batch,
        faults=st.booleans(),
        materialised=st.booleans(),
    )
    def test_recomputes_every_changed_row_and_matches_cold(
        self, family, seed, batch, faults, materialised
    ):
        if family == "pendant":
            graph, config = pendant_triangle_case(seed), ModelConfig(rng_seed=seed)
        else:
            graph, config = locality_case(seed), ModelConfig(rng_seed=seed, skeleton_xi=0.3)
        fault_model = FaultModel(drop_rate=0.05, seed=3) if faults else None
        warm = HybridSession(graph, config, fault_model=fault_model)
        if materialised:
            warm.apsp()
        else:
            warm.sssp(seed % 64)
        context = warm.context()
        hop_length = context.skeleton.hop_length
        before = warm.network.graph.hop_limited_distance_matrix(range(64), hop_length)
        members = set(context.skeleton.nodes)
        if not any([apply_delta(warm, members, *delta) for delta in batch]):
            return
        with pytest.MonkeyPatch.context() as monkeypatch:
            spy = RecomputeSpy(monkeypatch)
            warm_matrix = warm.apsp().matrix

        cold = HybridSession(copy_graph(graph), config, fault_model=fault_model)
        cold_matrix = cold.apsp().matrix
        assert np.array_equal(warm_matrix, cold_matrix)
        if family == "pendant":
            # At ξ = 0.3 the locality family's skeleton misses Lemma C.1's
            # sample every h hops, so APSP may be inexact there; the repair
            # contract is bit-identity with the cold session either way.
            assert np.array_equal(cold_matrix, reference_matrix(graph))
        warm_skeleton, cold_skeleton = warm.context().skeleton, cold.context().skeleton
        assert np.array_equal(warm_skeleton.knowledge_matrix, cold_skeleton.knowledge_matrix)
        assert np.array_equal(
            warm_skeleton.exploration.certified(), cold_skeleton.exploration.certified()
        )
        assert np.array_equal(warm_skeleton.weights, cold_skeleton.weights)

        record = warm.repairs[-1]
        if record.action != "repaired":
            assert record.rows == 0
            return
        recomputed = spy.recomputed[-1]
        assert record.rows == len(recomputed)
        changed = set(np.flatnonzero((before != cold_skeleton.knowledge_matrix).any(axis=1)))
        if not materialised:
            changed &= set(context.skeleton.nodes)
        assert changed <= recomputed

    def test_a_lower_w_min_decertifies_the_repaired_rows(self):
        # A weight-2 path 0..29 ending in the triangle 29-30-31.  Lowering
        # {30, 31} to 1 halves the bound h * w_min; rows 9..21 were certified
        # and lose it although the lowering moves none of their distances
        # (30 and 31 are equidistant from them).  The repaired exploration's
        # mask is read on the new graph, so it loses them as a cold one does.
        graph = WeightedGraph(32)
        for node in range(29):
            graph.add_edge(node, node + 1, 2)
        for u, v in ((29, 30), (29, 31), (30, 31)):
            graph.add_edge(u, v, 2)
        config = ModelConfig(rng_seed=0, skeleton_xi=1.5)
        session = HybridSession(graph, config, skeleton_probability=0.25)
        session.apsp()
        certified_before = np.flatnonzero(session.context().skeleton.exploration.certified())
        assert certified_before.tolist() == list(range(9, 22))

        session.update_weight(30, 31, 1)
        with pytest.MonkeyPatch.context() as monkeypatch:
            spy = RecomputeSpy(monkeypatch)
            matrix = session.apsp().matrix
        record = session.repairs[-1]
        assert record.action == "repaired"
        # Nodes 9..31 are within h = 21 hops of the triangle: the superset.
        assert spy.recomputed[-1] == set(range(9, 32))
        assert record.rows == 23

        cold = HybridSession(copy_graph(graph), config, skeleton_probability=0.25)
        assert np.array_equal(matrix, cold.apsp().matrix)
        warm_exploration = session.context().skeleton.exploration
        cold_exploration = cold.context().skeleton.exploration
        assert not warm_exploration.certified().any()
        assert np.array_equal(warm_exploration.certified(), cold_exploration.certified())
        assert np.array_equal(warm_exploration.matrix(), cold_exploration.matrix())


# The batched kernels' byte-budget source chunking never changes a result.
class TestChunkedSources:
    def test_default_budget_preserved(self):
        # 128 MiB / (8 bytes x scratch factor 4) = 1<<22 cells.
        assert chunked_sources(1, list(range(10))) == [list(range(10))]
        chunks = chunked_sources(1 << 21, list(range(8)))
        assert chunks == [[0, 1], [2, 3], [4, 5], [6, 7]]

    def test_explicit_budget(self):
        # budget 8*4*10 bytes => 10 cells => chunk of 2 sources at n=5.
        chunks = chunked_sources(5, list(range(5)), byte_budget=8 * 4 * 10)
        assert chunks == [[0, 1], [2, 3], [4]]

    def test_tiny_budget_still_progresses(self):
        assert chunked_sources(100, [1, 2], byte_budget=1) == [[1], [2]]

    def test_chunk_size_never_changes_results(self, monkeypatch):
        graph = generators.random_connected_graph(40, 3.0, RandomSource(13), max_weight=7)
        baseline = graph.distance_matrix()
        diameter = reference.hop_diameter(graph)
        monkeypatch.setattr(csr_kernels, "CHUNK_BYTES", 8 * 4 * 40 * 3)  # 3 sources/chunk
        rechunked = WeightedGraph.from_edges(40, graph.edges())
        assert (rechunked.distance_matrix() == baseline).all()
        assert rechunked.hop_diameter() == diameter
