"""Tests for the HybridSession serving layer and the SkeletonContext plumbing.

Covers the three guarantees the session API makes:

* the cold path of every refactored entry point is bit-identical to running
  the prologue inline (same results, same ``RoundMetrics``),
* a warm session reuses the prepared skeleton context across query kinds
  (no second ``compute_skeleton``) and warm answers equal cold answers, and
* any graph mutation invalidates the whole preprocessing cache.
"""

import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.context as context_module
import repro.core.kssp as kssp_module
from repro import (
    HybridNetwork,
    HybridSession,
    ModelConfig,
    approximate_diameter,
    apsp_exact,
    make_tokens,
    prepare_skeleton_context,
    route_tokens,
    shortest_paths_via_clique,
)
from repro.baselines import apsp_broadcast_baseline
from repro.clique import (
    BroadcastBellmanFordSSSP,
    GatherDiameter,
    GatherShortestPaths,
)
from repro.graphs import csr as csr_kernels
from repro.graphs import generators, reference
from repro.graphs.graph import WeightedGraph
from repro.hybrid.metrics import RoundMetrics
from repro.util.rand import RandomSource

PROPERTY_SETTINGS = settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class InexactGather(GatherShortestPaths):
    """``GatherShortestPaths`` declaring a ``(2, 0)`` guarantee."""

    def __init__(self):
        super().__init__()
        self.spec = dataclasses.replace(self.spec, alpha=2.0, name="inexact-gather")


def make_graph(seed, n=48, weighted=True):
    return generators.connected_workload(
        n, RandomSource(seed), weighted=weighted, max_weight=7
    )


def locality_graph(seed, n=60):
    return generators.random_geometric_like_graph(
        n, neighbourhood=2, rng=RandomSource(seed), extra_edge_probability=0.01
    )


def fresh_pair(graph, seed):
    """Two identical networks for a with/without-context comparison."""
    return (
        HybridNetwork(graph, ModelConfig(rng_seed=seed)),
        HybridNetwork(graph, ModelConfig(rng_seed=seed)),
    )


class CountingSkeletons:
    """Monkeypatch helper counting compute_skeleton invocations."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = context_module.compute_skeleton

        def wrapper(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(context_module, "compute_skeleton", wrapper)


class TestColdPathBitIdentity:
    """context=None and an identically-phased prepared context are one path."""

    def test_apsp_cold_equals_prepared_context(self):
        graph = make_graph(11)
        plain, prepared = fresh_pair(graph, seed=11)
        import math

        result_plain = apsp_exact(plain)
        context = prepare_skeleton_context(
            prepared,
            min(1.0, 1.0 / math.sqrt(graph.node_count)),
            phase="apsp:skeleton",
        )
        skeleton_rounds = context.preparation_rounds
        result_prepared = apsp_exact(prepared, context=context)
        assert (result_plain.matrix == result_prepared.matrix).all()
        # A pre-built context reports the amortized (query-only) rounds; the
        # externally-paid skeleton plus the query equals the inline cold
        # total, and the network-level metrics agree bit for bit.
        assert result_prepared.rounds + skeleton_rounds == result_plain.rounds
        assert plain.metrics == prepared.metrics

    def test_kssp_cold_equals_prepared_context(self):
        from repro.core.skeleton import framework_sampling_probability

        graph = make_graph(12)
        plain, prepared = fresh_pair(graph, seed=12)
        algorithm = GatherShortestPaths()
        sources = [0, 5, 20]
        result_plain = shortest_paths_via_clique(plain, sources, algorithm)
        context = prepare_skeleton_context(
            prepared,
            framework_sampling_probability(graph.node_count, algorithm.spec.delta),
            phase="kssp:skeleton",
        )
        skeleton_rounds = context.preparation_rounds
        result_prepared = shortest_paths_via_clique(
            prepared, sources, GatherShortestPaths(), context=context
        )
        assert np.array_equal(result_plain.estimates, result_prepared.estimates)
        assert result_prepared.rounds + skeleton_rounds == result_plain.rounds
        assert result_plain.clique_rounds == result_prepared.clique_rounds
        assert plain.metrics == prepared.metrics

    def test_diameter_cold_equals_prepared_context(self):
        from repro.core.skeleton import framework_sampling_probability

        graph = locality_graph(13)
        plain, prepared = fresh_pair(graph, seed=13)
        algorithm = GatherDiameter()
        result_plain = approximate_diameter(plain, algorithm)
        context = prepare_skeleton_context(
            prepared,
            framework_sampling_probability(graph.node_count, algorithm.spec.delta),
            phase="diameter:skeleton",
        )
        skeleton_rounds = context.preparation_rounds
        result_prepared = approximate_diameter(prepared, GatherDiameter(), context=context)
        assert result_plain.estimate == result_prepared.estimate
        assert result_prepared.rounds + skeleton_rounds == result_plain.rounds
        assert plain.metrics == prepared.metrics

    def test_baseline_cold_equals_prepared_context(self):
        graph = make_graph(14, n=40)
        plain, prepared = fresh_pair(graph, seed=14)
        result_plain = apsp_broadcast_baseline(plain)
        context = prepare_skeleton_context(
            prepared,
            min(1.0, graph.node_count ** (-2.0 / 3.0)),
            phase="apsp-baseline:skeleton",
        )
        result_prepared = apsp_broadcast_baseline(prepared, context=context)
        assert (result_plain.matrix == result_prepared.matrix).all()
        assert plain.metrics == prepared.metrics


class TestSessionReuse:
    def test_warm_queries_reuse_the_skeleton(self, monkeypatch):
        """Acceptance: sssp/diameter after apsp build no second skeleton."""
        counter = CountingSkeletons(monkeypatch)
        graph = locality_graph(21)
        session = HybridSession(graph, ModelConfig(rng_seed=21))
        session.apsp()
        assert counter.calls == 1
        session.sssp(0)
        session.diameter()
        session.shortest_paths([3, 9])
        session.apsp()
        assert counter.calls == 1

    def test_warm_sssp_computes_each_clustering_once(self, monkeypatch):
        """The ruler clustering is computed once per (hop topology, µ)."""
        computed: list[int] = []
        asked: list[int] = []
        kernel = csr_kernels.ruler_clustering
        cached = WeightedGraph.ruler_clustering

        def computing(csr, separation):
            computed.append(separation)
            return kernel(csr, separation)

        def asking(graph, separation):
            asked.append(separation)
            return cached(graph, separation)

        monkeypatch.setattr(csr_kernels, "ruler_clustering", computing)
        monkeypatch.setattr(WeightedGraph, "ruler_clustering", asking)
        session = HybridSession(locality_graph(23, n=128), ModelConfig(rng_seed=23))
        for source in range(0, 120, 6):
            session.sssp(source)
        assert len(session.queries) == 20
        assert sorted(computed) == sorted(set(asked))
        assert len(asked) > 2 * len(computed)

    def test_warm_apsp_charges_no_new_preparation(self):
        graph = locality_graph(22)
        session = HybridSession(graph, ModelConfig(rng_seed=22))
        session.apsp()
        first = session.last_query
        assert first.preparation_rounds > 0
        session.apsp()
        second = session.last_query
        assert second.preparation_rounds == 0
        assert second.amortized_rounds < second.cold_rounds
        assert second.amortized_rounds == first.amortized_rounds

    def test_results_independent_of_query_order(self):
        graph = locality_graph(23)
        forward = HybridSession(graph, ModelConfig(rng_seed=23))
        apsp_a = forward.apsp()
        sssp_a = forward.sssp(4)
        diameter_a = forward.diameter()

        backward = HybridSession(graph, ModelConfig(rng_seed=23))
        diameter_b = backward.diameter()
        sssp_b = backward.sssp(4)
        apsp_b = backward.apsp()

        assert (apsp_a.matrix == apsp_b.matrix).all()
        assert sssp_a.distances == sssp_b.distances
        assert diameter_a.estimate == diameter_b.estimate
        assert diameter_a.used_local_estimate == diameter_b.used_local_estimate

    def test_session_answers_match_one_shot_functions(self):
        graph = locality_graph(24)
        n = graph.node_count
        session = HybridSession(graph, ModelConfig(rng_seed=24))
        apsp = session.apsp()
        sssp = session.sssp(7)
        diameter = session.diameter()

        truth = reference.all_pairs_distances(graph)
        for u in range(n):
            for v, d in truth[u].items():
                assert apsp.distance(u, v) == pytest.approx(d)
        for v, d in reference.single_source_distances(graph, 7).items():
            assert sssp.distance(v) == pytest.approx(d)
        assert diameter.estimate >= graph.hop_diameter() - 1e-9

    def test_route_tokens_reuses_router(self):
        graph = make_graph(25)
        session = HybridSession(graph, ModelConfig(rng_seed=25))
        rng = RandomSource(7)
        assignments = {
            s: [(rng.randrange(graph.node_count), ("p", s, i)) for i in range(4)]
            for s in range(0, graph.node_count, 5)
        }
        first = session.route_tokens(make_tokens(assignments))
        assert session.last_query.preparation_rounds > 0
        second = session.route_tokens(make_tokens(assignments))
        assert session.last_query.preparation_rounds == 0
        assert first.rounds == second.rounds

        def payloads(result):
            return {
                receiver: sorted(token.payload for token in tokens)
                for receiver, tokens in result.delivered.items()
            }

        assert payloads(first) == payloads(second)

    def test_route_tokens_rounds_independent_of_workload_order(self):
        """Router phases are key-derived, so arrival order cannot change them."""
        graph = make_graph(30)
        workload_x = make_tokens({0: [(9, ("x", i)) for i in range(3)]})
        workload_y = make_tokens({5: [(14, ("y", i)) for i in range(2)]})

        forward = HybridSession(graph, ModelConfig(rng_seed=30))
        forward.route_tokens(workload_x)
        y_after_x = forward.route_tokens(workload_y)
        backward = HybridSession(graph, ModelConfig(rng_seed=30))
        y_first = backward.route_tokens(workload_y)
        assert y_after_x.rounds == y_first.rounds
        assert forward.last_query.cold_rounds == backward.queries[0].cold_rounds

    def test_route_tokens_deliveries_match_one_shot(self):
        graph = make_graph(26)
        session = HybridSession(graph, ModelConfig(rng_seed=26))
        rng = RandomSource(9)
        tokens = make_tokens(
            {
                s: [(rng.randrange(graph.node_count), ("q", s, i)) for i in range(3)]
                for s in [0, 8, 16]
            }
        )
        warm = session.route_tokens(tokens)
        cold_network = HybridNetwork(graph, ModelConfig(rng_seed=26))
        cold = route_tokens(cold_network, tokens)
        as_sets = lambda result: {
            receiver: {token.label for token in tokens_}
            for receiver, tokens_ in result.delivered.items()
        }
        assert as_sets(warm) == as_sets(cold)

    def test_cold_equivalent_accounting_is_order_independent(self):
        """cold_rounds charges only the pieces the query kind consumes.

        A warm SSSP after an APSP must report the same cold-equivalent as an
        SSSP asked first on a fresh session -- the APSP edge publication and
        token router are not part of what a cold SSSP would have paid.
        """
        graph = locality_graph(28)
        warmed = HybridSession(graph, ModelConfig(rng_seed=28))
        warmed.apsp()
        warmed.sssp(4)
        warm_record = warmed.last_query

        fresh = HybridSession(graph, ModelConfig(rng_seed=28))
        fresh.sssp(4)
        fresh_record = fresh.last_query

        assert warm_record.amortized_rounds == fresh_record.amortized_rounds
        assert warm_record.cold_rounds == fresh_record.cold_rounds

    def test_per_query_metrics_partition_the_network_totals(self):
        graph = locality_graph(27)
        session = HybridSession(graph, ModelConfig(rng_seed=27))
        session.apsp()
        session.sssp(3)
        session.diameter()
        query_rounds = sum(record.amortized_rounds for record in session.queries)
        assert query_rounds + session.preprocessing_rounds == session.metrics.total_rounds
        query_messages = sum(record.metrics.global_messages for record in session.queries)
        assert (
            query_messages + session.preprocessing.global_messages
            == session.metrics.global_messages
        )


class TestSessionValidation:
    def test_invalid_source_rejected_before_any_charge(self):
        graph = locality_graph(29)
        session = HybridSession(graph, ModelConfig(rng_seed=29))
        session.apsp()
        for bad in (-1, graph.node_count):
            with pytest.raises(ValueError):
                session.sssp(bad)
            with pytest.raises(ValueError):
                session.shortest_paths([0, bad])
        # The rejected queries left no trace: the accounting invariant holds
        # and the extension cache carries no poisoned entries.
        session.sssp(0)
        query_rounds = sum(record.amortized_rounds for record in session.queries)
        assert query_rounds + session.preprocessing_rounds == session.metrics.total_rounds

    def test_empty_shortest_paths_rejected_before_any_charge(self):
        session = HybridSession(make_graph(3, n=60), ModelConfig(rng_seed=3))
        for bad in ([], [0, 60]):
            with pytest.raises(ValueError):
                session.shortest_paths(bad)
        assert session.preprocessing_rounds == 0
        assert session.metrics.total_rounds == 0
        assert session.queries == []

    @pytest.mark.parametrize(
        "ask",
        [
            lambda session: session.sssp_batch([3, 7], BroadcastBellmanFordSSSP()),
            lambda session: session.sssp_batch([3, 7, 3], InexactGather()),
            lambda session: session.sssp(7, InexactGather()),
        ],
        ids=["single-source-algorithm", "inexact-batch", "inexact-sssp"],
    )
    def test_unfit_algorithm_rejected_before_any_charge(self, ask):
        graph = generators.connected_workload(60, RandomSource(1), weighted=True, max_weight=5)
        session = HybridSession(graph, ModelConfig(rng_seed=1))
        session.sssp(3)
        rounds, queries = session.metrics.total_rounds, list(session.queries)
        with pytest.raises(ValueError):
            ask(session)
        assert session.metrics.total_rounds == rounds
        assert session.queries == queries
        # One distinct source is what a single-source algorithm handles.
        (result, again) = session.sssp_batch([3, 3], BroadcastBellmanFordSSSP())
        assert result.distances == again.distances == session.sssp(3).distances

    def test_single_source_algorithm_rejects_several_representatives(self):
        # A γ = 0 algorithm handles one skeleton source.  Representatives are
        # chosen locally, so the query is refused before the representatives'
        # announcement and before the CLIQUE transport is built: every
        # charged round is in the preprocessing ledger.
        graph = generators.connected_workload(200, RandomSource(1))
        session = HybridSession(graph, ModelConfig(rng_seed=1))
        with pytest.raises(ValueError, match="one source"):
            session.shortest_paths([3, 150], BroadcastBellmanFordSSSP())
        assert session.queries == []
        assert session.context()._transport is None
        assert session.metrics.total_rounds == session.preprocessing_rounds
        # The same sources through the cold framework are refused as early.
        network = HybridNetwork(graph, ModelConfig(rng_seed=1))
        with pytest.raises(ValueError, match="one source"):
            shortest_paths_via_clique(network, [3, 150], BroadcastBellmanFordSSSP())
        assert not any("representatives" in phase for phase in network.metrics.phases)

    def test_repeat_flag_validated_by_query_command(self, capsys):
        from repro.cli import main

        assert main(["query", "--n", "48", "--repeat", "0"]) == 2


class TestSessionInvalidation:
    def test_mutation_invalidates_contexts(self, monkeypatch):
        # The cold-rebuild pin: the session is invalidated after the
        # mutation, so the skeleton computation re-runs (TestDeltaRepair
        # covers the warm path).
        counter = CountingSkeletons(monkeypatch)
        graph = locality_graph(31)
        session = HybridSession(graph, ModelConfig(rng_seed=31))
        session.apsp()
        assert counter.calls == 1
        session.add_edge(0, graph.node_count // 2, 1)
        session.invalidate()
        result = session.apsp()
        assert counter.calls == 2
        assert session.last_query.preparation_rounds > 0
        truth = reference.all_pairs_distances(graph)
        for u in range(graph.node_count):
            for v, d in truth[u].items():
                assert result.distance(u, v) == pytest.approx(d)

    def test_explicit_invalidate_forces_cold_restart(self, monkeypatch):
        counter = CountingSkeletons(monkeypatch)
        graph = locality_graph(32)
        session = HybridSession(graph, ModelConfig(rng_seed=32))
        session.sssp(1)
        session.invalidate()
        session.sssp(1)
        assert counter.calls == 2

    @PROPERTY_SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=50),
        source=st.integers(min_value=0, max_value=23),
        remove=st.booleans(),
    )
    def test_warm_and_post_mutation_results_stay_exact(self, seed, source, remove):
        """Property: after any warm-up and any mutation, answers match the oracle."""
        graph = generators.connected_workload(24, RandomSource(seed), weighted=True, max_weight=5)
        session = HybridSession(graph, ModelConfig(rng_seed=seed))
        warm_before = session.sssp(source)
        for v, d in reference.single_source_distances(graph, source).items():
            assert warm_before.distance(v) == pytest.approx(d)

        rng = RandomSource(seed + 1)
        if remove:
            # Remove one non-bridge edge (keep the graph connected) if any.
            for u, v, w in list(graph.edges()):
                graph.remove_edge(u, v)
                if graph.is_connected():
                    break
                # Put the bridge back and try the next edge.
                graph.add_edge(u, v, w)
        else:
            u = rng.randrange(24)
            v = (u + 1 + rng.randrange(22)) % 24
            if not graph.has_edge(u, v) and u != v:
                graph.add_edge(u, v, 1 + rng.randrange(5))

        warm_after = session.sssp(source)
        for v, d in reference.single_source_distances(graph, source).items():
            assert warm_after.distance(v) == pytest.approx(d)
        # The cache was rebuilt against the mutated graph.
        assert session._graph_version == graph.version

    @PROPERTY_SETTINGS
    @given(seed=st.integers(min_value=0, max_value=50))
    def test_mutation_drops_every_cached_context(self, seed):
        graph = generators.connected_workload(20, RandomSource(seed), weighted=False)
        session = HybridSession(graph, ModelConfig(rng_seed=seed))
        session.apsp()
        session.diameter()
        assert session._contexts
        session.add_edge(0, 10, 1) if not graph.has_edge(0, 10) else session.remove_edge(0, 10)
        session.diameter()
        # Only the state rebuilt after the mutation survives.
        assert all(
            context.graph_version == graph.version for context in session._contexts.values()
        )
        assert session._graph_version == graph.version


class TestWarmSessionMemory:
    def test_aggregation_retains_nothing_across_queries(self):
        # Aggregation and broadcast hand their result back to the caller;
        # nothing they allocate may outlive the query that ran them, however
        # many distinct sources a warm session serves.
        graph = generators.connected_workload(64, RandomSource(1), weighted=True, max_weight=8)
        session = HybridSession(graph, ModelConfig(rng_seed=1))
        session.sssp(0)
        only_aggregation = [tracemalloc.Filter(True, "*repro/localnet/aggregation.py")]

        def retained():
            gc.collect()
            snapshot = tracemalloc.take_snapshot().filter_traces(only_aggregation)
            return sum(stat.size for stat in snapshot.statistics("filename"))

        tracemalloc.start()
        try:
            for source in range(1, 11):
                session.sssp(source)
            after_ten = retained()
            for source in range(11, 31):
                session.sssp(source)
            after_thirty = retained()
        finally:
            tracemalloc.stop()
        assert after_thirty <= after_ten


class TestScopedMetrics:
    def test_scope_sees_only_charges_within_it(self):
        metrics = RoundMetrics()
        metrics.charge_local(5, "before")
        with metrics.scoped() as scope:
            metrics.charge_local(3, "inside")
            metrics.charge_global(2, "inside")
            metrics.record_global_traffic(messages=10, bits=640, max_sent=4, max_received=6)
        metrics.charge_local(7, "after")
        assert scope.total_rounds == 5
        assert scope.local_rounds == 3 and scope.global_rounds == 2
        assert scope.global_messages == 10
        assert scope.max_sent_per_round == 4 and scope.max_received_per_round == 6
        assert set(scope.phases) == {"inside"}
        assert metrics.total_rounds == 17

    def test_scopes_nest_and_equal_scopes_unwind_correctly(self):
        metrics = RoundMetrics()
        with metrics.scoped() as outer:
            with metrics.scoped() as inner:
                metrics.charge_global(1, "x")
            # outer and inner saw identical charges (compare equal) -- the
            # inner exit must still have removed the *inner* scope only.
            metrics.charge_local(2, "y")
        assert inner.total_rounds == 1
        assert outer.total_rounds == 3
        assert metrics._scopes == []

    def test_scope_max_counters_are_per_scope(self):
        metrics = RoundMetrics()
        metrics.record_global_traffic(messages=1, bits=64, max_sent=100, max_received=100)
        with metrics.scoped() as scope:
            metrics.record_global_traffic(messages=1, bits=64, max_sent=2, max_received=3)
        assert scope.max_sent_per_round == 2
        assert scope.max_received_per_round == 3
        assert metrics.max_sent_per_round == 100

    def test_scope_observes_merge(self):
        metrics = RoundMetrics()
        other = RoundMetrics()
        other.charge_local(4, "nested")
        with metrics.scoped() as scope:
            metrics.merge(other)
        assert scope.total_rounds == 4
        assert scope.phases["nested"].local_rounds == 4


class TestNetworkDiameterCache:
    def test_hop_diameter_cache_tracks_graph_version(self):
        graph = WeightedGraph(4)
        graph.add_edge(0, 1)
        graph.add_edge(1, 2)
        graph.add_edge(2, 3)
        network = HybridNetwork(graph, ModelConfig(rng_seed=1))
        assert network.hop_diameter() == 3
        graph.add_edge(0, 3)
        assert network.hop_diameter() == 2


def repairable_edge(session):
    """The heaviest edge away from the warm skeleton (repair-friendly)."""
    skeleton_nodes = set(session.context().skeleton.nodes)
    return max(
        (
            (u, v, w)
            for u, v, w in session.graph.edges()
            if u not in skeleton_nodes and v not in skeleton_nodes
        ),
        key=lambda edge: (edge[2], edge[0], edge[1]),
    )


class TestSourceRowReuse:
    """Equation (1)'s local ``d_h`` rows of member sources come from the skeleton (η = 1)."""

    @staticmethod
    def spy(monkeypatch):
        """Per combination step: (did the kernel run, do the rows equal the kernel's)."""
        records = []
        source_rows = kssp_module._source_rows
        kernel = WeightedGraph.hop_limited_distance_matrix

        def recording(network, skeleton, sources, depth):
            calls = []

            def counted(graph, *args):
                calls.append(args)
                return kernel(graph, *args)

            monkeypatch.setattr(WeightedGraph, "hop_limited_distance_matrix", counted)
            rows = source_rows(network, skeleton, sources, depth)
            monkeypatch.setattr(WeightedGraph, "hop_limited_distance_matrix", kernel)
            expected = kernel(network.graph, sources, depth)
            records.append((bool(calls), np.array_equal(rows, expected)))
            return rows

        monkeypatch.setattr(kssp_module, "_source_rows", recording)
        return records

    def test_member_sources_read_the_skeleton(self, monkeypatch):
        records = self.spy(monkeypatch)
        session = HybridSession(make_graph(36), ModelConfig(rng_seed=36))
        session.sssp(5)  # cold
        session.sssp(9)  # warm: the base context extended by another source
        session.sssp_batch([3, 20, 41])
        u, v, weight = repairable_edge(session)
        session.update_weight(u, v, weight + 3)
        session.sssp(5)
        assert [record.action for record in session.repairs] == ["repaired"]
        assert records == [(False, True)] * 4

    def test_non_member_sources_keep_the_kernel(self, monkeypatch):
        records = self.spy(monkeypatch)
        session = HybridSession(make_graph(36), ModelConfig(rng_seed=36))
        members = session.context().skeleton.nodes
        outside = [node for node in range(48) if node not in members]
        session.shortest_paths(outside[:3])
        # A member first (sources are sorted) and non-members after it.
        session.shortest_paths([members[0], *[node for node in outside if node > members[0]][:2]])
        assert records == [(True, True)] * 2


class TestDeltaRepair:
    """Delta repair of warm contexts over evolving graphs (DESIGN.md §12)."""

    def test_weight_update_repairs_without_recomputing_skeleton(self, monkeypatch):
        counter = CountingSkeletons(monkeypatch)
        graph = make_graph(33)
        session = HybridSession(graph, ModelConfig(rng_seed=33))
        session.apsp()
        assert counter.calls == 1
        u, v, weight = repairable_edge(session)
        session.update_weight(u, v, weight + 3)
        result = session.apsp()
        assert counter.calls == 1  # repaired in place, never re-sampled
        assert [record.action for record in session.repairs] == ["repaired"]
        assert session.repairs[0].rounds > 0
        truth = reference.all_pairs_distances(graph)
        for a in range(graph.node_count):
            for b, d in truth[a].items():
                assert result.distance(a, b) == pytest.approx(d)

    def test_repaired_context_bit_identical_to_cold_rebuild(self):
        warm = HybridSession(make_graph(34), ModelConfig(rng_seed=34))
        warm.apsp()
        u, v, weight = repairable_edge(warm)
        warm.update_weight(u, v, weight + 3)
        warm_result = warm.apsp()
        assert [record.action for record in warm.repairs] == ["repaired"]

        cold_graph = make_graph(34)
        cold_graph.update_weight(u, v, weight + 3)
        cold = HybridSession(cold_graph, ModelConfig(rng_seed=34))
        cold_result = cold.apsp()

        warm_context = warm.context()
        cold_context = cold.context()
        assert warm_context.label == cold_context.label
        assert warm_context.skeleton.nodes == cold_context.skeleton.nodes
        assert (
            warm_context.skeleton.knowledge_matrix
            == cold_context.skeleton.knowledge_matrix
        ).all()
        assert np.array_equal(warm_context.skeleton.weights, cold_context.skeleton.weights)
        assert (warm_result.matrix == cold_result.matrix).all()

    def test_weight_only_delta_keeps_routers_topology_drops_them(self):
        session = HybridSession(make_graph(35), ModelConfig(rng_seed=35))
        tokens = make_tokens({0: [(1, ("p", 0))], 2: [(3, ("p", 2))]})
        session.route_tokens(tokens)
        assert session._routers
        u, v, weight = repairable_edge(session)
        session.update_weight(u, v, weight + 2)
        session.context()
        assert session._routers  # weight-only: routing plans survive
        session.remove_edge(u, v)
        session.context()
        assert not session._routers  # topology: plans are rebuilt lazily

    def test_route_tokens_after_topology_change_rebuilds_router(self):
        session = HybridSession(make_graph(37), ModelConfig(rng_seed=37))
        tokens = make_tokens({0: [(1, ("p", 0))], 2: [(3, ("p", 2))], 5: [(9, ("p", 5))]})
        session.route_tokens(tokens)
        u, v, _ = repairable_edge(session)
        session.remove_edge(u, v)
        result = session.route_tokens(tokens)
        delivered = [token.label for received in result.delivered.values() for token in received]
        assert sorted(delivered) == sorted(token.label for token in tokens)
        assert session.last_query.preparation_rounds > 0

    def test_invalidate_after_mutation_always_rebuilds(self, monkeypatch):
        counter = CountingSkeletons(monkeypatch)
        session = HybridSession(make_graph(36), ModelConfig(rng_seed=36))
        session.apsp()
        u, v, weight = repairable_edge(session)
        session.update_weight(u, v, weight + 3)
        session.invalidate()
        session.apsp()
        assert counter.calls == 2
        assert session.repairs == []

    def test_extended_raises_on_stale_context(self):
        from repro.hybrid import StaleContextError

        session = HybridSession(make_graph(38), ModelConfig(rng_seed=38))
        context = session.context()
        session.graph.add_edge(*next(
            (u, v)
            for u in range(session.graph.node_count)
            for v in range(u + 1, session.graph.node_count)
            if not session.graph.has_edge(u, v)
        ), 2)
        with pytest.raises(StaleContextError):
            context.extended([0])

    def test_context_cache_hit_rechecks_staleness(self):
        # Mutate the graph directly (outside the session's own mutators):
        # the next context() call must still notice and resolve staleness.
        session = HybridSession(make_graph(39), ModelConfig(rng_seed=39))
        session.apsp()
        u, v, weight = repairable_edge(session)
        session.graph.update_weight(u, v, weight + 3)
        context = session.context()
        assert context.is_current()
        assert session._graph_version == session.graph.version

    def test_out_of_band_stale_entry_rebuilds_instead_of_spinning(self):
        session = HybridSession(make_graph(40), ModelConfig(rng_seed=40))
        stale = session.context()
        object.__setattr__(stale, "graph_version", stale.graph_version - 1)
        refreshed = session.context()
        assert refreshed is not stale
        assert refreshed.is_current()

    def test_repair_rounds_keep_session_accounting_invariant(self):
        session = HybridSession(make_graph(41), ModelConfig(rng_seed=41))
        session.apsp()
        u, v, weight = repairable_edge(session)
        session.update_weight(u, v, weight + 3)
        session.apsp()
        amortized = sum(record.amortized_rounds for record in session.queries)
        assert (
            amortized + session.preprocessing_rounds
            == session.network.metrics.total_rounds
        )

    @PROPERTY_SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=40),
        kind=st.sampled_from(["update", "add", "remove"]),
        pick=st.integers(min_value=0, max_value=10_000),
    )
    def test_any_single_mutation_repaired_or_rebuilt_identical_to_cold(
        self, seed, kind, pick
    ):
        """Property: after one random mutation, the warm session's answers and
        context state are bit-identical to a cold session on the mutated
        graph -- whether the delta was repaired or refused (DESIGN.md §12)."""
        graph = generators.connected_workload(
            24, RandomSource(seed), weighted=True, max_weight=6
        )
        warm = HybridSession(graph, ModelConfig(rng_seed=seed))
        warm.apsp()

        edges = sorted((u, v, w) for u, v, w in graph.edges())
        if kind == "update":
            u, v, weight = edges[pick % len(edges)]
            mutation = ("update", u, v, 1 + (weight + 1 + pick) % 6)
        elif kind == "add":
            missing = sorted(
                (u, v)
                for u in range(24)
                for v in range(u + 1, 24)
                if not graph.has_edge(u, v)
            )
            u, v = missing[pick % len(missing)]
            mutation = ("add", u, v, 1 + pick % 6)
        else:
            for u, v, w in edges[pick % len(edges):] + edges[: pick % len(edges)]:
                graph.remove_edge(u, v)
                if graph.is_connected():
                    break
                graph.add_edge(u, v, w)
            else:
                return  # every edge is a bridge; nothing to remove
            mutation = None

        if mutation is not None:
            action, u, v, weight = mutation
            if action == "update":
                warm.update_weight(u, v, weight)
            else:
                warm.add_edge(u, v, weight)
        warm_result = warm.apsp()

        cold_graph = WeightedGraph(24)
        for u, v, w in graph.edges():
            cold_graph.add_edge(u, v, w)
        cold = HybridSession(cold_graph, ModelConfig(rng_seed=seed))
        cold_result = cold.apsp()

        assert (warm_result.matrix == cold_result.matrix).all()
        warm_context, cold_context = warm.context(), cold.context()
        assert warm_context.skeleton.nodes == cold_context.skeleton.nodes
        assert (
            warm_context.skeleton.knowledge_matrix
            == cold_context.skeleton.knowledge_matrix
        ).all()
        assert np.array_equal(warm_context.skeleton.weights, cold_context.skeleton.weights)


@pytest.mark.slow
class TestE17Smoke:
    def test_repair_beats_rebuild_and_stays_identical(self):
        from repro.experiments import run_experiment

        table = run_experiment("E17", scale="small")
        index = {header: position for position, header in enumerate(table.headers)}
        rows = {row[index["family"]]: row for row in table.rows}
        assert set(rows) == {"random", "locality"}
        # Answers never depend on the repair-vs-rebuild decision...
        assert all(row[index["identical"]] for row in table.rows)
        # ...and on the repair-friendly family the warm session both repairs
        # and strictly beats the cold-rebuild baseline on amortized rounds.
        random_row = rows["random"]
        assert random_row[index["repaired"]] > 0
        assert (
            random_row[index["repair tail rounds"]]
            < random_row[index["rebuild tail rounds"]]
        )


# The session reports one fixed implementation per layer (DESIGN.md §9).
class TestPlaneSelection:
    def test_session_reports_acceleration(self):
        session = HybridSession(generators.cycle_graph(8), ModelConfig())
        assert session.acceleration() == {
            "graph_backend": "csr",
            "message_plane": "vectorized",
            "kernels": {
                "distance_matrix": "scipy",
                "bfs_level_matrix": "scipy",
                "hop_limited_matrix": (
                    "scipy dijkstra, or bitset when arc weights are <= 64, the first source's "
                    "scipy row is hop-certified with depth <= 64, and the call has at least "
                    "half that depth in sources"
                ),
                "hop_diameter": (
                    "scipy BFS from node 0, then a bitset all-sources sweep when twice its "
                    "eccentricity and every degree are <= 64 and the sweep's scratch fits the "
                    "chunk budget, else scipy eccentricity bounding"
                ),
            },
        }
        assert session.acceleration()["kernels"]["hop_diameter"] == (
            csr_kernels.HOP_DIAMETER_SELECTION
        )
