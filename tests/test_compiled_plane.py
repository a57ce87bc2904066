"""Message-plane and fault-fate identity against the scalar oracle.

The engine's array message plane (DESIGN.md §4) must make the same admission
decisions, drop the same messages under faults, and record the same
RoundMetrics as the per-message scheduler of ``tests/scalar_plane.py`` on
every seed.  Also pinned here: the per-round fault-context memo, byte-budget
source chunking, and the session's fixed implementation report.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scalar_plane import PLANES, ScalarPlaneNetwork

from repro.core.sssp import sssp_exact
from repro.graphs import csr as csr_kernels
from repro.graphs import generators, reference
from repro.graphs.csr import chunked_sources
from repro.graphs.graph import WeightedGraph
from repro.hybrid import HybridNetwork, ModelConfig
from repro.hybrid.faults import FaultModel, FaultState, fault_hash, fault_hash_from_prefix
from repro.session import HybridSession
from repro.util.rand import RandomSource

common_settings = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestPlaneSelection:
    def test_session_reports_acceleration(self):
        session = HybridSession(generators.cycle_graph(8), ModelConfig())
        assert session.acceleration() == {
            "graph_backend": "csr",
            "message_plane": "vectorized",
            "kernels": {
                "distance_matrix": "scipy",
                "bfs_level_matrix": "scipy",
                "hop_limited_matrix": "scipy",
                "hop_diameter": "scipy",
            },
        }


@st.composite
def fault_exchange(draw):
    """A random message batch plus a lossy fault model."""
    n = draw(st.integers(min_value=3, max_value=16))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=0,
            max_size=60,
        )
    )
    model = FaultModel(
        drop_rate=draw(st.sampled_from([0.0, 0.2, 0.5])),
        burst_rate=draw(st.sampled_from([0.0, 0.3])),
        burst_length=2,
        burst_drop_rate=0.9,
        crash_schedule={0: 3} if draw(st.booleans()) else {},
        seed=draw(st.integers(min_value=0, max_value=99)),
        max_attempts=64,
    )
    seed = draw(st.integers(min_value=0, max_value=99))
    return n, pairs, model, seed


class TestMessagePlaneIdentity:
    """Engine vs scalar oracle: identical deliveries and metrics."""

    @staticmethod
    def _run(network_class, n, pairs, model, seed):
        graph = generators.cycle_graph(n)
        network = network_class(graph, ModelConfig(rng_seed=seed, faults=model))
        senders = np.array([sender for sender, _ in pairs], dtype=np.int64)
        targets = np.array([target for _, target in pairs], dtype=np.int64)
        network.add_cut_watcher("low", range(n // 2))
        delivered, rounds = network.run_global_exchange(senders, targets, phase="test")
        received = [int(total) for total in network.received_totals]
        return delivered.tolist(), rounds, network.metrics, received

    @common_settings
    @given(fault_exchange())
    def test_exchange_identical_across_planes(self, case):
        n, pairs, model, seed = case
        reference = self._run(ScalarPlaneNetwork, n, pairs, model, seed)
        assert self._run(HybridNetwork, n, pairs, model, seed) == reference

    @pytest.mark.parametrize("plane", ["scalar", "vectorized"])
    def test_sssp_identical_across_planes(self, plane):
        graph = generators.connected_workload(48, RandomSource(5), weighted=True, max_weight=6)
        reference_net = HybridNetwork(graph.copy(), ModelConfig(rng_seed=5))
        reference = sssp_exact(reference_net, source=0)
        network = PLANES[plane](graph.copy(), ModelConfig(rng_seed=5))
        result = sssp_exact(network, source=0)
        assert result.distances == reference.distances
        assert result.rounds == reference.rounds
        assert network.metrics.as_dict() == reference_net.metrics.as_dict()
        # Same fork labels => same protocol randomness on every plane.
        assert network.fork_rng("check").randrange(1 << 30) == reference_net.fork_rng(
            "check"
        ).randrange(1 << 30)


class TestFaultRoundContext:
    def test_prefix_folding_matches_full_hash(self):
        for seed in (0, 1, 77):
            prefix = fault_hash(seed, 1, 5)
            for lanes in ((0, 0, 0), (3, 4, 5), (1 << 40, 2, 9)):
                assert fault_hash_from_prefix(prefix, *lanes) == fault_hash(seed, 1, 5, *lanes)

    def test_round_context_matches_per_round_queries(self):
        model = FaultModel(
            drop_rate=0.3,
            burst_rate=0.4,
            burst_length=2,
            burst_drop_rate=0.95,
            crash_schedule={2: 1},
            omission_schedule={3: [4]},
            seed=11,
        )
        state = FaultState(model)
        for round_index in (0, 1, 2, 3, 4, 2, 0):  # revisits hit the memo
            threshold, faulty, prefix = state.round_context(round_index)
            assert threshold == state.drop_threshold(round_index)
            assert faulty == state.faulty_nodes(round_index)
            assert prefix == fault_hash(model.seed, 1, round_index)

    def test_context_is_memoized(self):
        state = FaultState(FaultModel(drop_rate=0.5, seed=3))
        first = state.round_context(7)
        assert state.round_context(7) is first

    def test_drops_uses_memoized_prefix(self):
        model = FaultModel(drop_rate=0.5, seed=21)
        state = FaultState(model)
        threshold, faulty, _ = state.round_context(4)
        for sender, target, occurrence in ((0, 1, 0), (5, 5, 2), (9, 0, 1)):
            expected = (
                fault_hash(model.seed, 1, 4, sender, target, occurrence) < threshold
            )
            assert state.drops(4, sender, target, occurrence, threshold, faulty) == expected


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
