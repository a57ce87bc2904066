"""The fault-injection subsystem: seeded drops, crashes, bursts, outages,
acknowledged retransmission, and the differential fuzzer.

Three contracts are pinned here:

* **Fault-free bit-identity.**  With no :class:`FaultModel` (or a disabled
  one) every entry point charges exactly the phases, forks exactly the RNG
  labels and records exactly the RoundMetrics of the ideal engine -- the
  loss-tolerance machinery must be invisible when faults are off.
* **Oracle identity under faults.**  The engine and the per-message scalar
  oracle drop the *same* messages (the per-message fate is a seeded hash of
  round / sender / target / occurrence, not of iteration order), so metrics
  and deliveries stay bit-identical even on lossy networks.
* **Differential correctness.**  Across hundreds of random graph × fault
  schedule combinations, the retransmitting APSP / SSSP / diameter pipelines
  either raise :class:`FaultToleranceExceededError` (the schedule beat the
  retry budget) or return answers that match the sequential Dijkstra oracle
  -- never a silently wrong result.
"""

import pytest

numpy = pytest.importorskip("numpy")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scalar_plane import PLANES

from repro import (
    FaultModel,
    FaultToleranceExceededError,
    HybridNetwork,
    ModelConfig,
    generators,
    reference,
)
from repro.clique import GatherDiameter
from repro.core.apsp import apsp_exact
from repro.core.diameter import approximate_diameter
from repro.core.sssp import sssp_exact
from repro.hybrid import MessageBatch
from repro.hybrid.faults import (
    MESSAGE_LANE,
    FaultState,
    fault_hash,
    fault_hash_array,
)
from repro.session import HybridSession
from repro.util.rand import RandomSource

fuzz_settings = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

message_lists = st.lists(
    st.tuples(st.integers(min_value=0, max_value=19), st.integers(min_value=0, max_value=19)),
    min_size=0,
    max_size=100,
)


def build_batch(pairs):
    return MessageBatch(
        [sender for sender, _ in pairs],
        [target for _, target in pairs],
        [("payload", index) for index in range(len(pairs))],
    )


def metrics_snapshot(network):
    snapshot = network.metrics.as_dict()
    snapshot["phases"] = {
        name: (breakdown.local_rounds, breakdown.global_rounds)
        for name, breakdown in network.metrics.phases.items()
    }
    snapshot["received_totals"] = [int(total) for total in network.received_totals]
    return snapshot


class TestFaultModel:
    def test_defaults_inject_nothing(self):
        model = FaultModel()
        assert not model.enabled and not model.affects_global

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultModel(drop_rate=1.5)
        with pytest.raises(ValueError):
            FaultModel(burst_rate=-0.1)
        with pytest.raises(ValueError):
            FaultModel(max_attempts=0)
        with pytest.raises(ValueError):
            FaultModel(burst_length=-1)

    def test_schedules_normalize_from_mappings_and_pairs(self):
        from_mapping = FaultModel(
            crash_schedule={3: 5}, omission_schedule={2: [7, 1]}, edge_outages=[(9, 4)]
        )
        from_pairs = FaultModel(
            crash_schedule=[(3, 5)], omission_schedule=[(2, (1, 7))], edge_outages=[(4, 9)]
        )
        assert from_mapping == from_pairs
        assert from_mapping.enabled and from_mapping.affects_global
        # Duplicate keys in the pair forms merge instead of overwriting: the
        # earliest crash round wins and omission sets union per round.
        merged = FaultModel(
            crash_schedule=[(4, 9), (4, 2)], omission_schedule=[(3, [1]), (3, [2])]
        )
        assert merged.crash_schedule == ((4, 2),)
        assert merged.omission_schedule == ((3, (1, 2)),)

    def test_outage_only_model_does_not_touch_global_plane(self):
        model = FaultModel(edge_outages=[(0, 1)])
        assert model.enabled and not model.affects_global

    def test_hash_scalar_and_array_agree(self):
        rng = RandomSource(1)
        senders = numpy.array([rng.randrange(50) for _ in range(200)], dtype=numpy.int64)
        targets = numpy.array([rng.randrange(50) for _ in range(200)], dtype=numpy.int64)
        occurrences = numpy.array([rng.randrange(4) for _ in range(200)], dtype=numpy.int64)
        prefix = fault_hash(77, MESSAGE_LANE, 13)
        hashed = fault_hash_array(prefix, senders, targets, occurrences)
        for i in range(200):
            assert int(hashed[i]) == fault_hash(
                77, MESSAGE_LANE, 13, int(senders[i]), int(targets[i]), int(occurrences[i])
            )

    def test_keep_mask_matches_scalar_decisions(self):
        state = FaultState(FaultModel(drop_rate=0.3, seed=5))
        rng = RandomSource(2)
        senders = numpy.array([rng.randrange(12) for _ in range(150)], dtype=numpy.int64)
        targets = numpy.array([rng.randrange(12) for _ in range(150)], dtype=numpy.int64)
        for round_index in range(4):
            threshold = state.drop_threshold(round_index)
            faulty = state.faulty_nodes(round_index)
            occurrences = {}
            expected = []
            for sender, target in zip(senders.tolist(), targets.tolist(), strict=True):
                occurrence = occurrences.get((sender, target), 0)
                occurrences[(sender, target)] = occurrence + 1
                expected.append(
                    not state.drops(round_index, sender, target, occurrence, threshold, faulty)
                )
            mask = state.keep_mask(senders, targets, round_index, 12)
            got = [True] * 150 if mask is None else mask.tolist()
            assert got == expected

    def test_burst_windows_cover_burst_length_rounds(self):
        model = FaultModel(burst_rate=0.2, burst_length=3, burst_drop_rate=1.0, seed=11)
        state = FaultState(model)
        single = FaultState(FaultModel(burst_rate=0.2, burst_length=1, seed=11))
        bursty = [r for r in range(200) if state.in_burst(r)]
        starts = [r for r in range(200) if single.in_burst(r)]
        assert starts, "seed 11 should start at least one burst in 200 rounds"
        # Every burst round is within burst_length of some start, and every
        # start opens a full window.
        for r in bursty:
            assert any(s <= r < s + 3 for s in starts)
        for s in starts:
            for r in range(s, s + 3):
                assert state.in_burst(r)

    def test_crash_and_omission_round_semantics(self):
        state = FaultState(FaultModel(crash_schedule={4: 2}, omission_schedule={1: [9]}))
        assert state.faulty_nodes(0) == frozenset()
        assert state.faulty_nodes(1) == frozenset({9})
        assert state.faulty_nodes(2) == frozenset({4})
        assert state.faulty_nodes(3) == frozenset({4})


class TestEngineEnforcement:
    def make(self, plane="vectorized", **faults):
        graph = generators.cycle_graph(20)
        return PLANES[plane](graph, ModelConfig(rng_seed=1, faults=FaultModel(**faults)))

    @pytest.mark.parametrize("plane", ["scalar", "vectorized"])
    def test_drops_are_counted_but_not_delivered(self, plane):
        network = self.make(plane=plane, drop_rate=0.5, seed=3)
        pairs = [(sender, (sender + 1) % 20) for sender in range(20) for _ in range(3)]
        delivered = network.global_round(build_batch(pairs), "lossy")
        dropped = network.metrics.global_dropped
        assert 0 < dropped < len(pairs)
        assert len(delivered) == len(pairs) - dropped
        # Sends count every attempted message; receives only the delivered.
        assert network.metrics.global_messages == len(pairs)
        assert sum(int(total) for total in network.received_totals) == len(delivered)

    def test_crashed_node_sends_and_receives_nothing(self):
        network = self.make(crash_schedule={5: 0})
        pairs = [(5, 1), (1, 5), (2, 3)]
        delivered = network.global_round(build_batch(pairs), "crash")
        assert delivered.to_inboxes() == {3: [(2, ("payload", 2))]}
        assert network.metrics.global_dropped == 2

    def test_omission_silences_exactly_one_round(self):
        network = self.make(omission_schedule={0: [1]})
        first = network.global_round(build_batch([(1, 2)]), "omit")
        assert len(first) == 0
        second = network.global_round(build_batch([(1, 2)]), "omit")
        assert len(second) == 1

    def test_burst_drops_everything_while_active(self):
        # A guaranteed burst from round 0 (rate 1.0) of length 2: the first
        # two global rounds lose all traffic, the third is clean again.
        network = self.make(burst_rate=1.0, burst_length=2, burst_drop_rate=1.0, drop_rate=0.0)
        state = network._fault_state
        assert state.in_burst(0) and state.in_burst(1)
        lost = network.global_round(build_batch([(0, 1), (2, 3)]), "burst")
        assert len(lost) == 0 and network.metrics.global_dropped == 2

    @fuzz_settings
    @given(message_lists, st.integers(min_value=0, max_value=2**31))
    def test_planes_identical_under_faults(self, pairs, fault_seed):
        """The scalar oracle and the engine drop the same messages: identical
        metrics (dropped/retried included), identical deliveries."""
        snapshots = {}
        deliveries = {}
        model = FaultModel(
            drop_rate=0.35, seed=fault_seed, omission_schedule={1: [0, 7]}, crash_schedule={19: 2}
        )
        for plane in ("scalar", "vectorized"):
            network = PLANES[plane](
                generators.cycle_graph(20), ModelConfig(rng_seed=1, faults=model)
            )
            inbox, _rounds = network.run_global_exchange(build_batch(pairs), "faulty")
            snapshots[plane] = metrics_snapshot(network)
            deliveries[plane] = {
                target: (list(senders), payloads)
                for target, senders, payloads in inbox.groupby_target()
            }
        assert snapshots["scalar"] == snapshots["vectorized"]
        assert deliveries["scalar"] == deliveries["vectorized"]

    def test_edge_outages_shrink_the_local_mode_only(self):
        graph = generators.cycle_graph(8)
        network = HybridNetwork(
            graph, ModelConfig(rng_seed=1, faults=FaultModel(edge_outages=[(0, 1)]))
        )
        assert network.graph.has_edge(0, 1)  # the graph itself is untouched
        assert not network.local_graph.has_edge(0, 1)
        # The 1-hop ball of node 0 lost neighbour 1; the cycle's severed ring
        # now has hop diameter 7 instead of 4.
        assert 1 not in network.local_ball(0, 1)
        assert network.hop_diameter() == 7
        assert 1 not in network.local_hop_limited_distances(0, 1)
        # The global plane still reaches node 1 by ID.
        delivered = network.global_round(build_batch([(0, 1)]), "global")
        assert len(delivered) == 1

    def test_sssp_respects_edge_outages_end_to_end(self):
        # The whole LOCAL mode (flooding, exploration, helper/ruling sets)
        # computes on the survivor graph, so SSSP under an outage must equal
        # Dijkstra on the graph *minus* the downed edge -- and differ from
        # the intact graph when the edge was load-bearing.
        from repro import WeightedGraph

        graph = generators.random_geometric_like_graph(
            30, neighbourhood=2, rng=RandomSource(3), extra_edge_probability=0.1
        )
        full_truth = reference.single_source_distances(graph, 0)
        outage = survivor = None
        for u, v, _w in sorted(graph.edges()):
            candidate = WeightedGraph(graph.node_count)
            for a, b, w in graph.edges():
                if {a, b} != {u, v}:
                    candidate.add_edge(a, b, w)
            if candidate.is_connected():
                candidate_truth = reference.single_source_distances(candidate, 0)
                if any(
                    abs(candidate_truth[node] - full_truth[node]) > 1e-9
                    for node in candidate_truth
                ):
                    outage, survivor = (u, v), candidate
                    break
        assert outage is not None, "graph should have a load-bearing, removable edge"
        network = HybridNetwork(
            graph,
            ModelConfig(rng_seed=2, faults=FaultModel(edge_outages=[outage])),
        )
        result = sssp_exact(network, source=0)
        truth = reference.single_source_distances(survivor, 0)
        assert all(abs(result.distance(v) - d) <= 1e-9 for v, d in truth.items())
        assert any(abs(result.distance(node) - full_truth[node]) > 1e-9 for node in full_truth)

    def test_outage_graph_tracks_graph_mutations(self):
        graph = generators.cycle_graph(8)
        network = HybridNetwork(
            graph, ModelConfig(rng_seed=1, faults=FaultModel(edge_outages=[(0, 1)]))
        )
        assert network.hop_diameter() == 7
        graph.add_edge(0, 4, 1)  # a chord the outage view must pick up
        assert network.local_graph.has_edge(0, 4)
        assert not network.local_graph.has_edge(0, 1)

    def test_reset_metrics_replays_the_fault_schedule(self):
        network = self.make(drop_rate=0.4, seed=9)
        pairs = [(sender, (sender + 3) % 20) for sender in range(20)]
        first = len(network.global_round(build_batch(pairs), "round"))
        network.reset_metrics()
        assert network._fault_state.round_index == 0
        second = len(network.global_round(build_batch(pairs), "round"))
        assert first == second


class TestReliableExchange:
    def make(self, **faults):
        graph = generators.cycle_graph(24)
        config = ModelConfig(
            rng_seed=2, faults=FaultModel(**faults) if faults else None
        )
        return HybridNetwork(graph, config)

    def test_fault_free_is_plain_exchange(self):
        pairs = [(sender, (sender + 5) % 24) for sender in range(24) for _ in range(2)]
        reliable = self.make()
        r_inbox, r_rounds = reliable.run_reliable_exchange(build_batch(pairs), "phase")
        plain = self.make()
        p_inbox, p_rounds = plain.run_global_exchange(build_batch(pairs), "phase")
        assert r_rounds == p_rounds
        assert metrics_snapshot(reliable) == metrics_snapshot(plain)
        # No ack/retry phases exist on the ideal path.
        assert set(reliable.metrics.phases) == {"phase"}
        assert r_inbox.to_inboxes() == p_inbox.to_inboxes()

    def test_lossy_exchange_delivers_everything_exactly_once(self):
        network = self.make(drop_rate=0.4, seed=6, max_attempts=20)
        pairs = [(sender, (sender + 5) % 24) for sender in range(24) for _ in range(2)]
        inbox, rounds = network.run_reliable_exchange(build_batch(pairs), "phase")
        assert sorted(payload for _, payload in inbox.to_inboxes().get(5, [])) == sorted(
            ("payload", index) for index, (s, t) in enumerate(pairs) if t == 5
        )
        assert len(inbox) == len(pairs)
        assert network.metrics.global_dropped > 0
        assert network.metrics.global_retried > 0
        assert rounds > 0
        # Retry and ack phases are charged under the caller's phase name.
        assert {"phase", "phase:ack", "phase:retry"} <= set(network.metrics.phases)

    def test_budget_exhaustion_raises(self):
        network = self.make(drop_rate=1.0, max_attempts=3)
        with pytest.raises(FaultToleranceExceededError):
            network.run_reliable_exchange(build_batch([(0, 1)]), "doomed")
        # All three attempts were spent (two of them retransmissions).
        assert network.metrics.global_retried == 2

    def test_permanently_crashed_receiver_beats_the_budget(self):
        network = self.make(crash_schedule={3: 0}, max_attempts=4)
        with pytest.raises(FaultToleranceExceededError):
            network.run_reliable_exchange(build_batch([(0, 3)]), "dead-target")

    def test_aggregate_sum_is_exact_under_drops(self):
        # A dropped partial sum is unrecoverable (sums are not idempotent),
        # so the tree convergecast rides the reliable exchange: the returned
        # total must be exact on a lossy network, never silently short.
        from repro.localnet import aggregate_sum

        network = self.make(drop_rate=0.4, seed=0, max_attempts=16)
        total = aggregate_sum(network, {node: 1.0 for node in range(24)})
        assert total == 24.0
        assert network.metrics.global_dropped > 0

    def test_empty_batch_is_free(self):
        network = self.make(drop_rate=0.5)
        inbox, rounds = network.run_reliable_exchange(MessageBatch.empty(), "empty")
        assert len(inbox) == 0 and rounds == 0
        assert network.metrics.global_rounds == 0


def _record_fork_labels(monkeypatch):
    """Record every RandomSource.fork label issued while the patch is live."""
    labels = []
    original = RandomSource.fork

    def forked(self, label):
        labels.append(label)
        return original(self, label)

    monkeypatch.setattr(RandomSource, "fork", forked)
    return labels


class TestFaultFreeBitIdentity:
    """With faults disabled, every entry point is bit-identical to a network
    that never heard of fault injection: same phases, same RNG fork labels,
    same RoundMetrics (the acceptance pin of ISSUE 5)."""

    @pytest.mark.parametrize(
        "faults",
        [None, FaultModel(), FaultModel(drop_rate=0.0, burst_rate=0.0, burst_length=4)],
        ids=["absent", "default", "zero-rates"],
    )
    def test_session_workload_is_bit_identical(self, faults, monkeypatch):
        graph_seed = 17
        baseline_graph = generators.connected_workload(
            36, RandomSource(graph_seed), weighted=False
        )
        labels_baseline = _record_fork_labels(monkeypatch)
        baseline = HybridSession(baseline_graph, ModelConfig(rng_seed=4))
        baseline.apsp()
        baseline.sssp(0)
        baseline.diameter()
        baseline_snapshot = metrics_snapshot(baseline.network)
        baseline_labels = list(labels_baseline)
        labels_baseline.clear()

        graph = generators.connected_workload(
            36, RandomSource(graph_seed), weighted=False
        )
        session = HybridSession(graph, ModelConfig(rng_seed=4), fault_model=faults)
        apsp = session.apsp()
        sssp = session.sssp(0)
        diameter = session.diameter()
        assert metrics_snapshot(session.network) == baseline_snapshot
        assert labels_baseline == baseline_labels
        truth = reference.single_source_distances(graph, 0)
        assert all(abs(sssp.distance(v) - d) <= 1e-9 for v, d in truth.items())
        assert all(abs(apsp.distance(0, v) - d) <= 1e-9 for v, d in truth.items())
        assert diameter.estimate >= graph.hop_diameter() - 1e-9


class TestDifferentialFuzzer:
    """Random graphs x random seeded fault schedules, checked against the
    sequential Dijkstra oracle.  Whenever the retry budget suffices (the run
    completes), the retransmitting pipelines must agree with the reference
    exactly; runs the schedule beats must raise, never return wrong data."""

    SCHEDULES = 200

    @staticmethod
    def build_case(case: int):
        rng = RandomSource(1000 + case)
        n = 20 + 4 * (case % 4)
        if case % 3 == 0:
            graph = generators.connected_workload(
                n, RandomSource(case), weighted=True, max_weight=8
            )
        elif case % 3 == 1:
            graph = generators.connected_workload(n, RandomSource(case), weighted=False)
        else:
            graph = generators.random_geometric_like_graph(
                n, neighbourhood=2, rng=RandomSource(case), extra_edge_probability=0.05
            )
        faults = dict(
            drop_rate=0.05 + 0.3 * rng.random(),
            seed=case,
            max_attempts=12,
        )
        if case % 4 == 0:
            faults.update(
                burst_rate=0.02, burst_length=1 + case % 3, burst_drop_rate=0.9
            )
        if case % 5 == 0:
            faults["omission_schedule"] = {rng.randrange(20): [rng.randrange(n)]}
        return graph, FaultModel(**faults)

    def test_zero_mismatches_over_200_schedules(self):
        completed = 0
        beaten = 0
        mismatches = []
        total_dropped = total_retried = 0
        for case in range(self.SCHEDULES):
            graph, model = self.build_case(case)
            n = graph.node_count
            network = HybridNetwork(graph, ModelConfig(rng_seed=case, faults=model))
            kind = ("sssp", "apsp", "diameter")[case % 3]
            try:
                if kind == "sssp":
                    result = sssp_exact(network, source=case % n)
                    truth = reference.single_source_distances(graph, case % n)
                    ok = all(
                        abs(result.distance(v) - d) <= 1e-9 for v, d in truth.items()
                    )
                elif kind == "apsp":
                    result = apsp_exact(network)
                    truth = reference.single_source_distances(graph, 0)
                    ok = all(
                        abs(result.distance(0, v) - d) <= 1e-9 for v, d in truth.items()
                    )
                else:
                    result = approximate_diameter(network, GatherDiameter())
                    true_diameter = graph.hop_diameter()
                    ok = (
                        true_diameter - 1e-9
                        <= result.estimate
                        <= result.guaranteed_alpha() * true_diameter + 1e-9
                    )
            except FaultToleranceExceededError:
                beaten += 1
                total_dropped += network.metrics.global_dropped
                continue
            finally:
                total_retried += network.metrics.global_retried
            completed += 1
            total_dropped += network.metrics.global_dropped
            if not ok:
                mismatches.append((case, kind))
        assert mismatches == []
        # The budget should suffice for the vast majority of schedules -- a
        # fuzzer that mostly raises would not be testing the results at all.
        assert completed >= self.SCHEDULES * 3 // 4, (completed, beaten)
        # And the schedules must actually have injected faults and forced
        # retransmissions (otherwise the fuzz space is too tame to mean
        # anything): a drop-rate plumbing regression would trip these.
        assert total_dropped > self.SCHEDULES
        assert total_retried > self.SCHEDULES

    def test_fuzzer_exercises_retransmission(self):
        graph, model = self.build_case(1)
        network = HybridNetwork(graph, ModelConfig(rng_seed=1, faults=model))
        sssp_exact(network, source=0)
        assert network.metrics.global_dropped > 0
        assert network.metrics.global_retried > 0
