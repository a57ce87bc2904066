"""Unit tests for the HYBRID model engine (config, metrics, network)."""

import dataclasses
import math

import pytest
from scalar_plane import deliver_exchange, deliver_round

from repro.graphs import generators
from repro.hybrid import (
    CapacityExceededError,
    FaultModel,
    HybridNetwork,
    ModelConfig,
    RoundMetrics,
)
from repro.hybrid.config import MESSAGE_BITS
from repro.util.rand import RandomSource


class TestModelConfig:
    def test_send_cap_grows_logarithmically(self):
        config = ModelConfig(global_send_factor=1.0)
        assert config.send_cap(2) == 1
        assert config.send_cap(1024) == 10
        assert config.send_cap(1 << 20) == 20

    def test_send_cap_factor(self):
        assert ModelConfig(global_send_factor=2.0).send_cap(1024) == 20

    def test_receive_cap_at_least_send_cap_by_default(self):
        config = ModelConfig()
        assert config.receive_cap(256) >= config.send_cap(256)

    def test_log_rounds(self):
        assert ModelConfig().log_rounds(256) == 8

    def test_send_cap_minimum_one(self):
        assert ModelConfig(global_send_factor=0.01).send_cap(4) == 1

    def test_fields_are_the_model_constants(self):
        # The model's constants only: the send cap always raises, the receive
        # cap is always recorded, local charges are always capped at D and
        # the log factor is always log2 n -- a switch for any of those is
        # rejected, not ignored.
        assert [field.name for field in dataclasses.fields(ModelConfig)] == [
            "global_send_factor",
            "global_receive_factor",
            "skeleton_xi",
            "faults",
            "rng_seed",
        ]

    @pytest.mark.parametrize(
        "removed",
        [
            {"strict_send": False},
            {"strict_receive": True},
            {"cap_local_at_diameter": False},
            {"helper_log_factor": 2.0},
            {"message_bits": 32},
        ],
    )
    def test_removed_keyword_rejected(self, removed):
        with pytest.raises(TypeError):
            ModelConfig(**removed)

    @pytest.mark.parametrize("name", ["global_send_factor", "global_receive_factor", "skeleton_xi"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_non_positive_or_non_finite_factor_rejected(self, name, value):
        # skeleton_xi=0 used to build h = 0 hops and answer APSP wrongly with
        # no error; nan failed deep inside skeleton_hop_length.
        with pytest.raises(ValueError, match=name):
            ModelConfig(**{name: value})
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(ModelConfig(), **{name: value})
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ModelConfig(), name, value)

    def test_faults_must_be_a_fault_model(self):
        with pytest.raises(TypeError, match="faults"):
            ModelConfig(faults="lossy")
        assert ModelConfig(faults=FaultModel(drop_rate=0.1)).faults.drop_rate == 0.1


class TestRoundMetrics:
    def test_charges_accumulate(self):
        metrics = RoundMetrics()
        metrics.charge_local(5, "a")
        metrics.charge_global(3, "b")
        assert metrics.total_rounds == 8
        assert metrics.phases["a"].local_rounds == 5
        assert metrics.phases["b"].global_rounds == 3

    def test_negative_charge_rejected(self):
        metrics = RoundMetrics()
        with pytest.raises(ValueError):
            metrics.charge_local(-1)
        with pytest.raises(ValueError):
            metrics.charge_global(-1)

    def test_traffic_records_maxima(self):
        metrics = RoundMetrics()
        metrics.record_global_traffic(10, 640, max_sent=4, max_received=7, receive_cap=5)
        metrics.record_global_traffic(2, 128, max_sent=1, max_received=2, receive_cap=5)
        assert metrics.global_messages == 12
        assert metrics.max_received_per_round == 7
        assert metrics.receive_cap_violations == 1

    def test_merge(self):
        a, b = RoundMetrics(), RoundMetrics()
        a.charge_local(2, "x")
        b.charge_global(3, "x")
        b.record_cut_bits("cut", 100)
        a.merge(b)
        assert a.total_rounds == 5
        assert a.phases["x"].total_rounds == 5
        assert a.cut_bits["cut"] == 100

    def test_phase_summary_sorted(self):
        metrics = RoundMetrics()
        metrics.charge_local(1, "small")
        metrics.charge_local(10, "big")
        summary = metrics.phase_summary()
        assert summary[0].startswith("big")

    def test_as_dict_keys(self):
        data = RoundMetrics().as_dict()
        assert {"total_rounds", "global_messages", "max_received_per_round"} <= set(data)


@pytest.fixture
def network():
    graph = generators.connected_workload(24, RandomSource(3), weighted=False)
    return HybridNetwork(graph, ModelConfig(rng_seed=1))


class TestHybridNetwork:
    def test_local_charge_counts(self, network):
        network.charge_local_rounds(3, "test")
        assert network.metrics.local_rounds == 3

    def test_local_charge_capped_at_diameter(self, network):
        diameter = network.hop_diameter()
        network.charge_local_rounds(10_000, "test")
        assert network.metrics.local_rounds == diameter

    def test_local_charge_clamped_to_n_on_disconnected_graph(self):
        # Two cuts split the 8-cycle, so its hop diameter is infinite; the
        # min(D, .) cap must clamp to n, not inf.
        graph = generators.cycle_graph(8)
        graph.remove_edge(0, 1)
        graph.remove_edge(4, 5)
        network = HybridNetwork(graph, ModelConfig(rng_seed=1))
        assert network.graph.hop_diameter() == float("inf")
        assert network.hop_diameter() == 8
        network.charge_local_rounds(100, "flood")
        assert network.metrics.local_rounds == 8
        network.charge_local_rounds(3, "flood")
        assert network.metrics.local_rounds == 8 + 3

    def test_global_round_delivers(self, network):
        inboxes = deliver_round(network, {0: [(5, "hello")], 1: [(5, "world")]})
        assert sorted(payload for _, payload in inboxes[5]) == ["hello", "world"]
        assert network.metrics.global_rounds == 1
        assert network.metrics.global_messages == 2

    def test_global_round_send_cap_enforced(self, network):
        too_many = [(i % network.n, i) for i in range(network.send_cap + 1)]
        with pytest.raises(CapacityExceededError):
            deliver_round(network, {0: too_many})

    def test_invalid_target_rejected(self, network):
        with pytest.raises(ValueError):
            deliver_round(network, {0: [(network.n + 5, "x")]})

    def test_run_global_exchange_respects_send_cap(self, network):
        messages = [(1, i) for i in range(35)]
        inboxes, rounds = deliver_exchange(network, {0: messages})
        assert len(inboxes[1]) == 35
        assert rounds >= (35 + network.receive_cap - 1) // network.receive_cap
        assert network.metrics.max_sent_per_round <= network.send_cap

    def test_run_global_exchange_receiver_limited(self, network):
        # Many senders target node 0; per-round receive load must stay capped.
        outboxes = {sender: [(0, sender)] * 3 for sender in range(1, 20)}
        inboxes, rounds = deliver_exchange(network, outboxes)
        assert len(inboxes[0]) == 19 * 3
        assert network.metrics.max_received_per_round <= network.receive_cap

    def test_cut_watcher_counts_crossing_bits(self, network):
        network.add_cut_watcher("half", set(range(network.n // 2)))
        deliver_round(network, {0: [(network.n - 1, "x")], 1: [(2, "y")]})
        assert network.metrics.cut_bits["half"] == MESSAGE_BITS

    def test_cut_watcher_membership_order_invariant(self, network):
        # Regression pin for the RL002 cleanup: the watcher's numpy mask is
        # built by iterating the member set in sorted order, so the recorded
        # cut bits cannot depend on how the caller composed the node set.
        half = network.n // 2
        network.add_cut_watcher("fwd", set(range(half)))
        network.add_cut_watcher("rev", set(reversed(range(half))))
        deliver_round(network, {0: [(network.n - 1, "x")], 1: [(2, "y")]})
        assert network.metrics.cut_bits["fwd"] == network.metrics.cut_bits["rev"]
        assert network.metrics.cut_bits["fwd"] == MESSAGE_BITS

    def test_received_totals_accumulate(self, network):
        deliver_round(network, {0: [(3, "a")]})
        deliver_round(network, {1: [(3, "b")]})
        assert network.received_totals[3] == 2
        assert network.max_total_received() == 2

    def test_reset_metrics(self, network):
        network.charge_local_rounds(3)
        network.reset_metrics()
        assert network.metrics.total_rounds == 0

    def test_fork_rng_reproducible(self, network):
        a = network.fork_rng("phase").randint(0, 10**6)
        b = network.fork_rng("phase").randint(0, 10**6)
        assert a == b


class TestSenderFairness:
    """Round-robin regression: high-ID senders must not starve behind a
    saturated receiver (run_global_exchange rotates the sender order)."""

    def test_high_id_sender_not_starved(self):
        graph = generators.path_graph(8)
        network = HybridNetwork(graph, ModelConfig(rng_seed=0))
        # Senders 0..5 saturate receiver 7 with 30 messages each; sender 6
        # has a single message for the same receiver.  With a fixed
        # sorted(queues) schedule the low-ID senders would consume the whole
        # receive budget every round and sender 6 would deliver only after
        # ~180 earlier messages; rotation must serve it within a few rounds.
        outboxes = {s: [(7, ("bulk", s, i)) for i in range(30)] for s in range(6)}
        outboxes[6] = [(7, ("urgent", 6, 0))]
        inboxes, rounds = deliver_exchange(network, outboxes)
        delivered = inboxes[7]
        assert len(delivered) == 181
        urgent_position = next(
            index for index, (sender, _) in enumerate(delivered) if sender == 6
        )
        # Budget is receive_cap (12 for n=8) messages per round; the rotated
        # schedule reaches sender 6 within the first len(senders) rounds.
        assert urgent_position < 5 * network.receive_cap
        assert rounds >= 181 // network.receive_cap

    def test_rotation_preserves_total_traffic(self):
        graph = generators.path_graph(6)
        network = HybridNetwork(graph, ModelConfig(rng_seed=0))
        outboxes = {s: [(5, (s, i)) for i in range(7)] for s in range(4)}
        inboxes, _ = deliver_exchange(network, outboxes)
        assert sorted(payload for _, payload in inboxes[5]) == sorted(
            (s, i) for s in range(4) for i in range(7)
        )
        assert network.metrics.global_messages == 28
