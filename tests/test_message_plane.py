"""The batched NCC message plane: MessageBatch + identity with the scalar oracle.

The engine executes global traffic with a whole-array scheduler; the
per-message scheduler of ``tests/scalar_plane.py`` is its oracle.  The
property tests here drive both with the same messages (hypothesis-generated
exchanges and the protocol workloads behind experiments E1/E8/E12) and assert
*identical* RoundMetrics: rounds, messages, bits, per-round maxima, per-phase
breakdowns and cut crossings.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

numpy = pytest.importorskip("numpy")

from scalar_plane import PLANES, ScalarPlaneNetwork

from repro.core.clique_simulation import HybridCliqueTransport
from repro.core.skeleton import compute_skeleton
from repro.core.token_routing import make_tokens, route_tokens
from repro.graphs import generators
from repro.hybrid import CapacityExceededError, HybridNetwork, MessageBatch, ModelConfig
from repro.hybrid.network import _admit_scan
from repro.localnet import aggregate_max, aggregate_sum, broadcast_value, disseminate_tokens
from repro.util.rand import RandomSource

common_settings = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

message_lists = st.lists(
    st.tuples(st.integers(min_value=0, max_value=19), st.integers(min_value=0, max_value=19)),
    min_size=0,
    max_size=120,
)


def metrics_snapshot(network):
    """Everything RoundMetrics records, including per-phase and cut counters."""
    snapshot = network.metrics.as_dict()
    snapshot["phases"] = {
        name: (breakdown.local_rounds, breakdown.global_rounds)
        for name, breakdown in network.metrics.phases.items()
    }
    snapshot["cut_bits"] = dict(network.metrics.cut_bits)
    snapshot["received_totals"] = [int(total) for total in network.received_totals]
    return snapshot


def build_batch(pairs):
    return MessageBatch(
        [sender for sender, _ in pairs],
        [target for _, target in pairs],
        [("payload", index) for index in range(len(pairs))],
    )


class TestMessageBatch:
    def test_outbox_round_trip(self):
        outboxes = {3: [(1, "a"), (2, "b")], 0: [(1, "c")]}
        batch = MessageBatch.from_outboxes(outboxes)
        assert len(batch) == 3
        assert batch.to_outboxes() == outboxes

    def test_inbox_round_trip(self):
        inboxes = {1: [(3, "a"), (0, "c")], 2: [(3, "b")]}
        batch = MessageBatch.from_inboxes(inboxes)
        assert batch.to_inboxes() == inboxes

    def test_groupby_target_preserves_order(self):
        batch = MessageBatch([0, 1, 2, 3], [5, 4, 5, 5], ["a", "b", "c", "d"])
        groups = {
            target: (list(senders), payloads)
            for target, senders, payloads in batch.groupby_target()
        }
        assert groups == {4: ([1], ["b"]), 5: ([0, 2, 3], ["a", "c", "d"])}

    def test_concat(self):
        first = MessageBatch([0], [1], ["a"])
        second = MessageBatch([2, 3], [1, 0], ["b", "c"])
        merged = MessageBatch.concat([first, MessageBatch.empty(), second])
        assert merged.senders.tolist() == [0, 2, 3]
        assert merged.payloads == ["a", "b", "c"]

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError):
            MessageBatch([0, 1], [2], ["a", "b"])


class TestBatchedGlobalRound:
    def make(self, plane="vectorized", **config):
        graph = generators.cycle_graph(20)
        return PLANES[plane](graph, ModelConfig(rng_seed=1, **config))

    def test_unknown_plane_rejected(self):
        # There is one message plane; a plane option is an error, never
        # silently ignored.
        with pytest.raises(TypeError):
            ModelConfig(global_plane="scalar")

    def test_delivers_batch(self):
        network = self.make()
        delivered = network.global_round(MessageBatch([0, 1], [5, 5], ["hello", "world"]))
        assert isinstance(delivered, MessageBatch)
        assert delivered.payloads == ["hello", "world"]
        assert network.metrics.global_rounds == 1
        assert network.metrics.global_messages == 2
        assert network.metrics.max_received_per_round == 2

    def test_scalar_plane_accepts_batches(self):
        network = self.make(plane="scalar")
        assert isinstance(network, ScalarPlaneNetwork)
        delivered = network.global_round(MessageBatch([0], [3], ["x"]))
        assert isinstance(delivered, MessageBatch)
        assert delivered.to_inboxes() == {3: [(0, "x")]}

    def test_send_cap_enforced(self):
        network = self.make()
        count = network.send_cap + 1
        batch = MessageBatch([0] * count, list(range(count)), list(range(count)))
        with pytest.raises(CapacityExceededError):
            network.global_round(batch)

    def test_strict_receive_enforced(self):
        network = self.make(strict_receive=True, global_receive_factor=0.1)
        batch = MessageBatch(list(range(1, 16)), [0] * 15, list(range(15)))
        with pytest.raises(CapacityExceededError):
            network.global_round(batch)

    def test_invalid_target_rejected(self):
        network = self.make()
        with pytest.raises(ValueError):
            network.global_round(MessageBatch([0], [network.n + 5], ["x"]))
        with pytest.raises(ValueError):
            network.global_round(MessageBatch([-1], [0], ["x"]))

    @pytest.mark.parametrize("plane", ["scalar", "vectorized"])
    def test_empty_batch_charges_no_round_on_either_plane(self, plane):
        # Regression (alongside the n=1 aggregation cases): a round with no
        # traffic does not use the global mode at all, so an empty
        # MessageBatch must charge zero global rounds on both planes.
        network = self.make(plane=plane)
        delivered = network.global_round(MessageBatch.empty())
        assert isinstance(delivered, MessageBatch) and len(delivered) == 0
        assert network.metrics.global_rounds == 0
        assert network.metrics.global_messages == 0
        assert network.metrics.phases == {}
        # The exchange path was already round-free for empty batches.
        _, rounds = network.run_global_exchange(MessageBatch.empty())
        assert rounds == 0 and network.metrics.global_rounds == 0

    def test_batched_exchange_respects_caps(self):
        network = self.make()
        batch = MessageBatch([0] * 35, [1] * 35, list(range(35)))
        inboxes, rounds = network.run_global_exchange(batch)
        assert len(inboxes) == 35
        assert rounds >= math.ceil(35 / network.receive_cap)
        assert network.metrics.max_sent_per_round <= network.send_cap
        assert network.metrics.max_received_per_round <= network.receive_cap


class TestAdmitScan:
    """Direct unit tests for ``_admit_scan`` (previously only covered through
    ``run_global_exchange``): the Jacobi prefix-sum admission must equal the
    scalar scheduler's sequential scan for every input."""

    @staticmethod
    def prepare(pairs, offset_runs=0):
        """Canonicalize (sender, target) pairs the way the batched exchange
        does: stable-sorted by sender, with the rotated scan-rank array."""
        senders = numpy.array([sender for sender, _ in pairs], dtype=numpy.int64)
        targets = numpy.array([target for _, target in pairs], dtype=numpy.int64)
        order = numpy.argsort(senders, kind="stable")
        senders, targets = senders[order], targets[order]
        length = senders.size
        run_bounds = numpy.empty(length, dtype=bool)
        run_bounds[0] = True
        numpy.not_equal(senders[1:], senders[:-1], out=run_bounds[1:])
        run_starts = numpy.flatnonzero(run_bounds)
        split = int(run_starts[offset_runs % run_starts.size])
        scan_positions = (numpy.arange(length) - split) % length
        return senders, targets, scan_positions

    @staticmethod
    def sequential_reference(senders, targets, scan_positions, send_cap, receive_cap):
        """The scalar scheduler's per-message scan, spelled out sequentially."""
        admitted = numpy.zeros(senders.size, dtype=bool)
        sent = {}
        received = {}
        for index in numpy.argsort(scan_positions):
            sender, target = int(senders[index]), int(targets[index])
            if sent.get(sender, 0) < send_cap and received.get(target, 0) < receive_cap:
                admitted[index] = True
                sent[sender] = sent.get(sender, 0) + 1
                received[target] = received.get(target, 0) + 1
        return admitted

    def check(self, pairs, send_cap, receive_cap, offset_runs=0):
        senders, targets, scan_positions = self.prepare(pairs, offset_runs)
        got = _admit_scan(senders, targets, scan_positions, send_cap, receive_cap)
        expected = self.sequential_reference(
            senders, targets, scan_positions, send_cap, receive_cap
        )
        assert got.tolist() == expected.tolist()
        return got

    def test_send_cap_boundary(self):
        # Exactly at the cap every message goes; one past the cap waits.
        at_cap = [(0, target) for target in range(4)]
        assert self.check(at_cap, send_cap=4, receive_cap=10).all()
        over = self.check(at_cap + [(0, 4)], send_cap=4, receive_cap=10)
        assert int(over.sum()) == 4 and not over[-1]

    def test_receive_cap_boundary(self):
        pairs = [(sender, 9) for sender in range(5)]
        assert self.check(pairs, send_cap=3, receive_cap=5).all()
        clipped = self.check(pairs, send_cap=3, receive_cap=4)
        assert int(clipped.sum()) == 4

    def test_zero_caps_admit_nothing(self):
        pairs = [(0, 1), (1, 2), (2, 0)]
        assert not self.check(pairs, send_cap=0, receive_cap=5).any()
        assert not self.check(pairs, send_cap=5, receive_cap=0).any()

    def test_all_to_one_saturation_follows_scan_order(self):
        # 12 senders, one message each, all to node 0, receive_cap 5: the five
        # senders earliest in the rotated scan order win, everyone else waits.
        pairs = [(sender, 0) for sender in range(12)]
        for offset in (0, 3, 11):
            senders, targets, scan_positions = self.prepare(pairs, offset_runs=offset)
            admitted = _admit_scan(senders, targets, scan_positions, 2, 5)
            assert int(admitted.sum()) == 5
            winners = scan_positions[admitted]
            assert sorted(winners.tolist()) == [0, 1, 2, 3, 4]

    @common_settings
    @given(
        message_lists.filter(bool),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=19),
    )
    def test_matches_sequential_scan(self, pairs, send_cap, receive_cap, offset_runs):
        self.check(pairs, send_cap, receive_cap, offset_runs)


class TestSaturatedReceiverProgress:
    """The exchange makes progress every round: a contested receiver drains at
    exactly ``receive_cap`` messages per round, with no idle (stall) rounds --
    the scheduler asserts the invariant instead of charging them."""

    @pytest.mark.parametrize("plane", ["scalar", "vectorized"])
    def test_exact_drain_rate(self, plane):
        n = 20
        network = PLANES[plane](generators.cycle_graph(n), ModelConfig(rng_seed=0))
        per_sender = 3
        pairs = [(sender, 0) for sender in range(1, n) for _ in range(per_sender)]
        total = len(pairs)
        # 19 senders with 3 messages each can fill the receive budget every
        # round, so the drain takes exactly ceil(total / receive_cap) rounds.
        assert (n - 2) * per_sender >= network.receive_cap
        inboxes, rounds = network.run_global_exchange(build_batch(pairs))
        assert len(inboxes) == total
        assert rounds == math.ceil(total / network.receive_cap)
        assert network.metrics.global_rounds == rounds


class TestPlaneIdentity:
    """The scalar oracle and the engine record bit-identical RoundMetrics."""

    @common_settings
    @given(message_lists, st.booleans())
    def test_exchange_identical_metrics(self, pairs, receiver_limited):
        graph = generators.cycle_graph(20)
        snapshots = {}
        deliveries = {}
        for plane in ("scalar", "vectorized"):
            network = PLANES[plane](graph, ModelConfig(rng_seed=1))
            network.add_cut_watcher("half", range(10))
            inbox, rounds = network.run_global_exchange(
                build_batch(pairs), receiver_limited=receiver_limited
            )
            snapshots[plane] = metrics_snapshot(network)
            deliveries[plane] = {
                target: (list(senders), payloads)
                for target, senders, payloads in inbox.groupby_target()
            }
        assert snapshots["scalar"] == snapshots["vectorized"]
        assert deliveries["scalar"] == deliveries["vectorized"]

    @common_settings
    @given(message_lists)
    def test_dict_form_and_batched_form_identical_metrics(self, pairs):
        """Dict-of-tuples outboxes converted by ``MessageBatch.from_outboxes``
        and the column-built batch of the same messages produce the same
        metrics and inboxes."""
        graph = generators.cycle_graph(20)
        outboxes = {}
        for index, (sender, target) in enumerate(pairs):
            outboxes.setdefault(sender, []).append((target, ("payload", index)))
        dict_network = HybridNetwork(graph, ModelConfig(rng_seed=1))
        dict_inbox, dict_rounds = dict_network.run_global_exchange(
            MessageBatch.from_outboxes(outboxes)
        )
        batch_network = HybridNetwork(graph, ModelConfig(rng_seed=1))
        batch_inbox, batch_rounds = batch_network.run_global_exchange(build_batch(pairs))
        assert dict_rounds == batch_rounds
        assert metrics_snapshot(dict_network) == metrics_snapshot(batch_network)
        assert batch_inbox.to_inboxes() == dict_inbox.to_inboxes()

    @common_settings
    @given(message_lists)
    def test_single_round_identical_metrics(self, pairs):
        graph = generators.cycle_graph(20)
        counts = {}
        for sender, _ in pairs:
            counts[sender] = counts.get(sender, 0) + 1
        snapshots = {}
        for plane in ("scalar", "vectorized"):
            network = PLANES[plane](graph, ModelConfig(rng_seed=1, strict_send=False))
            network.add_cut_watcher("half", range(10))
            network.global_round(build_batch(pairs))
            snapshots[plane] = metrics_snapshot(network)
        assert snapshots["scalar"] == snapshots["vectorized"]


def run_on_both_planes(build_graph, protocol):
    """Run a protocol on the oracle and the engine; return both metric snapshots."""
    snapshots = {}
    outputs = {}
    for plane in ("scalar", "vectorized"):
        network = PLANES[plane](build_graph(), ModelConfig(rng_seed=5))
        outputs[plane] = protocol(network)
        snapshots[plane] = metrics_snapshot(network)
    return snapshots, outputs


class TestProtocolPlaneIdentity:
    """End-to-end workloads (E1 routing, E8 clique, E12 dissemination /
    aggregation) leave identical metrics on the oracle and the engine."""

    def test_aggregation_workload(self):
        values = {node: float((node * 13) % 11) for node in range(0, 33, 2)}

        def protocol(network):
            aggregate_max(network, values)
            aggregate_sum(network, values)
            return broadcast_value(network, 42.0, source=3)

        snapshots, outputs = run_on_both_planes(lambda: generators.cycle_graph(33), protocol)
        assert snapshots["scalar"] == snapshots["vectorized"]
        assert outputs["scalar"] == outputs["vectorized"]

    def test_dissemination_workload(self):
        tokens = {node: [("t", node, i) for i in range(3)] for node in range(0, 40, 4)}

        def protocol(network):
            return disseminate_tokens(network, tokens).rounds

        snapshots, outputs = run_on_both_planes(lambda: generators.cycle_graph(40), protocol)
        assert snapshots["scalar"] == snapshots["vectorized"]
        assert outputs["scalar"] == outputs["vectorized"]

    def test_token_routing_workload(self):
        rng = RandomSource(9)
        tokens = make_tokens(
            {
                sender: [(rng.randrange(40), ("p", sender, i)) for i in range(4)]
                for sender in rng.sample(list(range(40)), 8)
            }
        )

        def protocol(network):
            result = route_tokens(network, tokens)
            return result.rounds, sorted(
                (token.label for items in result.delivered.values() for token in items)
            )

        snapshots, outputs = run_on_both_planes(
            lambda: generators.connected_workload(40, RandomSource(4), weighted=False), protocol
        )
        assert snapshots["scalar"] == snapshots["vectorized"]
        assert outputs["scalar"] == outputs["vectorized"]

    def test_clique_simulation_workload(self):
        def protocol(network):
            skeleton = compute_skeleton(
                network, 0.2, ensure_connected=True, keep_local_knowledge=False
            )
            transport = HybridCliqueTransport(network, skeleton)
            transport.exchange({0: [(1, "x")]})
            return skeleton.size

        snapshots, outputs = run_on_both_planes(
            lambda: generators.connected_workload(30, RandomSource(8), weighted=False), protocol
        )
        assert snapshots["scalar"] == snapshots["vectorized"]
        assert outputs["scalar"] == outputs["vectorized"]
