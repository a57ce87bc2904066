"""The batched NCC message plane: identity with the scalar oracle.

The engine executes global traffic -- sender/target columns in, delivered
positions out -- with a whole-array scheduler; the per-message scheduler of
``tests/scalar_plane.py`` is its oracle.  The property tests here drive both
with the same messages (hypothesis-generated exchanges and the protocol
workloads behind experiments E1/E8/E12) and assert *identical* delivered
positions and RoundMetrics: rounds, messages, bits, per-round maxima,
per-phase breakdowns, cut crossings and receive totals.  ``MessageBatch``,
the CLIQUE round format, is covered here too.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

numpy = pytest.importorskip("numpy")

from scalar_plane import (
    PLANES,
    ScalarPlaneNetwork,
    from_inboxes,
    from_outboxes,
    to_inboxes,
    to_outboxes,
)

from repro.core.clique_simulation import HybridCliqueTransport
from repro.core.skeleton import compute_skeleton
from repro.core.sssp import sssp_exact
from repro.core.token_routing import make_tokens, route_tokens
from repro.graphs import generators
from repro.hybrid import (
    CapacityExceededError,
    ExchangeSchedule,
    FaultModel,
    HybridNetwork,
    MessageBatch,
    ModelConfig,
)
from repro.hybrid.network import _admit_scan
from repro.localnet import aggregate_max, aggregate_sum, broadcast_value, disseminate_tokens
from repro.util.rand import RandomSource

common_settings = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
identity_settings = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
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


def build_columns(pairs):
    """The sender and target columns of ``(sender, target)`` pairs."""
    senders = np.array([sender for sender, _ in pairs], dtype=np.int64)
    targets = np.array([target for _, target in pairs], dtype=np.int64)
    return senders, targets


class TestMessageBatch:
    def test_outbox_round_trip(self):
        outboxes = {3: [(1, "a"), (2, "b")], 0: [(1, "c")]}
        batch = from_outboxes(outboxes)
        assert len(batch) == 3
        assert to_outboxes(batch) == outboxes

    def test_inbox_round_trip(self):
        inboxes = {1: [(3, "a"), (0, "c")], 2: [(3, "b")]}
        batch = from_inboxes(inboxes)
        assert to_inboxes(batch) == inboxes

    def test_array_payload_column_kept(self):
        distances = np.arange(4, dtype=np.float64)
        batch = MessageBatch([0, 1, 2, 3], [5, 4, 5, 5], distances)
        assert batch.payloads is distances
        taken = batch.take(np.array([True, False, True, True]))
        assert taken.payloads.dtype == np.float64
        assert taken.payloads.tolist() == [0, 2, 3]
        assert taken.senders.tolist() == [0, 2, 3]

    def test_take_orders_list_payloads(self):
        # A list payload argument becomes an array column.
        batch = MessageBatch([0, 1, 2], [3, 4, 5], ["a", "b", "c"])
        assert isinstance(batch.payloads, np.ndarray)
        taken = batch.take(np.array([2, 0]))
        assert taken.payloads.tolist() == ["c", "a"]
        assert taken.targets.tolist() == [5, 3]

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
        delivered = network.global_round(*build_columns([(0, 5), (1, 5)]))
        assert delivered.dtype == np.int64
        assert delivered.tolist() == [0, 1]
        assert network.metrics.global_rounds == 1
        assert network.metrics.global_messages == 2
        assert network.metrics.max_received_per_round == 2

    def test_scalar_plane_accepts_batches(self):
        network = self.make(plane="scalar")
        assert isinstance(network, ScalarPlaneNetwork)
        batch = from_outboxes({0: [(3, "x")]})
        delivered = network.global_round(batch.senders, batch.targets)
        assert to_inboxes(batch.take(delivered)) == {3: [(0, "x")]}

    def test_send_cap_enforced(self):
        network = self.make()
        count = network.send_cap + 1
        with pytest.raises(CapacityExceededError):
            network.global_round(*build_columns([(0, target) for target in range(count)]))

    def test_invalid_target_rejected(self):
        network = self.make()
        with pytest.raises(ValueError):
            network.global_round(*build_columns([(0, network.n + 5)]))
        with pytest.raises(ValueError):
            network.global_round(*build_columns([(-1, 0)]))

    @pytest.mark.parametrize("plane", ["scalar", "vectorized"])
    def test_empty_batch_charges_no_round_on_either_plane(self, plane):
        # Regression (alongside the n=1 aggregation cases): a round with no
        # traffic does not use the global mode at all, so empty columns must
        # charge zero global rounds on both planes.
        network = self.make(plane=plane)
        delivered = network.global_round(*build_columns([]))
        assert delivered.dtype == np.int64 and delivered.size == 0
        assert network.metrics.global_rounds == 0
        assert network.metrics.global_messages == 0
        assert network.metrics.phases == {}
        # The exchange path was already round-free for empty batches.
        delivered, rounds = network.run_global_exchange(*build_columns([]))
        assert delivered.size == 0
        assert rounds == 0 and network.metrics.global_rounds == 0

    def test_batched_exchange_respects_caps(self):
        network = self.make()
        delivered, rounds = network.run_global_exchange(*build_columns([(0, 1)] * 35))
        assert sorted(delivered.tolist()) == list(range(35))
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
        delivered, rounds = network.run_global_exchange(*build_columns(pairs))
        assert sorted(delivered.tolist()) == list(range(total))
        assert rounds == math.ceil(total / network.receive_cap)
        assert network.metrics.global_rounds == rounds


class TestPlaneIdentity:
    """The scalar oracle and the engine record bit-identical RoundMetrics."""

    @common_settings
    @given(message_lists)
    def test_exchange_identical_metrics(self, pairs):
        graph = generators.cycle_graph(20)
        snapshots = {}
        deliveries = {}
        for plane in ("scalar", "vectorized"):
            network = PLANES[plane](graph, ModelConfig(rng_seed=1))
            network.add_cut_watcher("half", range(10))
            delivered, rounds = network.run_global_exchange(*build_columns(pairs))
            snapshots[plane] = metrics_snapshot(network)
            deliveries[plane] = delivered.tolist(), rounds
        assert snapshots["scalar"] == snapshots["vectorized"]
        assert deliveries["scalar"] == deliveries["vectorized"]

    @common_settings
    @given(message_lists)
    def test_dict_form_and_batched_form_identical_metrics(self, pairs):
        """Dict-of-tuples outboxes converted by ``from_outboxes`` and the
        columns of the same messages produce the same metrics and deliveries
        (each sender's queue keeps its order, so a message's payload follows
        it)."""
        graph = generators.cycle_graph(20)
        outboxes = {}
        for index, (sender, target) in enumerate(pairs):
            outboxes.setdefault(sender, []).append((target, index))
        batch = from_outboxes(outboxes)
        dict_network = HybridNetwork(graph, ModelConfig(rng_seed=1))
        dict_delivered, dict_rounds = dict_network.run_global_exchange(
            batch.senders, batch.targets
        )
        column_network = HybridNetwork(graph, ModelConfig(rng_seed=1))
        delivered, rounds = column_network.run_global_exchange(*build_columns(pairs))
        assert dict_rounds == rounds
        assert metrics_snapshot(dict_network) == metrics_snapshot(column_network)
        assert batch.payloads[dict_delivered].tolist() == delivered.tolist()

    @common_settings
    @given(message_lists)
    def test_single_round_identical_metrics(self, pairs):
        # Up to 120 messages from 20 senders at send cap 5: many drawn rounds
        # are over the cap, and both planes must raise the same error and
        # leave the same (uncharged) metrics.
        graph = generators.cycle_graph(20)
        snapshots = {}
        for plane in ("scalar", "vectorized"):
            network = PLANES[plane](graph, ModelConfig(rng_seed=1))
            network.add_cut_watcher("half", range(10))
            try:
                outcome = network.global_round(*build_columns(pairs)).tolist()
            except CapacityExceededError as error:
                outcome = str(error)
            snapshots[plane] = metrics_snapshot(network), outcome
        assert snapshots["scalar"] == snapshots["vectorized"]


def capped_config(n, send_cap, receive_cap, **config):
    """A ModelConfig whose send and receive caps on ``n`` nodes are exactly the given ones."""
    scale = math.log2(n)
    return ModelConfig(
        global_send_factor=(send_cap - 0.5) / scale,
        global_receive_factor=(receive_cap - 0.5) / scale,
        **config,
    )


def first_contested_round(pairs, send_cap, receive_cap):
    """The first round in which a target is planned more than ``receive_cap``
    messages, planning each sender's ``k``-th message for round ``k // send_cap``."""
    ranks: dict[int, int] = {}
    loads: dict[tuple[int, int], int] = {}
    for sender, target in pairs:
        rank = ranks.get(sender, 0)
        ranks[sender] = rank + 1
        key = (rank // send_cap, target)
        loads[key] = loads.get(key, 0) + 1
    return min((rnd for (rnd, _), load in loads.items() if load > receive_cap), default=None)


@st.composite
def contested_exchanges(draw, n=20):
    """Multi-round traffic whose first contested round is 0, mid-exchange or absent.

    Before the contested round every sender sends to its own home target
    (no target is over its cap); in the contested round every sender's window
    goes to one hot target; afterwards targets are skewed between the two.
    Senders hold different message counts, so the set of active senders --
    and with it the rotation -- shrinks as queues run dry.
    """
    send_cap = draw(st.integers(min_value=1, max_value=3))
    senders = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=6, unique=True))
    receive_cap = draw(st.integers(min_value=send_cap, max_value=len(senders) * send_cap - 1))
    rounds = draw(st.integers(min_value=2, max_value=5))
    contested = draw(st.sampled_from([0, None, draw(st.integers(1, rounds - 1))]))
    homes = draw(st.permutations(range(n)))
    hot = draw(st.integers(0, n - 1))
    full_windows = 0 if contested is None else contested + 1
    queues = {}
    for sender, home in zip(senders, homes, strict=False):
        count = draw(st.integers(max(1, full_windows * send_cap), rounds * send_cap))
        queue = []
        for rank in range(count):
            window = rank // send_cap
            if contested is None or window < contested:
                queue.append(home)
            elif window == contested:
                queue.append(hot)
            else:
                queue.append(draw(st.sampled_from([hot, home])))
        queues[sender] = queue
    # Interleave the senders' queues; each keeps its own order.
    turns = draw(st.permutations([s for s, queue in queues.items() for _ in queue]))
    pairs = [(sender, queues[sender].pop(0)) for sender in turns]
    return pairs, send_cap, receive_cap, contested


class TestClosedFormSchedule:
    """Rounds before the first contested round are scheduled in closed form
    (rank // send_cap, each round's block rotated by the round number); the
    scan takes over from the first contested round.  The oracle scans every
    round, so identical deliveries *in order* pin both the boundary and the
    rotation."""

    FAULTS = {
        "ideal": None,
        "faulty": dict(drop_rate=0.3, burst_rate=0.3, burst_length=2, burst_drop_rate=0.9, seed=5),
    }

    @staticmethod
    def run(plane, pairs, send_cap, receive_cap, faults):
        config = capped_config(
            20, send_cap, receive_cap, rng_seed=1, faults=faults and FaultModel(**faults)
        )
        network = PLANES[plane](generators.cycle_graph(20), config)
        assert (network.send_cap, network.receive_cap) == (send_cap, receive_cap)
        network.add_cut_watcher("half", range(10))
        delivered, rounds = network.run_global_exchange(*build_columns(pairs), "exchange")
        return delivered.tolist(), rounds, metrics_snapshot(network)

    @pytest.mark.parametrize("faults", sorted(FAULTS))
    @common_settings
    @given(contested_exchanges())
    def test_matches_the_scan_at_every_contested_round(self, faults, case):
        pairs, send_cap, receive_cap, contested = case
        assert first_contested_round(pairs, send_cap, receive_cap) == contested
        oracle = self.run("scalar", pairs, send_cap, receive_cap, self.FAULTS[faults])
        engine = self.run("vectorized", pairs, send_cap, receive_cap, self.FAULTS[faults])
        assert engine == oracle

    @pytest.mark.parametrize("faults", sorted(FAULTS))
    def test_two_open_rounds_then_one_hot_target(self, faults):
        # Senders 4, 9, 15 queue 3 windows of send_cap = 2: windows 0 and 1 go
        # to each sender's own target, window 2 entirely to node 0, whose
        # receive cap 2 admits one sender's window per round.
        send_cap, receive_cap = 2, 2
        homes = {4: 5, 9: 10, 15: 16}
        pairs = [
            (sender, home if window < 2 else 0)
            for window in range(3)
            for sender, home in homes.items()
            for _ in range(send_cap)
        ]
        assert first_contested_round(pairs, send_cap, receive_cap) == 2
        oracle = self.run("scalar", pairs, send_cap, receive_cap, self.FAULTS[faults])
        engine = self.run("vectorized", pairs, send_cap, receive_cap, self.FAULTS[faults])
        assert engine == oracle
        if faults == "ideal":
            delivered, rounds, _ = engine
            senders = [pairs[position][0] for position in delivered]
            targets = [pairs[position][1] for position in delivered]
            # Round t is rotated to start at active sender t mod |active|:
            # rounds 0, 1 are closed form (4 9 15, then 9 15 4); round 2 is
            # scanned from sender 15, round 3 from 9 (active 4, 9), round 4
            # from 4.
            order = [4, 9, 15, 9, 15, 4, 15, 9, 4]
            assert senders == [sender for sender in order for _ in range(send_cap)]
            assert targets[: 6 * send_cap] == [homes[s] for s in order[:6] for _ in range(2)]
            assert rounds == 5

    @pytest.mark.parametrize("bad_target", [-1, 20])
    def test_out_of_range_target_rejected_in_its_round(self, bad_target):
        # Sender 0's third message (round 2 at send_cap 1) has a bad target:
        # both planes account rounds 0 and 1, then reject it.
        pairs = [(0, 1), (1, 2), (0, 3), (0, bad_target)]
        for plane in PLANES:
            network = PLANES[plane](generators.cycle_graph(20), capped_config(20, 1, 2))
            with pytest.raises(ValueError):
                network.run_global_exchange(*build_columns(pairs))
            assert network.metrics.global_rounds == 2, plane


@st.composite
def accounting_cases(draw):
    """An exchange, contested or not, with its caps, plus a one-round batch
    of single messages from distinct senders that overflows one target."""
    if draw(st.booleans()):
        pairs, send_cap, receive_cap, _ = draw(contested_exchanges())
    else:
        pairs = draw(message_lists)
        send_cap = draw(st.integers(min_value=1, max_value=4))
        receive_cap = draw(st.integers(min_value=1, max_value=6))
    hot = draw(st.integers(0, 19))
    crowd = draw(st.lists(st.integers(0, 19), min_size=receive_cap + 1, max_size=20, unique=True))
    return pairs, [(sender, hot) for sender in crowd], send_cap, receive_cap


class TestOnePassAccounting:
    """``account`` charges all rounds of a schedule in one pass; the oracle
    accounts round by round.  The same traffic must give the same delivered
    positions in order, rounds, receive totals, cut bits and full
    RoundMetrics -- of the network and of two nested scopes -- for an
    exchange, a one-round batch over the receive cap (recorded, not raised)
    and the exchange's schedule sent a second time."""

    FAULTS = {
        "ideal": None,
        "faulty": dict(drop_rate=0.2, burst_rate=0.2, burst_length=2, burst_drop_rate=0.9, seed=7),
    }

    @staticmethod
    def run(plane, case, faults):
        pairs, overflow, send_cap, receive_cap = case
        config = capped_config(
            20,
            send_cap,
            receive_cap,
            rng_seed=1,
            faults=faults and FaultModel(**faults),
        )
        network = PLANES[plane](generators.cycle_graph(20), config)
        assert (network.send_cap, network.receive_cap) == (send_cap, receive_cap)
        network.add_cut_watcher("half", range(10))
        network.add_cut_watcher("odd", range(1, 20, 2))
        senders, targets = build_columns(pairs)

        def exchange(phase):
            if plane == "scalar":
                delivered, rounds = network.run_global_exchange(senders, targets, phase)
            else:
                delivered = network.account(schedule, senders, targets, phase)
                rounds = schedule.rounds
            return delivered.tolist(), rounds

        schedule = network.schedule_exchange(senders, targets)
        with network.metrics.scoped("outer") as outer:
            first = exchange("exchange")
            with network.metrics.scoped("inner") as inner:
                overflowed = network.global_round(*build_columns(overflow), "overflow").tolist()
                again = exchange("again")
        return first, overflowed, again, metrics_snapshot(network), network.metrics, outer, inner

    @pytest.mark.parametrize("faults", sorted(FAULTS))
    @common_settings
    @given(accounting_cases())
    def test_matches_round_by_round_accounting(self, faults, case):
        oracle = self.run("scalar", case, self.FAULTS[faults])
        engine = self.run("vectorized", case, self.FAULTS[faults])
        assert engine == oracle
        if faults == "ideal":
            inner = engine[-1]
            assert inner.receive_cap_violations == 1
            assert inner.max_received_per_round == len(case[1])

    @pytest.mark.parametrize("bad_target", [-1, 20])
    def test_rejected_round_ticks_the_fault_clock(self, bad_target):
        # Sender 0's third message (round 2 at send_cap 1) has a bad target:
        # rounds 0 and 1 are charged, round 2 ticks the fault clock, and a
        # following exchange's drops see the same clock on both planes.
        pairs = [(0, 1), (1, 2), (0, 3), (0, bad_target)]
        follow = [(sender, (sender + 3) % 20) for sender in range(20) for _ in range(2)]
        snapshots = {}
        for plane in PLANES:
            config = capped_config(20, 1, 2, faults=FaultModel(drop_rate=0.3, seed=5))
            network = PLANES[plane](generators.cycle_graph(20), config)
            with pytest.raises(ValueError):
                network.run_global_exchange(*build_columns(pairs))
            assert network._fault_state.round_index == 3, plane
            delivered, rounds = network.run_global_exchange(*build_columns(follow))
            snapshots[plane] = delivered.tolist(), rounds, metrics_snapshot(network)
        assert snapshots["scalar"] == snapshots["vectorized"]

    def test_folded_record_counts_every_round_over_the_cap(self):
        # Two rounds of four messages into node 1 (receive cap 2), folded
        # into one record: two violations, as two separate rounds record.
        pairs = [(sender, 1) for sender in range(8)]
        senders, targets = build_columns(pairs)
        config = capped_config(20, 1, 2)
        folded = HybridNetwork(generators.cycle_graph(20), config)
        schedule = ExchangeSchedule(np.arange(8), np.array([0, 4, 8]))
        assert folded.account(schedule, senders, targets, "x").tolist() == list(range(8))
        separate = HybridNetwork(generators.cycle_graph(20), config)
        for block in (slice(0, 4), slice(4, 8)):
            separate.global_round(senders[block], targets[block], "x")
        assert folded.metrics == separate.metrics
        assert folded.metrics.receive_cap_violations == 2

    def test_schedule_is_a_read_only_value(self):
        network = HybridNetwork(generators.cycle_graph(20), capped_config(20, 1, 2))
        senders, targets = build_columns([(0, 1), (0, 2), (1, 1), (2, 1), (3, 1)])
        schedule = network.schedule_exchange(senders, targets)
        # Round 0 scans senders 0-3 and admits two messages to node 1; round
        # 1 scans from sender 2 (offset 1 of senders 0, 2, 3).
        assert schedule.rounds == 2 and schedule.bounds.tolist() == [0, 2, 5]
        assert schedule.order.tolist() == [0, 2, 3, 4, 1]
        with pytest.raises(ValueError):
            schedule.order[0] = 4
        # Sending it twice charges twice and delivers the same positions.
        first = network.account(schedule, senders, targets, "x")
        assert network.account(schedule, senders, targets, "x").tolist() == first.tolist()
        assert network.metrics.global_rounds == 4


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

    @staticmethod
    def assert_dissemination_identical(tokens):
        def protocol(network):
            return disseminate_tokens(network, tokens).rounds

        snapshots, outputs = run_on_both_planes(lambda: generators.cycle_graph(40), protocol)
        assert snapshots["scalar"] == snapshots["vectorized"]
        assert outputs["scalar"] == outputs["vectorized"]

    def test_dissemination_workload(self):
        self.assert_dissemination_identical(
            {node: [("t", node, i) for i in range(3)] for node in range(0, 40, 4)}
        )

    def test_dissemination_workload_four_tokens_per_node(self):
        """Relays hold several tokens, so responses repeat per held token."""
        self.assert_dissemination_identical(
            {node: [("t", node, i) for i in range(4)] for node in range(40)}
        )

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
            skeleton = compute_skeleton(network, 0.2, ensure_connected=True)
            transport = HybridCliqueTransport(network, skeleton)
            transport.exchange(from_outboxes({0: [(1, "x")]}))
            return skeleton.size

        snapshots, outputs = run_on_both_planes(
            lambda: generators.connected_workload(30, RandomSource(8), weighted=False), protocol
        )
        assert snapshots["scalar"] == snapshots["vectorized"]
        assert outputs["scalar"] == outputs["vectorized"]


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

    @identity_settings
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
