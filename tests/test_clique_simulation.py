"""Tests for simulating the CLIQUE model inside a HYBRID network (Corollary 4.1)."""

import zlib
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import HybridSession
from repro.clique import GatherShortestPaths
from repro.clique.model import CliqueNetwork
from repro.core.clique_simulation import HybridCliqueTransport, predicted_simulation_rounds
from repro.core.skeleton import compute_skeleton
from repro.graphs import generators
from repro.hybrid import CapacityExceededError, HybridNetwork, ModelConfig
from repro.hybrid.faults import FaultModel
from repro.util.rand import RandomSource


@pytest.fixture
def network():
    graph = generators.connected_workload(40, RandomSource(19), weighted=True, max_weight=5)
    return HybridNetwork(graph, ModelConfig(rng_seed=9, skeleton_xi=1.0))


@pytest.fixture
def skeleton(network):
    return compute_skeleton(network, 0.25, ensure_connected=True)


class TestHybridCliqueTransport:
    def test_exchange_delivers_payloads(self, network, skeleton):
        transport = HybridCliqueTransport(network, skeleton)
        size = transport.size
        outboxes = {0: [(i, f"to-{i}") for i in range(size)]}
        inboxes = transport.exchange(outboxes)
        for i in range(1, size):
            assert (0, f"to-{i}") in inboxes.get(i, [])

    def test_rounds_used_counts_clique_rounds(self, network, skeleton):
        transport = HybridCliqueTransport(network, skeleton)
        transport.exchange({})
        transport.exchange({})
        assert transport.rounds_used == 2

    def test_hybrid_rounds_grow_with_clique_rounds(self, network, skeleton):
        transport = HybridCliqueTransport(network, skeleton)
        before = network.metrics.total_rounds
        transport.exchange({})
        after_one = network.metrics.total_rounds
        transport.exchange({})
        after_two = network.metrics.total_rounds
        assert after_one > before
        assert after_two > after_one

    def test_padding_does_not_leak_into_inboxes(self, network, skeleton):
        transport = HybridCliqueTransport(network, skeleton)
        inboxes = transport.exchange({})
        assert all(not messages for messages in inboxes.values())

    def test_invalid_index_rejected(self, network, skeleton):
        transport = HybridCliqueTransport(network, skeleton)
        with pytest.raises(ValueError):
            transport.exchange({transport.size + 1: [(0, "x")]})
        with pytest.raises(ValueError):
            transport.exchange({0: [(transport.size + 1, "x")]})

    def test_clique_algorithm_runs_correctly_inside_hybrid(self, network, skeleton):
        transport = HybridCliqueTransport(network, skeleton)
        algorithm = GatherShortestPaths()
        sources = [0]
        estimates = algorithm.run(transport, skeleton.incident_edges(), sources)
        truth = skeleton.graph.dijkstra(0)
        for index in range(skeleton.graph.node_count):
            assert estimates[index][0] == pytest.approx(truth.get(index, float("inf")))

    def test_predicted_rounds_formula(self):
        assert predicted_simulation_rounds(100, 10) == pytest.approx(1.0 + 10 ** 0.5)

    def test_empty_skeleton_rejected(self, network):
        class FakeSkeleton:
            size = 0

        with pytest.raises((ValueError, AttributeError)):
            HybridCliqueTransport(network, FakeSkeleton())


def make_transport(faults=None, seed=9):
    """A transport on the module's 40-node instance (optionally faulty)."""
    graph = generators.connected_workload(40, RandomSource(19), weighted=True, max_weight=5)
    network = HybridNetwork(graph, ModelConfig(rng_seed=seed, skeleton_xi=1.0, faults=faults))
    skeleton = compute_skeleton(network, 0.25, ensure_connected=True)
    return HybridCliqueTransport(network, skeleton)


def count_plans(transport):
    """Wrap the transport's ``TokenRouter.plan`` with a call counter."""
    calls = []
    original = transport.router.plan

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return original(*args, **kwargs)

    transport.router.plan = counted
    return calls


def multiset(inboxes):
    """Per-receiver message multisets, ignoring delivery order."""
    return {
        receiver: Counter(repr(message) for message in messages)
        for receiver, messages in inboxes.items()
        if messages
    }


@st.composite
def outboxes(draw, size):
    """CLIQUE outboxes on ``size`` nodes within the send/receive caps.

    Empty and full rounds, pairs carrying two or more messages and ``None``
    payloads all occur.
    """
    payload = st.one_of(st.none(), st.integers(0, 9))
    shape = draw(st.sampled_from(["empty", "full", "random"]))
    if shape == "empty":
        return {}
    if shape == "full":
        return {
            sender: [(target, draw(payload)) for target in range(size)]
            for sender in range(size)
        }
    result = {}
    received = Counter()
    for sender in draw(st.lists(st.integers(0, size - 1), unique=True, max_size=size)):
        messages = []
        for target in draw(st.lists(st.integers(0, size - 1), max_size=size)):
            if received[target] < size:
                received[target] += 1
                messages.append((target, draw(payload)))
        result[sender] = messages
    return result


@pytest.fixture(scope="module")
def shared_transport():
    # Helper sets are the expensive part, so the property test's examples
    # share one transport; every exchange stands alone.
    return make_transport()


class TestTransportMatchesClique:
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_delivers_what_the_clique_delivers(self, shared_transport, data):
        size = shared_transport.size
        round_outboxes = data.draw(outboxes(size))
        expected = CliqueNetwork(size, strict=True).exchange(round_outboxes)
        assert multiset(shared_transport.exchange(round_outboxes)) == multiset(expected)

    def test_send_cap_enforced(self):
        transport = make_transport()
        size = transport.size
        with pytest.raises(CapacityExceededError):
            transport.exchange({0: [(target % size, "x") for target in range(size + 1)]})

    def test_receive_cap_enforced(self):
        transport = make_transport()
        size = transport.size
        outboxes = {sender: [(0, "x"), (0, "y")] for sender in range(size)}
        with pytest.raises(CapacityExceededError):
            transport.exchange(outboxes)

    def test_none_payloads_are_delivered(self):
        transport = make_transport()
        inboxes = transport.exchange({1: [(0, None)]})
        assert inboxes == {0: [(1, None)]}


class TestRoutingPlanReuse:
    ROUNDS = [
        {},
        {0: [(1, "a"), (2, "b")], 3: [(0, None)]},
        {sender: [(0, sender)] for sender in range(4)},
        {0: [(1, "a"), (1, "b"), (1, "c")], 2: [(1, "d")]},
        {1: [(0, "e")]},
    ]

    def test_single_message_rounds_do_not_plan(self):
        transport = make_transport()
        calls = count_plans(transport)
        transport.exchange({})
        assert len(calls) == 1  # the padding labels, once
        transport.exchange({0: [(1, "a")]})
        transport.exchange({1: [(0, "b"), (2, "c")]})
        assert len(calls) == 1
        # A pair with three messages appends index-1 and index-2 labels:
        # that round plans afresh, the next single-message round plans the
        # padding labels once more, and the rounds after it reuse that plan.
        transport.exchange({0: [(1, "a"), (1, "b"), (1, "c")]})
        assert len(calls) == 2 and calls[-1] == transport.size**2 + 2
        transport.exchange({0: [(1, "a")]})
        transport.exchange({2: [(0, "d")]})
        assert len(calls) == 3 and calls[-1] == transport.size**2

    @pytest.mark.parametrize("faults", [None, FaultModel(drop_rate=0.05, seed=3)])
    def test_reused_and_fresh_plans_agree(self, faults):
        reused = make_transport(faults)
        fresh = make_transport(faults)
        calls = count_plans(fresh)
        for round_outboxes in self.ROUNDS:
            fresh.router._plan = None  # forget the memo: every round plans
            assert reused.exchange(round_outboxes) == fresh.exchange(round_outboxes)
        assert len(calls) == len(self.ROUNDS)
        assert reused.network.metrics == fresh.network.metrics
        if faults is not None:
            assert reused.network.metrics.global_dropped > 0


def pin(metrics):
    """Rounds, messages, bits, fault tallies and a digest of the phase breakdown."""
    phases = sorted((name, b.local_rounds, b.global_rounds) for name, b in metrics.phases.items())
    return (
        metrics.total_rounds,
        metrics.global_messages,
        metrics.global_bits,
        metrics.global_dropped,
        metrics.global_retried,
        len(phases),
        zlib.crc32(repr(phases).encode()),
    )


class TestRoundMetricsPin:
    """``sssp_batch`` and ``apsp`` accounting, recorded before the column routing.

    Routing tokens as label columns and reusing routing plans must not move a
    single round, message or phase; these values were recorded with the
    per-token implementation on the same instance.
    """

    @pytest.mark.parametrize(
        "faults, expected",
        [
            (
                None,
                {
                    "sssp-batch": (303, 4494, 287616, 0, 0, 14, 1438043623),
                    "apsp": (35, 1701, 108864, 0, 0, 7, 2743826265),
                },
            ),
            (
                FaultModel(drop_rate=0.05, seed=3),
                {
                    "sssp-batch": (502, 9679, 619456, 502, 500, 27, 2240617534),
                    "apsp": (59, 3668, 234752, 183, 183, 13, 4276277344),
                },
            ),
        ],
    )
    def test_sssp_batch_and_apsp_metrics(self, faults, expected):
        graph = generators.connected_workload(64, RandomSource(7), weighted=True, max_weight=6)
        session = HybridSession(graph, ModelConfig(rng_seed=7), fault_model=faults)
        session.sssp_batch([3, 10, 22, 41])
        session.apsp()
        assert {record.kind: pin(record.metrics) for record in session.queries} == expected
