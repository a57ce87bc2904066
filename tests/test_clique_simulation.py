"""Tests for simulating the CLIQUE model inside a HYBRID network (Corollary 4.1)."""

import zlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scalar_plane import from_outboxes, to_inboxes

from repro import HybridSession
from repro.clique import BroadcastKSourceBellmanFord, EccentricityDiameter, GatherShortestPaths
from repro.clique.model import CliqueNetwork
from repro.core.clique_simulation import HybridCliqueTransport, predicted_simulation_rounds
from repro.core.skeleton import compute_skeleton
from repro.graphs import generators, reference
from repro.graphs.graph import WeightedGraph
from repro.hybrid import CapacityExceededError, HybridNetwork, ModelConfig
from repro.hybrid.batch import MessageBatch
from repro.hybrid.faults import FaultModel
from repro.localnet.token_dissemination import disseminate_tokens
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
        inboxes = run_round(transport, outboxes)
        for i in range(1, size):
            assert (0, f"to-{i}") in inboxes.get(i, [])

    def test_rounds_used_counts_clique_rounds(self, network, skeleton):
        transport = HybridCliqueTransport(network, skeleton)
        transport.exchange(MessageBatch.empty())
        transport.exchange(MessageBatch.empty())
        assert transport.rounds_used == 2

    def test_hybrid_rounds_grow_with_clique_rounds(self, network, skeleton):
        transport = HybridCliqueTransport(network, skeleton)
        before = network.metrics.total_rounds
        transport.exchange(MessageBatch.empty())
        after_one = network.metrics.total_rounds
        transport.exchange(MessageBatch.empty())
        after_two = network.metrics.total_rounds
        assert after_one > before
        assert after_two > after_one

    def test_padding_does_not_leak_into_inboxes(self, network, skeleton):
        transport = HybridCliqueTransport(network, skeleton)
        delivered = transport.exchange(MessageBatch.empty())
        assert len(delivered) == 0

    def test_invalid_index_rejected(self, network, skeleton):
        transport = HybridCliqueTransport(network, skeleton)
        with pytest.raises(ValueError):
            run_round(transport, {transport.size + 1: [(0, "x")]})
        with pytest.raises(ValueError):
            run_round(transport, {0: [(transport.size + 1, "x")]})

    def test_clique_algorithm_runs_correctly_inside_hybrid(self, network, skeleton):
        transport = HybridCliqueTransport(network, skeleton)
        algorithm = GatherShortestPaths()
        sources = [0]
        estimates = algorithm.run(transport, skeleton.weights, sources)
        heads, tails = np.nonzero(np.triu(np.isfinite(skeleton.weights), 1))
        weights = skeleton.weights[heads, tails].astype(int)
        edges = zip(heads.tolist(), tails.tolist(), weights.tolist(), strict=True)
        truth = reference.single_source_distances(WeightedGraph.from_edges(skeleton.size, edges), 0)
        for index in range(skeleton.size):
            assert estimates[index, 0] == truth.get(index, float("inf"))

    def test_predicted_rounds_formula(self):
        assert predicted_simulation_rounds(100, 10) == pytest.approx(1.0 + 10 ** 0.5)

    def test_empty_skeleton_rejected(self, network):
        class FakeSkeleton:
            size = 0

        with pytest.raises((ValueError, AttributeError)):
            HybridCliqueTransport(network, FakeSkeleton())


def run_round(transport, outboxes):
    """One CLIQUE round from dict-form outboxes, returned as dict-form inboxes."""
    return to_inboxes(transport.exchange(from_outboxes(outboxes)))


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
        expected = run_round(CliqueNetwork(size), round_outboxes)
        assert multiset(run_round(shared_transport, round_outboxes)) == multiset(expected)

    def test_send_cap_enforced(self):
        transport = make_transport()
        size = transport.size
        with pytest.raises(CapacityExceededError):
            run_round(transport, {0: [(target % size, "x") for target in range(size + 1)]})

    def test_receive_cap_enforced(self):
        transport = make_transport()
        size = transport.size
        outboxes = {sender: [(0, "x"), (0, "y")] for sender in range(size)}
        with pytest.raises(CapacityExceededError):
            run_round(transport, outboxes)

    def test_none_payloads_are_delivered(self):
        transport = make_transport()
        inboxes = run_round(transport, {1: [(0, None)]})
        assert inboxes == {0: [(1, None)]}


class TestRoutingPlanReuse:
    ROUNDS = [
        {},
        {0: [(1, "a"), (2, "b")], 3: [(0, None)]},
        {sender: [(0, sender)] for sender in range(4)},
        {0: [(1, "a"), (1, "b"), (1, "c")], 2: [(1, "d")]},
        {1: [(0, "e")]},
        # Interleaved repeated pairs: extras follow their pair's first
        # message, not their own position ("d" before "c" here).
        {2: [(1, "p"), (0, "q"), (1, "r")], 0: [(1, "s"), (2, "t"), (1, "u"), (2, "v")]},
        {3: [(1, "a"), (2, "b"), (2, "c"), (1, "d")], 0: [(1, "e"), (1, "f")]},
    ]

    def test_single_message_rounds_do_not_plan(self):
        transport = make_transport()
        calls = count_plans(transport)
        transport.exchange(MessageBatch.empty())
        assert len(calls) == 1  # the padding labels, once
        run_round(transport, {0: [(1, "a")]})
        run_round(transport, {1: [(0, "b"), (2, "c")]})
        assert len(calls) == 1
        # A pair with three messages appends index-1 and index-2 labels:
        # that round plans afresh, the next single-message round plans the
        # padding labels once more, and the rounds after it reuse that plan.
        run_round(transport, {0: [(1, "a"), (1, "b"), (1, "c")]})
        assert len(calls) == 2 and calls[-1] == transport.size**2 + 2
        run_round(transport, {0: [(1, "a")]})
        run_round(transport, {2: [(0, "d")]})
        assert len(calls) == 3 and calls[-1] == transport.size**2

    def test_reused_plan_schedules_nothing(self, monkeypatch):
        # A plan carries its push, request and respond schedules, so a Gather
        # run of R CLIQUE rounds on one plan schedules 3 exchanges, not 3R.
        transport = make_transport()
        scheduled = []
        original = HybridNetwork.schedule_exchange

        def counted(network, senders, targets):
            scheduled.append(senders.size)
            return original(network, senders, targets)

        monkeypatch.setattr(HybridNetwork, "schedule_exchange", counted)
        plans = count_plans(transport)
        GatherShortestPaths().run(transport, transport.skeleton.weights, [0])
        assert transport.rounds_used > 3
        assert len(plans) == 1
        assert len(scheduled) == 3

    # Per round, a digest of the inboxes in delivery order; then the
    # transport's whole RoundMetrics pin.  Recorded with the dict-of-tuples
    # transport (and its per-pair extra-token loop).
    INBOX_DIGESTS = [
        223132457, 2959242573, 180614407, 763127392, 1747063200, 2482661468, 3138822231
    ]

    @pytest.mark.parametrize(
        "faults, expected",
        [
            (None, (257, 5274, 337536, 0, 0, 19, 2670452795)),
            (FaultModel(drop_rate=0.05, seed=3), (425, 11272, 721408, 588, 582, 32, 1297029468)),
        ],
    )
    def test_rounds_match_recorded(self, faults, expected):
        transport = make_transport(faults)
        digests = [
            digest(list(run_round(transport, round_outboxes).items()))
            for round_outboxes in self.ROUNDS
        ]
        assert digests == self.INBOX_DIGESTS
        assert pin(transport.network.metrics) == expected

    @pytest.mark.parametrize("faults", [None, FaultModel(drop_rate=0.05, seed=3)])
    def test_reused_and_fresh_plans_agree(self, faults):
        reused = make_transport(faults)
        fresh = make_transport(faults)
        calls = count_plans(fresh)
        for round_outboxes in self.ROUNDS:
            fresh.router._plan = None  # forget the memo: every round plans
            assert run_round(reused, round_outboxes) == run_round(fresh, round_outboxes)
        assert len(calls) == len(self.ROUNDS)
        assert reused.network.metrics == fresh.network.metrics
        if faults is not None:
            assert reused.network.metrics.global_dropped > 0


class TestConvergecastScheduleReuse:
    def test_second_dissemination_schedules_no_count_level(self, monkeypatch):
        # aggregate_sum's convergecast levels (dissemination step 1, phase
        # ":count") are columns of n alone, so a network schedules them once.
        n = 100
        network = HybridNetwork(generators.cycle_graph(n), ModelConfig(rng_seed=4))
        levels = []
        for level in range(n.bit_length() - 1, 0, -1):
            senders = list(range((1 << level) - 1, min(n, (1 << (level + 1)) - 1)))
            levels.append((senders, [(sender - 1) // 2 for sender in senders]))
        scheduled = []
        original = HybridNetwork.schedule_exchange

        def counted(network, senders, targets):
            scheduled.append((senders.tolist(), targets.tolist()))
            return original(network, senders, targets)

        monkeypatch.setattr(HybridNetwork, "schedule_exchange", counted)
        tokens = {node: [("t", node)] for node in range(0, n, 10)}
        disseminate_tokens(network, tokens, phase="tokens")
        first, rounds = list(scheduled), network.metrics.total_rounds
        scheduled.clear()
        disseminate_tokens(network, tokens, phase="tokens")
        assert all(level in first for level in levels)
        assert not any(level in scheduled for level in levels)
        assert len(scheduled) == len(first) - len(levels)
        assert network.metrics.total_rounds == 2 * rounds


class TestColumnTraffic:
    def test_clique_rounds_ship_ndarray_payloads(self, monkeypatch):
        # Every CLIQUE round a query simulates, and every delivery, carries
        # a numpy payload column: float64 distances (Bellman-Ford) or int64
        # edge positions (gather) -- never a list of Python objects.
        columns = []
        original = HybridCliqueTransport.exchange

        def recording(self, batch):
            delivered = original(self, batch)
            columns.extend((batch.payloads, delivered.payloads))
            return delivered

        monkeypatch.setattr(HybridCliqueTransport, "exchange", recording)
        graph = generators.connected_workload(64, RandomSource(7), weighted=False)
        session = HybridSession(graph, ModelConfig(rng_seed=7))
        session.sssp(5)
        bellman_ford = len(columns)
        session.sssp_batch([3, 10, 22])
        session.diameter()
        assert 0 < bellman_ford < len(columns)
        assert all(isinstance(column, np.ndarray) for column in columns)
        assert {column.dtype for column in columns[:bellman_ford]} == {np.dtype(np.float64)}
        assert {column.dtype for column in columns[bellman_ford:]} == {np.dtype(np.int64)}


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


def digest(value):
    """A CRC of an answer's ``repr`` (floats print exactly)."""
    return zlib.crc32(repr(value).encode())


def run_clique_queries(weighted, faults):
    """Every CLIQUE-simulating query kind on one warm session, pinned per query.

    Section 5's diameter targets unweighted graphs, so only the unweighted
    session asks for it.
    """
    graph = generators.connected_workload(64, RandomSource(7), weighted=weighted, max_weight=6)
    session = HybridSession(graph, ModelConfig(rng_seed=7), fault_model=faults)
    answers = []
    result = session.sssp(5)
    answers.append((result.clique_rounds, digest(sorted(result.distances.items()))))
    results = session.sssp_batch([3, 10, 22, 41])
    answers.append(
        (results[0].clique_rounds, digest([sorted(r.distances.items()) for r in results]))
    )
    result = session.shortest_paths([2, 9, 30], BroadcastKSourceBellmanFord())
    pairs = [list(zip(result.sources, row, strict=True)) for row in result.estimates.tolist()]
    answers.append((result.clique_rounds, digest(pairs)))
    if not weighted:
        for algorithm in (None, EccentricityDiameter()):
            result = session.diameter(algorithm)
            answers.append((result.clique_rounds, result.estimate, result.skeleton_estimate))
    records = [(record.kind, pin(record.metrics)) for record in session.queries]
    return records, answers, pin(session.network.metrics)


class TestCliqueQueryPin:
    """Rounds, phases and answers of every CLIQUE-simulating query kind.

    Recorded with the dict-of-tuples CLIQUE transport, before CLIQUE rounds
    travelled as ``MessageBatch`` columns; the column transport must not move
    a single round, message, phase or answer.
    """

    EXPECTED = {
        (True, False): (
            [
                ("sssp", (82, 685, 43840, 0, 0, 14, 504291636)),
                ("sssp-batch", (303, 4494, 287616, 0, 0, 14, 3597393249)),
                ("shortest-paths", (122, 1047, 67008, 0, 0, 14, 4266632298)),
            ],
            [(2, 3896973200), (11, 911915810), (4, 1316902593)],
            (702, 6883, 440512, 0, 0, 79, 562715167),
        ),
        (False, False): (
            [
                ("sssp", (82, 685, 43840, 0, 0, 14, 504291636)),
                ("sssp-batch", (303, 4494, 287616, 0, 0, 14, 3597393249)),
                ("shortest-paths", (164, 1479, 94656, 0, 0, 14, 1388065972)),
                ("diameter", (180, 2112, 135168, 0, 0, 8, 3805024652)),
                ("diameter", (54, 816, 52224, 0, 0, 8, 1576451739)),
            ],
            [(2, 3421793736), (11, 2682691958), (6, 4192651814), (8, 6.0, 4.0), (2, 6.0, 8.0)],
            (978, 10243, 655552, 0, 0, 83, 1578280145),
        ),
        (True, True): (
            [
                ("sssp", (131, 1403, 89792, 75, 73, 26, 1795376349)),
                ("sssp-batch", (495, 9639, 616896, 469, 468, 26, 2360713174)),
                ("shortest-paths", (193, 2171, 138944, 105, 102, 27, 2944492862)),
            ],
            [(2, 3896973200), (11, 911915810), (4, 1316902593)],
            (1070, 14144, 905216, 688, 664, 135, 3392169395),
        ),
        (False, True): (
            [
                ("sssp", (131, 1403, 89792, 75, 73, 26, 1795376349)),
                ("sssp-batch", (495, 9639, 616896, 469, 468, 26, 2360713174)),
                ("shortest-paths", (255, 3113, 199232, 162, 159, 26, 2900434043)),
                ("diameter", (276, 4089, 261696, 191, 169, 14, 349940835)),
                ("diameter", (78, 1326, 84864, 77, 52, 14, 2389743098)),
            ],
            [(2, 3421793736), (11, 2682691958), (6, 4192651814), (8, 6.0, 4.0), (2, 6.0, 8.0)],
            (1486, 20501, 1312064, 1013, 942, 138, 446665391),
        ),
    }

    @pytest.mark.parametrize("weighted", [True, False])
    @pytest.mark.parametrize("faults", [None, FaultModel(drop_rate=0.05, seed=3)])
    def test_queries_match_recorded(self, weighted, faults):
        assert run_clique_queries(weighted, faults) == self.EXPECTED[weighted, faults is not None]


def e2e_family(family, n):
    """The two graph families of the end-to-end bench, built the same way."""
    if family == "locality":
        return generators.random_geometric_like_graph(
            n, neighbourhood=2, rng=RandomSource(1), extra_edge_probability=0.01
        )
    return generators.connected_workload(n, RandomSource(1), weighted=True, max_weight=8)


def run_apsp_repair(family, faults):
    """``apsp()``, one weight change off the skeleton, then a repaired ``apsp()``."""
    u, v, weight = TestApspRepairPin.MUTATIONS[family]
    session = HybridSession(
        e2e_family(family, 256), ModelConfig(rng_seed=1, skeleton_xi=0.75), fault_model=faults
    )
    first = session.apsp()
    session.update_weight(u, v, weight)
    second = session.apsp()
    republished = any(":repair:publish:" in name for name in session.network.metrics.phases)
    return (
        pin(session.network.metrics),
        zlib.crc32(first.matrix.tobytes()),
        zlib.crc32(second.matrix.tobytes()),
        [(r.key_tag, r.action, r.deltas, r.rounds) for r in session.repairs],
        republished,
    )


class TestApspRepairPin:
    """APSP and a repaired APSP on both end-to-end graph families at n=256.

    Each mutation raises an edge away from the skeleton and changes a
    skeleton edge's weight, so the repair re-disseminates the changed edges
    (``:repair:publish``).  Recorded with the dict-of-dicts skeleton graph;
    the dense skeleton weight matrix must not move a round, message, phase,
    matrix entry or repair decision.
    """

    MUTATIONS = {"locality": (129, 131, 4), "random": (12, 60, 9)}

    EXPECTED = {
        ("locality", False): (
            (917, 23793, 1522752, 0, 0, 29, 2669495807),
            732681442,
            3672560331,
            [("p0.0625", "repaired", 1, 108)],
            True,
        ),
        ("locality", True): (
            (1056, 50350, 3222400, 2463, 2417, 51, 2196034807),
            732681442,
            3672560331,
            [("p0.0625", "repaired", 1, 147)],
            True,
        ),
        ("random", False): (
            (251, 23028, 1473792, 0, 0, 29, 1786259251),
            3452292103,
            2378020973,
            [("p0.0625", "repaired", 1, 52)],
            True,
        ),
        ("random", True): (
            (388, 48692, 3116288, 2440, 2395, 50, 289943732),
            3452292103,
            2378020973,
            [("p0.0625", "repaired", 1, 88)],
            True,
        ),
    }

    @pytest.mark.parametrize("family", ["locality", "random"])
    @pytest.mark.parametrize("faults", [None, FaultModel(drop_rate=0.05, seed=3)])
    def test_apsp_and_repair_match_recorded(self, family, faults):
        assert run_apsp_repair(family, faults) == self.EXPECTED[family, faults is not None]
