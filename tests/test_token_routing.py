"""Tests for the token routing protocol (Section 2, Theorem 2.2)."""

import pytest

from repro.core.token_routing import (
    RoutingToken,
    TokenRouter,
    deliver_tokens,
    make_tokens,
    predicted_routing_rounds,
    route_tokens,
    token_labels,
)
from repro import HybridSession
from repro.core.clique_simulation import HybridCliqueTransport
from repro.core.skeleton import compute_skeleton
from repro.graphs import generators
from repro.hybrid import HybridNetwork, MessageBatch, ModelConfig
from repro.hybrid.errors import ProtocolError
from repro.util.rand import RandomSource


@pytest.fixture
def network():
    graph = generators.random_geometric_like_graph(
        50, neighbourhood=2, rng=RandomSource(13), extra_edge_probability=0.02
    )
    return HybridNetwork(graph, ModelConfig(rng_seed=6))


def build_instance(network, sender_count, tokens_per_sender, seed=1):
    rng = RandomSource(seed)
    senders = rng.sample(list(range(network.n)), sender_count)
    assignments = {}
    for sender in senders:
        assignments[sender] = [
            (rng.randrange(network.n), ("payload", sender, i)) for i in range(tokens_per_sender)
        ]
    return make_tokens(assignments)


class TestMakeTokens:
    def test_labels_enumerate_pairs(self):
        tokens = make_tokens({1: [(2, "a"), (2, "b"), (3, "c")]})
        labels = {t.label for t in tokens}
        assert labels == {(1, 2, 0), (1, 2, 1), (1, 3, 0)}

    def test_payload_preserved(self):
        tokens = make_tokens({1: [(2, "data")]})
        assert tokens[0].payload == "data"


class TestRouteTokens:
    def test_all_tokens_delivered(self, network):
        tokens = build_instance(network, sender_count=8, tokens_per_sender=5)
        result = route_tokens(network, tokens)
        delivered = [t for items in result.delivered.values() for t in items]
        assert sorted(t.label for t in delivered) == sorted(t.label for t in tokens)

    def test_tokens_reach_correct_receiver(self, network):
        tokens = build_instance(network, sender_count=6, tokens_per_sender=4)
        result = route_tokens(network, tokens)
        for receiver, items in result.delivered.items():
            assert all(t.receiver == receiver for t in items)

    def test_empty_instance(self, network):
        result = route_tokens(network, [])
        assert result.delivered == {}
        assert result.rounds == 0

    def test_self_addressed_tokens_free(self, network):
        tokens = [RoutingToken(3, 3, 0, "self")]
        result = route_tokens(network, tokens)
        assert result.delivered[3][0].payload == "self"

    def test_send_cap_respected(self, network):
        tokens = build_instance(network, sender_count=10, tokens_per_sender=8)
        route_tokens(network, tokens)
        assert network.metrics.max_sent_per_round <= network.send_cap

    def test_receive_load_bounded(self, network):
        tokens = build_instance(network, sender_count=10, tokens_per_sender=8)
        route_tokens(network, tokens)
        # Lemma D.2 / receiver-limited scheduling: per-round receive load stays
        # within the configured cap.
        assert network.metrics.max_received_per_round <= network.receive_cap

    def test_rounds_positive_and_recorded(self, network):
        tokens = build_instance(network, sender_count=5, tokens_per_sender=3)
        before = network.metrics.total_rounds
        result = route_tokens(network, tokens)
        assert result.rounds == network.metrics.total_rounds - before
        assert result.rounds > 0

    def test_mu_parameters_reported(self, network):
        tokens = build_instance(network, sender_count=5, tokens_per_sender=9)
        result = route_tokens(network, tokens)
        assert result.mu_senders >= 1
        assert result.mu_receivers >= 1


class TestTokenRouter:
    def test_router_reuse_across_batches(self, network):
        senders = list(range(0, network.n, 5))
        receivers = list(range(0, network.n, 3))
        router = TokenRouter(network, senders, receivers, 4, 8)
        rng = RandomSource(3)
        for batch in range(3):
            tokens = make_tokens(
                {s: [(rng.choice(receivers), (batch, s, i)) for i in range(2)] for s in senders}
            )
            result = deliver_tokens(router, tokens, token_labels(tokens, network.n))
            delivered = sorted(t.label for items in result.delivered.values() for t in items)
            assert delivered == sorted(t.label for t in tokens)

    def test_router_rejects_unknown_sender(self, network):
        router = TokenRouter(network, [0, 1], [2, 3], 1, 1)
        with pytest.raises(ProtocolError):
            router.route([9], [2], [0])

    def test_router_rejects_unknown_receiver(self, network):
        router = TokenRouter(network, [0, 1], [2, 3], 1, 1)
        with pytest.raises(ProtocolError):
            router.route([0], [9], [0])

    def test_router_requires_nonempty_populations(self, network):
        with pytest.raises(ValueError):
            TokenRouter(network, [], [1], 1, 1)

    def test_setup_rounds_recorded(self, network):
        router = TokenRouter(network, [0, 5, 10], [1, 6, 11], 2, 2)
        assert router.setup_rounds > 0


class TestLabelValidation:
    """Malformed labels fail loudly at the public edge, before any round."""

    CASES = [
        ([RoutingToken(1, 2, 0, "a"), RoutingToken(1, 2, 0, "b")], "label"),
        ([RoutingToken(1, 2, -3, "a")], "index"),
        ([RoutingToken(1, 50, 0, "a")], "receiver"),
        ([RoutingToken(-1, 2, 0, "a")], "sender"),
    ]

    @pytest.mark.parametrize("tokens, field", CASES)
    def test_route_tokens_rejects(self, network, tokens, field):
        with pytest.raises(ValueError, match=field):
            route_tokens(network, tokens)
        assert network.metrics.total_rounds == 0

    @pytest.mark.parametrize("tokens, field", CASES)
    def test_session_route_tokens_rejects(self, network, tokens, field):
        session = HybridSession(network.graph, ModelConfig(rng_seed=6))
        with pytest.raises(ValueError, match=field):
            session.route_tokens(tokens)
        assert session.network.metrics.total_rounds == 0
        assert not session.queries

    def test_distinct_indices_of_a_pair_are_accepted(self, network):
        tokens = [RoutingToken(1, 2, 0, "a"), RoutingToken(1, 2, 1, "b")]
        result = route_tokens(network, tokens)
        assert [token.payload for token in result.delivered[2]] == ["a", "b"]


class TestRoutingPlanMemo:
    def test_same_labels_plan_once(self, network, monkeypatch):
        router = TokenRouter(network, [0, 5, 10], [1, 6, 11], 2, 2)
        calls = []
        original = router.plan
        monkeypatch.setattr(router, "plan", lambda *labels: calls.append(1) or original(*labels))
        labels = ([0, 5, 10, 10], [1, 6, 11, 11], [0, 0, 0, 1])
        first = router.route(*labels)
        second = router.route(*[list(column) for column in labels])
        assert len(calls) == 1 and second is first
        router.route([0], [1], [0])
        assert len(calls) == 2

    def test_delivery_order_groups_by_receiver(self, network):
        router = TokenRouter(network, [0, 3, 5], [3, 5, 7], 3, 3)
        plan = router.route([5, 3, 0, 5, 3], [3, 3, 5, 5, 7], [0, 0, 0, 0, 0])
        order, bounds = plan.deliveries()
        groups = {
            int(plan.receivers[order[begin]]): order[begin:end].tolist()
            for begin, end in zip(bounds[:-1], bounds[1:], strict=True)
        }
        # Self-addressed receivers first (label order), self-addressed token
        # before routed ones, routed ones in label order.
        assert list(groups) == [3, 5, 7]
        assert groups == {3: [1, 0], 5: [3, 2], 7: [4]}
        assert plan.routable.tolist() == [0, 2, 4]


class TestNoRoutableToken:
    """Label sets whose tokens are all self-addressed reach the helper
    assignment with empty columns and route nothing over the global mode."""

    def test_all_self_addressed_batch(self, network):
        tokens = make_tokens({3: [(3, "a"), (3, "b")], 5: [(5, "c")]})
        result = route_tokens(network, tokens)
        payloads = {
            receiver: [token.payload for token in items]
            for receiver, items in result.delivered.items()
        }
        assert payloads == {3: ["a", "b"], 5: ["c"]}
        for step in ("push", "request", "respond"):
            assert f"token-routing:{step}" not in network.metrics.phases

    def test_one_node_skeleton_transport(self):
        network = HybridNetwork(generators.cycle_graph(12), ModelConfig(rng_seed=1))
        skeleton = compute_skeleton(network, 1e-9)
        assert skeleton.size == 1
        transport = HybridCliqueTransport(network, skeleton)
        delivered = transport.exchange(MessageBatch([0], [0], [2.5]))
        assert delivered.payloads.tolist() == [2.5]
        assert transport.rounds_used == 1

    def test_endpoint_outside_the_population_rejected(self, network):
        router = TokenRouter(network, [0, 1], [2, 3], 2, 2)
        with pytest.raises(ProtocolError, match="token sender 9"):
            router.route([0, 9, 1], [2, 3, 3], [0, 0, 0])


class TestPredictedRounds:
    def test_formula_matches_theorem(self):
        # K/n + sqrt(kS) + sqrt(kR)
        value = predicted_routing_rounds(100, 10, 20, 4, 9)
        assert value == pytest.approx((10 * 4 + 20 * 9) / 100 + 2 + 3)

    def test_monotone_in_workload(self):
        low = predicted_routing_rounds(100, 10, 10, 4, 4)
        high = predicted_routing_rounds(100, 10, 10, 16, 16)
        assert high > low
