"""Unit tests for the LOCAL/NCC primitives (flooding, ruling sets, clustering,
aggregation, token dissemination)."""

import math
import zlib

import numpy as np
import pytest

from repro.baselines import ncc_only_shortest_paths
from repro.graphs import generators, reference
from repro.hybrid import FaultModel, HybridNetwork, ModelConfig
from repro.localnet import (
    aggregate_max,
    aggregate_sum,
    broadcast_value,
    cluster_around_rulers,
    compute_ruling_set,
    disseminate_tokens,
)
from repro.localnet.flooding import explore_limited
from repro.util.rand import RandomSource


@pytest.fixture
def network():
    graph = generators.connected_workload(36, RandomSource(21), weighted=True, max_weight=5)
    return HybridNetwork(graph, ModelConfig(rng_seed=2))


@pytest.fixture
def ring_network():
    graph = generators.cycle_graph(30)
    return HybridNetwork(graph, ModelConfig(rng_seed=2))


class TestFlooding:
    def test_explore_limited_distances_equal_single_source_d_h(self, network):
        # Depth 3 is below the hop diameter, so some rows are not certified by
        # the bounded Dijkstra call and take the relaxation rounds.
        before = network.metrics.local_rounds
        rows = explore_limited(network, 3).rows(range(network.n))
        assert network.metrics.local_rounds - before == 3
        assert rows.shape == (network.n, network.n)
        for node, row in enumerate(rows.tolist()):
            reached = {other: d for other, d in enumerate(row) if d < math.inf}
            assert reached == reference.hop_limited_distances(network.graph, node, 3)


def owners(clustering, n):
    """``owner[v]``: the ruler of ``v``'s cluster."""
    owner = np.full(n, -1, dtype=np.int64)
    for ruler, members in clustering.members.items():
        owner[members] = ruler
    return owner


class TestRulingSetsAndClusters:
    def test_ruling_set_separation(self, network):
        rulers = compute_ruling_set(network, mu=2)
        for i, r1 in enumerate(rulers.tolist()):
            hops = reference.hop_distances(network.graph, r1)
            for r2 in rulers[i + 1 :].tolist():
                assert hops.get(r2, float("inf")) >= 2 * 2 + 1

    def test_ruling_set_covering(self, network):
        rulers = compute_ruling_set(network, mu=2)
        covered = set()
        for ruler in rulers.tolist():
            covered.update(reference.hop_distances(network.graph, ruler, 2 * 2))
        assert covered == set(range(network.n))

    def test_ruling_set_nonempty_and_charged(self, network):
        before = network.metrics.total_rounds
        rulers = compute_ruling_set(network, mu=3)
        assert rulers.size
        assert not rulers.flags.writeable
        assert network.metrics.total_rounds > before

    def test_ruling_set_mu_one_is_mis(self, ring_network):
        rulers = set(compute_ruling_set(ring_network, mu=1).tolist())
        # Independence in the power-2 graph: no two rulers within 2 hops.
        for r in rulers:
            assert not (set(reference.hop_distances(ring_network.graph, r, 2)) - {r}) & rulers

    def test_ruling_set_invalid_mu(self, network):
        with pytest.raises(ValueError):
            compute_ruling_set(network, mu=0)

    def test_clustering_partitions_all_nodes(self, network):
        clustering = cluster_around_rulers(network, 2, "clustering")
        assert list(clustering.members) == compute_ruling_set(network, mu=2).tolist()
        assert sorted(node for members in clustering.members.values() for node in members) == list(
            range(network.n)
        )

    def test_clustering_minimum_size(self, ring_network):
        mu = 3
        clustering = cluster_around_rulers(ring_network, mu, "clustering")
        # Rulers are >= 2µ+1 apart on a cycle, so each cluster has >= µ nodes.
        assert min(len(members) for members in clustering.members.values()) >= mu

    def test_clustering_members_close_to_ruler(self, network):
        clustering = cluster_around_rulers(network, 2, "clustering")
        for ruler, members in clustering.members.items():
            hops = reference.hop_distances(network.graph, ruler)
            assert all(hops[m] <= clustering.radius for m in members.tolist())

    def test_clustering_ties_by_smaller_ruler(self, ring_network):
        # µ = 4 on a 30-cycle: rulers 0, 9 and 18; node 24 is 6 hops from
        # both 18 and 0, and the smaller ID wins.
        clustering = cluster_around_rulers(ring_network, 4, "clustering")
        assert list(clustering.members) == [0, 9, 18]
        assert owners(clustering, ring_network.n)[24] == 0
        assert owners(clustering, ring_network.n)[23] == 18

    def test_clustering_rejects_invalid_mu(self, network):
        before = network.metrics.total_rounds
        with pytest.raises(ValueError):
            cluster_around_rulers(network, 0, "clustering")
        assert network.metrics.total_rounds == before


def clustering_graph(name):
    """The graphs of :class:`TestClusteringPins`."""
    if name == "cycle30":
        return generators.cycle_graph(30)
    if name == "workload36":
        return generators.connected_workload(36, RandomSource(21), weighted=True, max_weight=5)
    if name == "grid":
        return generators.grid_graph(9, 7)
    if name == "locality1024":
        # The query-mix and serve-coalesced graph of benchmarks/e2e.
        return generators.random_geometric_like_graph(
            1024, neighbourhood=2, rng=RandomSource(1), extra_edge_probability=0.01
        )
    if name == "random1024":
        # The cold-start and mutate-repair graph of benchmarks/e2e.
        return generators.connected_workload(1024, RandomSource(1), weighted=True, max_weight=8)
    # Two missing edges split the 40-cycle into two 20-node paths.
    graph = generators.cycle_graph(40)
    graph.remove_edge(0, 1)
    graph.remove_edge(20, 21)
    return graph


def crc(array):
    return zlib.crc32(np.ascontiguousarray(array, dtype=np.int64).tobytes())


class TestClusteringPins:
    """Rulers, clusters, radius and charges, recorded before the graph kernel.

    Recorded with the per-call greedy scan over ``WeightedGraph.ball`` and
    the dict-based closest-ruler BFS; the cached kernel must not move one
    ruler, member, radius or round.  Each entry is (ruler count, CRC of the
    rulers, CRC of every node's ruler, radius, ``pin:ruling-set`` rounds,
    ``pin:clustering`` rounds).
    """

    EXPECTED = {
        ("cycle30", 1): (10, 2221427940, 2373978104, 1, 10, 3),
        ("cycle30", 3): (4, 1019980606, 4032723036, 4, 15, 12),
        ("workload36", 1): (6, 3066942767, 3951155603, 2, 5, 5),
        ("workload36", 2): (1, 1696784233, 3958532690, 4, 5, 5),
        ("workload36", 4): (1, 1696784233, 3958532690, 4, 5, 5),
        ("grid", 2): (6, 567128140, 2955553592, 3, 14, 9),
        ("locality1024", 1): (204, 4011870089, 1209215019, 2, 20, 6),
        ("locality1024", 4): (54, 1907168673, 1006605345, 8, 80, 24),
        ("locality1024", 16): (10, 3524840495, 4035214087, 25, 136, 75),
        ("random1024", 1): (146, 2581624563, 929941858, 2, 11, 6),
        ("random1024", 3): (3, 1970306834, 966437420, 6, 11, 11),
        ("random1024", 12): (1, 1696784233, 3639908756, 7, 11, 11),
        ("outage-split40", 2): (8, 2288871111, 646282305, 4, 24, 12),
        ("outage-split40", 3): (6, 3936868771, 1737733128, 6, 36, 18),
    }

    @pytest.mark.parametrize("name, mu", sorted(EXPECTED))
    def test_clustering_matches_recorded(self, name, mu):
        network = HybridNetwork(clustering_graph(name), ModelConfig(rng_seed=3))
        clustering = cluster_around_rulers(network, mu, "pin")
        rulers = np.fromiter(clustering.members, dtype=np.int64)
        owner = owners(clustering, network.n)
        phases = network.metrics.phases
        assert set(phases) == {"pin:ruling-set", "pin:clustering"}
        rounds = (phases["pin:ruling-set"].local_rounds, phases["pin:clustering"].local_rounds)
        pinned = (rulers.size, crc(rulers), crc(owner), clustering.radius, *rounds)
        assert pinned == self.EXPECTED[name, mu]


class TestAggregation:
    def test_aggregate_max(self, network):
        values = {node: float(node % 7) for node in range(network.n)}
        assert aggregate_max(network, values) == 6.0

    def test_aggregate_empty(self, network):
        assert aggregate_max(network, {}) is None

    def test_aggregate_sum(self, network):
        values = {node: 1.0 for node in range(network.n)}
        assert aggregate_sum(network, values) == pytest.approx(network.n)

    def test_aggregate_sum_partial_holders(self, network):
        assert aggregate_sum(network, {0: 2.5, 7: 1.5}) == pytest.approx(4.0)

    def test_aggregation_is_logarithmic_rounds(self, network):
        before = network.metrics.global_rounds
        aggregate_max(network, {0: 1.0, 5: 2.0})
        used = network.metrics.global_rounds - before
        assert used <= 2 * network.config.log_rounds(network.n) + 2

    def test_broadcast_value(self, network):
        # The returned value is what every node knows after ⌈log2 n⌉ rounds.
        assert broadcast_value(network, "payload", source=4, phase="test-broadcast") == "payload"
        assert network.metrics.global_rounds == math.ceil(math.log2(network.n))

    def test_aggregation_respects_send_cap(self, network):
        aggregate_sum(network, {node: 1.0 for node in range(network.n)})
        assert network.metrics.max_sent_per_round <= network.send_cap

    @pytest.mark.parametrize(
        "n, expected_rounds",
        [(7, 5), (8, 6), (9, 7)],  # ⌊log2 n⌋ convergecast + ⌈log2 n⌉ broadcast
    )
    def test_aggregate_sum_exact_round_counts(self, n, expected_rounds):
        """Regression: the convergecast starts at the deepest *occupied* tree
        level ⌊log2 n⌋; the old ⌈log2(n+1)⌉ iterated an empty level first and
        charged a spurious global round for every n."""
        network = HybridNetwork(generators.path_graph(n), ModelConfig(rng_seed=1))
        total = aggregate_sum(network, {node: 1.0 for node in range(n)})
        assert total == pytest.approx(n)
        assert network.metrics.global_rounds == expected_rounds
        assert network.metrics.local_rounds == 0

    def test_single_node_charges_no_rounds(self):
        """Regression: at n = 1 aggregation/broadcast must not send the node a
        global message to itself or charge any round."""
        network = HybridNetwork(generators.path_graph(1), ModelConfig(rng_seed=1))
        assert aggregate_max(network, {0: 3.0}) == 3.0
        assert broadcast_value(network, "payload") == "payload"
        assert aggregate_sum(network, {0: 2.5}) == pytest.approx(2.5)
        assert network.metrics.total_rounds == 0
        assert network.metrics.global_messages == 0


class TestTokenDissemination:
    def test_all_tokens_returned(self, network):
        tokens = {node: [("t", node, i) for i in range(3)] for node in range(0, network.n, 4)}
        result = disseminate_tokens(network, tokens)
        expected = {token for items in tokens.values() for token in items}
        assert set(result.tokens) == expected
        assert result.token_count == len(expected)

    def test_empty_dissemination(self, network):
        result = disseminate_tokens(network, {})
        assert result.tokens == []
        assert result.rounds >= 0

    def test_duplicate_tokens_counted_once(self, network):
        result = disseminate_tokens(network, {0: ["dup"], 1: ["dup"], 2: ["other"]})
        assert result.token_count == 2

    def test_rounds_grow_sublinearly_in_token_count(self, ring_network):
        # Õ(√k): quadrupling k should far less than quadruple the rounds.
        few = HybridNetwork(ring_network.graph, ModelConfig(rng_seed=3))
        many = HybridNetwork(ring_network.graph, ModelConfig(rng_seed=3))
        small = disseminate_tokens(few, {n: [("s", n, i) for i in range(2)] for n in range(30)})
        large = disseminate_tokens(many, {n: [("s", n, i) for i in range(8)] for n in range(30)})
        assert large.token_count == 4 * small.token_count
        assert large.rounds < 4 * small.rounds

    def test_send_cap_respected(self, network):
        tokens = {0: [("bulk", i) for i in range(40)]}
        disseminate_tokens(network, tokens)
        assert network.metrics.max_sent_per_round <= network.send_cap

    def test_huge_integer_tokens_use_digest_fallback(self, network):
        """Integer tokens outside int64 must take the digest path, not crash."""
        result = disseminate_tokens(network, {0: [2**63, -(2**70), 5]})
        assert result.token_count == 3

    def test_rounds_invariant_under_holder_insertion_order(self):
        """Regression: relay placement hashes a canonical per-token key, so
        permuting the ``tokens_per_node`` dict insertion order must not move
        any relay and the measured rounds stay identical."""
        graph = generators.cycle_graph(30)
        tokens = {node: [("tok", node, i) for i in range(2)] for node in range(30)}
        forward = HybridNetwork(graph, ModelConfig(rng_seed=3))
        forward_result = disseminate_tokens(forward, tokens)
        reversed_tokens = {node: tokens[node] for node in reversed(list(tokens))}
        backward = HybridNetwork(graph, ModelConfig(rng_seed=3))
        backward_result = disseminate_tokens(backward, reversed_tokens)
        assert forward_result.rounds == backward_result.rounds
        assert forward.metrics.as_dict() == backward.metrics.as_dict()
        assert set(forward_result.tokens) == set(backward_result.tokens)


def metrics_pin(metrics):
    """Every ``RoundMetrics.as_dict`` counter plus a digest of the phase breakdown."""
    phases = sorted((name, b.local_rounds, b.global_rounds) for name, b in metrics.phases.items())
    return (*metrics.as_dict().values(), len(phases), zlib.crc32(repr(phases).encode()))


#: Token placements on ``cycle_graph(100)``: one token (33 clusters, one
#: occupied relay), about √n tokens (14 clusters for 10 occupied relays) and
#: four tokens per node (2 clusters; relays hold several tokens each).
PLACEMENTS = {
    "one": {5: [("t", 5, 0)]},
    "sqrt-n": {node: [("t", node, 0)] for node in range(0, 100, 10)},
    "four-per-node": {node: [("t", node, i) for i in range(4)] for node in range(100)},
}

FAULTS = {
    "ideal": None,
    "faulty": FaultModel(drop_rate=0.05, seed=3),
    "bursty": FaultModel(drop_rate=0.05, burst_rate=0.05, burst_length=3, seed=5),
}


class TestColumnTrafficPins:
    """Rounds and the full ``RoundMetrics`` of the protocols that ship int64
    payload columns, recorded when they still shipped token objects and
    per-message tuples.  The columns must not move a round, message or phase.
    """

    @pytest.mark.parametrize(
        "placement, faults, expected",
        [
            ("one", "ideal", (45, 24, 21, 293, 18752, 7, 27, 0, 0, 0, 7, 2425551318)),
            ("sqrt-n", "ideal", (79, 62, 17, 516, 33024, 7, 14, 0, 0, 0, 7, 1749597940)),
            (
                "four-per-node",
                "ideal",
                (168, 150, 18, 1624, 103936, 7, 13, 0, 0, 0, 7, 3212422003),
            ),
            ("one", "faulty", (69, 24, 45, 449, 28736, 7, 27, 0, 18, 10, 13, 2310739542)),
            ("sqrt-n", "faulty", (107, 62, 45, 940, 60160, 7, 14, 0, 46, 38, 15, 70754737)),
            (
                "four-per-node",
                "faulty",
                (205, 150, 55, 3329, 213056, 7, 13, 0, 163, 155, 15, 2001055662),
            ),
            ("one", "bursty", (81, 24, 57, 626, 40064, 7, 27, 0, 192, 129, 15, 2979760087)),
            ("sqrt-n", "bursty", (116, 62, 54, 1124, 71936, 7, 14, 0, 235, 172, 15, 650121685)),
            (
                "four-per-node",
                "bursty",
                (210, 150, 60, 4276, 273664, 7, 13, 0, 1118, 1055, 15, 474189181),
            ),
        ],
    )
    def test_dissemination(self, placement, faults, expected):
        network = HybridNetwork(
            generators.cycle_graph(100), ModelConfig(rng_seed=4, faults=FAULTS[faults])
        )
        result = disseminate_tokens(network, PLACEMENTS[placement])
        assert result.rounds == expected[0]
        assert metrics_pin(network.metrics) == expected

    @pytest.mark.parametrize(
        "faults, expected_ncc, expected_broadcast",
        [
            (
                "ideal",
                (38, 0, 38, 317, 20288, 6, 24, 0, 0, 0, 2, 2416178287),
                (6, 0, 6, 63, 4032, 1, 1, 0, 0, 0, 1, 245597208),
            ),
            (
                "faulty",
                (38, 0, 38, 317, 20288, 6, 24, 0, 15, 0, 2, 2416178287),
                (6, 0, 6, 56, 3584, 1, 1, 0, 2, 0, 1, 245597208),
            ),
        ],
    )
    def test_ncc_only_and_broadcast(self, faults, expected_ncc, expected_broadcast):
        graph = generators.connected_workload(64, RandomSource(11), weighted=True, max_weight=5)
        config = ModelConfig(rng_seed=4, faults=FAULTS[faults])
        network = HybridNetwork(graph, config)
        result = ncc_only_shortest_paths(network, [0, 17, 40])
        assert result.rounds == expected_ncc[0]
        assert metrics_pin(network.metrics) == expected_ncc
        truth = reference.multi_source_distances(graph, [0, 17, 40])
        assert all(
            result.distances[node][source] == distance
            for source, distances in truth.items()
            for node, distance in distances.items()
        )
        network = HybridNetwork(graph, config)
        assert broadcast_value(network, 7.5, source=9) == 7.5
        assert metrics_pin(network.metrics) == expected_broadcast

    @pytest.mark.parametrize(
        "aggregate, faults, expected",
        [
            (
                "max",
                "ideal",
                (30.0, (7, 0, 7, 601, 38464, 1, 1, 0, 0, 0, 1, 504145680), 12544, 4009377659),
            ),
            (
                "max",
                "faulty",
                (30.0, (7, 0, 7, 593, 37952, 1, 1, 0, 31, 0, 1, 504145680), 11968, 1088188633),
            ),
            (
                "sum",
                "ideal",
                (497.0, (13, 0, 13, 226, 14464, 1, 2, 0, 0, 0, 1, 1000738799), 8192, 857387663),
            ),
            (
                "sum",
                "faulty",
                (497.0, (27, 0, 27, 313, 20032, 2, 2, 0, 16, 8, 3, 1519824018), 9152, 329267379),
            ),
            (
                "max",
                "bursty",
                (30.0, (7, 0, 7, 477, 30528, 1, 1, 0, 209, 0, 1, 504145680), 9152, 2543035312),
            ),
            (
                "sum",
                "bursty",
                (497.0, (34, 0, 34, 485, 31040, 2, 2, 0, 186, 123, 3, 906585376), 7424, 1196327635),
            ),
        ],
    )
    def test_aggregation_under_a_cut(self, aggregate, faults, expected):
        """Ring doubling under drops, the reliable convergecast, cut bits and
        every node's receive total."""
        network = HybridNetwork(
            generators.cycle_graph(100), ModelConfig(rng_seed=4, faults=FAULTS[faults])
        )
        network.add_cut_watcher("left", range(37))
        values = {node: float((7 * node) % 31) for node in range(0, 100, 3)}
        result = {"max": aggregate_max, "sum": aggregate_sum}[aggregate](network, values)
        totals = np.ascontiguousarray(network.received_totals, dtype="<i8").tobytes()
        pinned = (result, metrics_pin(network.metrics), network.metrics.cut_bits["left"])
        assert (*pinned, zlib.crc32(totals)) == expected

    @pytest.mark.parametrize("faults", sorted(FAULTS))
    def test_dissemination_ships_only_int64_columns(self, faults, monkeypatch):
        shipped = {}
        exchange = HybridNetwork.run_reliable_exchange
        account = HybridNetwork.account
        counted = []

        def spy(network, senders, targets, phase="global", schedule=None):
            shipped[phase] = senders, targets
            return exchange(network, senders, targets, phase, schedule=schedule)

        def spy_account(network, schedule, senders, targets, phase="global"):
            # The ":count" aggregation is one account call on the ideal
            # model; under faults its levels and rounds are sent one by one.
            if phase == "tokens:count":
                counted.append((senders, targets))
            return account(network, schedule, senders, targets, phase)

        monkeypatch.setattr(HybridNetwork, "run_reliable_exchange", spy)
        monkeypatch.setattr(HybridNetwork, "account", spy_account)
        network = HybridNetwork(
            generators.cycle_graph(100), ModelConfig(rng_seed=4, faults=FAULTS[faults])
        )
        disseminate_tokens(network, PLACEMENTS["four-per-node"], phase="tokens")
        # Faulty: the first attempt of each of the ⌊log2 100⌋ = 6 levels and
        # the ⌈log2 100⌉ = 7 doubling rounds.
        assert len(counted) == (1 if faults == "ideal" else 6 + 7)
        columns = [column for pair in counted for column in pair]
        for name in ("tokens:relay", "tokens:requests", "tokens:responses"):
            columns.extend(shipped[name])
        for column in columns:
            assert isinstance(column, np.ndarray)
            assert column.dtype == np.int64
        # Every holder sends its four tokens to their relays ...
        holders, relays = shipped["tokens:relay"]
        assert holders.tolist() == [node for node in range(100) for _ in range(4)]
        # ... and every cluster fetches each relay's holding once.
        responders = shipped["tokens:responses"][0]
        clusters = responders.size // 400
        assert clusters >= 1 and responders.size == 400 * clusters
        held = np.bincount(relays, minlength=100)
        assert np.bincount(responders, minlength=100).tolist() == (clusters * held).tolist()
