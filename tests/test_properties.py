"""Property-based tests (hypothesis) for core data structures and invariants."""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import fit_power_law
from repro.core.helper_sets import helper_parameter
from repro.core.skeleton import framework_exponent, framework_sampling_probability
from repro.core.token_routing import make_tokens
from repro.graphs import generators
from repro.hybrid import HybridNetwork, MessageBatch, ModelConfig
from repro.util.hashing import KWiseHashFamily
from repro.util.rand import RandomSource, split_evenly

common_settings = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# --------------------------------------------------------------------------- graphs
@st.composite
def random_graph(draw):
    n = draw(st.integers(min_value=2, max_value=25))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    max_weight = draw(st.sampled_from([1, 5, 12]))
    rng = RandomSource(seed)
    return generators.random_connected_graph(n, 3.0, rng, max_weight=max_weight)


@common_settings
@given(random_graph())
def test_dijkstra_satisfies_triangle_inequality(graph):
    source = 0
    distances = graph.dijkstra(source)
    for u, v, w in graph.edges():
        if u in distances and v in distances:
            assert distances[v] <= distances[u] + w + 1e-9
            assert distances[u] <= distances[v] + w + 1e-9


@common_settings
@given(random_graph())
def test_hop_limited_distances_monotone_in_hops(graph):
    limited_small = graph.hop_limited_distances(0, 2)
    limited_large = graph.hop_limited_distances(0, 5)
    for node, value in limited_small.items():
        assert limited_large.get(node, math.inf) <= value + 1e-9


@common_settings
@given(random_graph())
def test_fast_hop_bounded_distances_upper_bound_dijkstra(graph):
    exact = graph.dijkstra(0)
    fast = graph.shortest_distances_within_hops(0, 4)
    for node, value in fast.items():
        assert value >= exact[node] - 1e-9


@common_settings
@given(random_graph())
def test_bfs_hops_bounded_by_node_count(graph):
    hops = graph.bfs_hops(0)
    assert all(0 <= h < graph.node_count for h in hops.values())


@common_settings
@given(random_graph(), st.integers(min_value=0, max_value=6))
def test_ball_grows_with_radius(graph, radius):
    smaller = set(graph.ball(0, radius))
    larger = set(graph.ball(0, radius + 1))
    assert smaller <= larger


# ----------------------------------------------------------------------- utilities
@common_settings
@given(st.lists(st.integers(), min_size=0, max_size=200), st.integers(min_value=1, max_value=20))
def test_split_evenly_is_balanced_partition(items, buckets):
    result = split_evenly(items, buckets)
    assert sum(len(b) for b in result) == len(items)
    sizes = [len(b) for b in result]
    assert max(sizes) - min(sizes) <= 1
    flattened = sorted(x for b in result for x in b)
    assert flattened == sorted(items)


@common_settings
@given(
    st.integers(min_value=1, max_value=10_000),
    st.integers(min_value=1, max_value=10_000),
    st.integers(min_value=0, max_value=10_000),
)
def test_helper_parameter_bounds(n, members, tokens):
    mu = helper_parameter(n, members, tokens)
    assert mu >= 1
    assert mu <= max(1, math.isqrt(max(tokens, 1)))
    assert mu <= max(1, n // members) if members > 0 else True


@common_settings
@given(st.floats(min_value=0.0, max_value=5.0, allow_nan=False))
def test_framework_exponent_in_unit_interval(delta):
    x = framework_exponent(delta)
    assert 0 < x <= 2.0 / 3.0 + 1e-12


@common_settings
@given(st.integers(min_value=2, max_value=10**6), st.floats(min_value=0.0, max_value=3.0))
def test_framework_sampling_probability_valid(n, delta):
    p = framework_sampling_probability(n, delta)
    assert 0 < p <= 1


@common_settings
@given(st.integers(min_value=2, max_value=64), st.integers(min_value=1, max_value=500))
def test_kwise_hash_stays_in_range(independence, output_range):
    function = KWiseHashFamily(independence, output_range).sample(RandomSource(7))
    for key in range(50):
        assert 0 <= function((key, key + 1)) < output_range


@common_settings
@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=20),
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=20), st.integers()),
            max_size=5,
        ),
        max_size=8,
    )
)
def test_make_tokens_labels_are_unique(assignments):
    tokens = make_tokens(assignments)
    labels = [t.label for t in tokens]
    assert len(labels) == len(set(labels))
    assert len(tokens) == sum(len(v) for v in assignments.values())


@common_settings
@given(
    st.floats(min_value=0.1, max_value=3.0),
    st.floats(min_value=0.5, max_value=50.0),
)
def test_power_law_fit_recovers_generated_exponent(exponent, coefficient):
    xs = [8, 16, 32, 64, 128]
    ys = [coefficient * x ** exponent for x in xs]
    fit = fit_power_law(xs, ys)
    assert abs(fit.exponent - exponent) < 1e-6


# ----------------------------------------------------------------- engine invariants
@common_settings
@given(st.integers(min_value=0, max_value=3000), st.integers(min_value=2, max_value=30))
def test_local_charge_never_exceeds_diameter_cap(rounds, n):
    graph = generators.path_graph(n)
    network = HybridNetwork(graph, ModelConfig())
    network.charge_local_rounds(rounds, "test")
    assert network.metrics.local_rounds <= min(rounds, n - 1)


@common_settings
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=19), st.integers(min_value=0, max_value=19)),
        min_size=0,
        max_size=120,
    )
)
def test_global_exchange_delivers_everything_within_caps(pairs):
    graph = generators.cycle_graph(20)
    network = HybridNetwork(graph, ModelConfig(rng_seed=1))
    outboxes = {}
    for index, (sender, target) in enumerate(pairs):
        outboxes.setdefault(sender, []).append((target, index))
    inbox, rounds = network.run_global_exchange(MessageBatch.from_outboxes(outboxes))
    delivered = sorted(inbox.payloads)
    assert delivered == sorted(range(len(pairs)))
    assert network.metrics.max_sent_per_round <= network.send_cap
    assert network.metrics.max_received_per_round <= network.receive_cap
