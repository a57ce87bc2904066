"""E1 -- Token routing (Theorem 2.2): measured rounds vs the ``K/n + √k_S + √k_R`` bound.

Sweeps the per-sender token count on a fixed locality-heavy graph and reports,
per configuration, the measured HYBRID rounds next to the Theorem 2.2 shape.
"""

import pytest

from benchmarks.conftest import (
    attach,
    bench_network,
    locality_workload,
    run_once,
    smoke_scaled,
)
from repro.core.token_routing import (
    make_tokens,
    predicted_routing_rounds,
    route_tokens,
)
from repro.util.rand import RandomSource


def build_tokens(n, sender_count, tokens_per_sender, seed=3):
    rng = RandomSource(seed)
    senders = rng.sample(list(range(n)), sender_count)
    return make_tokens(
        {
            s: [(rng.randrange(n), ("payload", s, i)) for i in range(tokens_per_sender)]
            for s in senders
        }
    )


@pytest.mark.parametrize("tokens_per_sender", [2, 8, 32])
def test_token_routing_rounds_vs_workload(benchmark, tokens_per_sender):
    """Rounds as the per-sender workload k grows (fixed sender density)."""
    n = smoke_scaled(150, 24)
    sender_count = smoke_scaled(30, 6)
    graph = locality_workload(n, seed=1)
    tokens = build_tokens(n, sender_count=sender_count, tokens_per_sender=tokens_per_sender)

    def run():
        network = bench_network(graph, seed=tokens_per_sender)
        result = route_tokens(network, tokens)
        return network, result

    network, result = run_once(benchmark, run)
    attach(
        benchmark,
        {
            "experiment": "E1",
            "n": n,
            "tokens": len(tokens),
            "tokens_per_sender": tokens_per_sender,
            "measured_rounds": result.rounds,
            "theorem_2_2_shape": predicted_routing_rounds(
                n,
                sender_count,
                len(result.delivered),
                tokens_per_sender,
                sender_count * tokens_per_sender // n + 1,
            ),
            "max_received_per_round": network.metrics.max_received_per_round,
            "receive_cap": network.receive_cap,
        },
    )


@pytest.mark.parametrize("sender_count", [10, 40])
def test_token_routing_rounds_vs_sender_density(benchmark, sender_count):
    """Rounds as the sender set grows (fixed per-sender workload)."""
    n = smoke_scaled(150, 24)
    sender_count = min(sender_count, n // 3)
    graph = locality_workload(n, seed=2)
    tokens = build_tokens(n, sender_count=sender_count, tokens_per_sender=8, seed=5)

    def run():
        network = bench_network(graph, seed=sender_count)
        return route_tokens(network, tokens)

    result = run_once(benchmark, run)
    attach(
        benchmark,
        {
            "experiment": "E1",
            "n": n,
            "sender_count": sender_count,
            "measured_rounds": result.rounds,
            "mu_senders": result.mu_senders,
            "mu_receivers": result.mu_receivers,
        },
    )
