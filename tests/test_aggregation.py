"""The one-exchange aggregation primitives against a per-round reference.

On a lossless plane ``aggregate_sum``, ``aggregate_max`` and
``broadcast_value`` send all of their rounds as one exchange (one
``HybridNetwork.account`` call).  The reference below runs the same
protocols round by round -- every tree level an exchange of its own, every
doubling round a ``global_round`` -- on the message-by-message
:class:`ScalarPlaneNetwork`, and every counter must come out the same: all
``RoundMetrics`` fields, the phases, the cut bits and every node's receive
total.  The contested configuration (receive cap 1) splits each tree level
into two rounds.
"""

import random

import numpy as np
import pytest
from scalar_plane import ScalarPlaneNetwork

from repro.graphs import generators
from repro.hybrid import FaultModel, HybridNetwork, ModelConfig
from repro.localnet import aggregate_max, aggregate_sum, broadcast_value

SIZES = [1, 2, 3, 5, 63, 64, 65, 100, 1024]
CONFIGS = {
    "default": ModelConfig(rng_seed=4),
    "contested": ModelConfig(rng_seed=4, global_receive_factor=0.01),
}


def sources(n):
    """Nodes 0, 1 and n - 1, and one random node."""
    return sorted({0, 1 % n, n - 1, random.Random(n).randrange(n)})


def reference_doubling(network, seeds, phase):
    """Ring doubling, one ``global_round`` per round."""
    n = network.n
    informed = np.zeros(n, dtype=bool)
    informed[list(seeds)] = True
    for i in range((n - 1).bit_length() if n > 1 else 0):
        senders = np.flatnonzero(informed)
        targets = (senders + (1 << i)) % n
        informed[targets[network.global_round(senders, targets, phase)]] = True


def reference_sum(network, phase):
    """Tree convergecast, one exchange per level (deepest first), then doubling from 0."""
    n = network.n
    depth = {node: (node + 1).bit_length() - 1 for node in range(1, n)}
    for level in sorted(set(depth.values()), reverse=True):
        senders = np.array([node for node in range(1, n) if depth[node] == level])
        network.run_global_exchange(senders, (senders - 1) // 2, phase)
    reference_doubling(network, [0], phase)


def networks(n, config):
    """A fused network and a reference one, each watching the same cut."""
    pair = []
    for plane in (HybridNetwork, ScalarPlaneNetwork):
        network = plane(generators.path_graph(n), CONFIGS[config])
        network.add_cut_watcher("left", range(n // 3 + 1))
        pair.append(network)
    return pair


@pytest.fixture
def accounts(monkeypatch):
    """The phases of every ``HybridNetwork.account`` call."""
    calls = []
    original = HybridNetwork.account

    def counted(network, schedule, senders, targets, phase="global"):
        calls.append(phase)
        return original(network, schedule, senders, targets, phase)

    monkeypatch.setattr(HybridNetwork, "account", counted)
    return calls


def assert_same_traffic(fused, reference):
    assert fused.metrics == reference.metrics
    assert fused.metrics.as_dict() == reference.metrics.as_dict()
    assert dict(fused.metrics.phases) == dict(reference.metrics.phases)
    assert fused.metrics.cut_bits == reference.metrics.cut_bits
    assert np.array_equal(fused.received_totals, reference.received_totals)


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("n", SIZES)
class TestOneExchangePrimitives:
    def test_aggregate_sum(self, n, config, accounts):
        fused, reference = networks(n, config)
        values = {node: float(node % 7) for node in range(0, n, 3)}
        assert aggregate_sum(fused, values, phase="sum") == float(sum(values.values()))
        assert accounts == ["sum"]
        reference_sum(reference, "sum")
        assert_same_traffic(fused, reference)

    def test_aggregate_sum_twice_reuses_its_exchange(self, n, config, accounts, monkeypatch):
        fused, reference = networks(n, config)
        aggregate_sum(fused, {0: 1.0}, phase="sum")
        scheduled = []
        monkeypatch.setattr(HybridNetwork, "schedule_exchange", lambda *args: scheduled.append(1))
        aggregate_sum(fused, {0: 1.0}, phase="sum")
        assert not scheduled
        assert accounts == ["sum", "sum"]
        reference_sum(reference, "sum")
        reference_sum(reference, "sum")
        assert_same_traffic(fused, reference)

    def test_broadcast_value(self, n, config, accounts):
        for source in sources(n):
            fused, reference = networks(n, config)
            accounts.clear()
            assert broadcast_value(fused, "v", source=source, phase="bcast") == "v"
            assert accounts == ["bcast"]
            reference_doubling(reference, [source], "bcast")
            assert_same_traffic(fused, reference)

    def test_aggregate_max(self, n, config, accounts):
        holders = random.Random(n + 1).sample(range(n), max(1, n // 5))
        for seeds in [[source] for source in sources(n)] + [holders]:
            fused, reference = networks(n, config)
            accounts.clear()
            values = {node: float(node) for node in seeds}
            assert aggregate_max(fused, values, phase="max") == max(values.values())
            assert accounts == ["max"]
            reference_doubling(reference, seeds, "max")
            assert_same_traffic(fused, reference)


def test_broadcast_rejects_a_source_outside_the_network():
    network = HybridNetwork(generators.path_graph(5), ModelConfig())
    for source in (-1, 5):
        with pytest.raises(ValueError, match="outside the network"):
            broadcast_value(network, 1.0, source=source)
    assert network.metrics.total_rounds == 0


def test_faulty_plane_sends_round_by_round(accounts):
    # Under drops the fates feed back into the informed set: every doubling
    # round is its own exchange, so a 100-node broadcast makes 7 calls.
    network = HybridNetwork(
        generators.path_graph(100), ModelConfig(faults=FaultModel(drop_rate=0.05, seed=3))
    )
    assert not network.lossless
    broadcast_value(network, 1.0, source=9, phase="bcast")
    assert accounts == ["bcast"] * 7
