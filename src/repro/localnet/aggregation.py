"""Global-mode aggregation and broadcast (Lemma B.2, from Augustine et al. NCC'19).

The aggregation problem: a subset of nodes hold input values; all nodes must
learn ``f(values)`` for an aggregate distributive function ``f`` (max, min,
sum, ...).  Lemma B.2 states this takes ``O(log n)`` rounds in the NCC model.

We implement the classic recursive-doubling scheme on the node-ID ring: in
round ``i`` every node sends its current partial aggregate to the node
``2^i`` positions ahead.  After ``⌈log2 n⌉`` rounds every node has combined the
inputs of all ``n`` nodes.  Each node sends exactly one message per round, so
the send budget is never stressed.  A single-value broadcast uses the same
doubling pattern seeded at the source.

All message traffic is built as :class:`~repro.hybrid.batch.MessageBatch`
columns (``np.arange``-shifted sender/target arrays, one slice per round)
rather than per-node tuple loops; a single node already knows every input, so
``n = 1`` never charges a round.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import TypeVar

import numpy as _np

from repro.hybrid.batch import MessageBatch
from repro.hybrid.network import HybridNetwork

T = TypeVar("T")


def aggregate(
    network: HybridNetwork,
    values: dict[int, T],
    combine: Callable[[T, T], T],
    phase: str = "aggregation",
) -> T | None:
    """All nodes learn ``combine`` folded over ``values`` in ``O(log n)`` rounds.

    ``combine`` must be associative and commutative (max, min, +, set union...).
    Returns the aggregate (``None`` when ``values`` is empty), which after the
    protocol is known to every node.
    """
    if not values:
        return None
    n = network.n
    partial: list[T | None] = [None] * n
    for node, value in values.items():
        partial[node] = value

    if n > 1:
        for i in range(max(1, math.ceil(math.log2(n)))):
            step = 1 << i
            senders = [node for node in range(n) if partial[node] is not None]
            targets = [(node + step) % n for node in senders]
            batch = MessageBatch(senders, targets, [partial[node] for node in senders])
            delivered = network.global_round(batch, phase)
            # Ring-doubling targets are distinct (sender -> sender + step is a
            # bijection mod n), so each receiver folds at most one message.
            for receiver, payload in zip(delivered.targets, delivered.payloads, strict=True):
                receiver = int(receiver)
                if partial[receiver] is None:
                    partial[receiver] = payload
                else:
                    partial[receiver] = combine(partial[receiver], payload)

    # After ⌈log n⌉ doubling rounds on a ring every position has folded every
    # input at least once (values may be folded multiple times, which is why
    # combine must be idempotent-friendly for exact counts -- see aggregate_sum
    # for the sum case, which uses a tree instead).
    result = None
    for value in partial:
        if value is None:
            continue
        result = value if result is None else combine(result, value)
    # Make the aggregate part of every node's knowledge.
    for node in range(n):
        network.state(node)["aggregate:" + phase] = result
    return result


def aggregate_max(
    network: HybridNetwork, values: dict[int, float], phase: str = "aggregation-max"
) -> float | None:
    """All nodes learn ``max(values)`` in ``O(log n)`` global rounds."""
    return aggregate(network, values, max, phase)


def aggregate_min(
    network: HybridNetwork, values: dict[int, float], phase: str = "aggregation-min"
) -> float | None:
    """All nodes learn ``min(values)`` in ``O(log n)`` global rounds."""
    return aggregate(network, values, min, phase)


def aggregate_sum(
    network: HybridNetwork, values: dict[int, float], phase: str = "aggregation-sum"
) -> float:
    """All nodes learn ``sum(values)`` in ``O(log n)`` global rounds.

    Sums are not idempotent, so instead of ring doubling we aggregate up an
    implicit binary tree over node IDs (child ``2i+1, 2i+2`` -> parent ``i``)
    and then broadcast the root's total back down; both directions take
    ``O(log n)`` rounds and one message per node per round.  Because a lost
    partial sum is unrecoverable (unlike the idempotent ring primitives,
    where every input keeps folding), the convergecast levels travel as
    *reliable* exchanges: on the ideal model that is exactly one global
    round per level, under an active fault model dropped subtree totals
    retransmit -- so the returned sum is exact or the exchange raises.

    The convergecast starts at the deepest *occupied* level
    ``⌊log2 n⌋`` (node ``i`` lives at level ``⌊log2(i+1)⌋``, so that is the
    level of node ``n-1``); every level down to the root is then non-empty
    and charges exactly one global round -- ``⌊log2 n⌋`` rounds in total.
    """
    n = network.n
    totals = [0.0] * n
    for node, value in values.items():
        totals[node] += value
    # Convergecast: deepest occupied level first.  (Levels are never empty:
    # level ℓ holds nodes [2^ℓ - 1, 2^{ℓ+1} - 1) and 2^ℓ - 1 < n for every
    # ℓ ≤ ⌊log2 n⌋.)
    depth = int(math.log2(n)) if n > 1 else 0
    for level in range(depth, 0, -1):
        low = (1 << level) - 1
        high = min(n, (1 << (level + 1)) - 1)
        senders = _np.arange(low, high, dtype=_np.int64)
        targets = (senders - 1) // 2
        payloads = [totals[node] for node in range(low, high)]
        delivered, _ = network.run_reliable_exchange(
            MessageBatch(senders, targets, payloads), phase
        )
        for parent, value in zip(delivered.targets, delivered.payloads, strict=True):
            totals[int(parent)] += value
    total = totals[0]
    broadcast_value(network, total, source=0, phase=phase)
    for node in range(n):
        network.state(node)["aggregate:" + phase] = total
    return total


def broadcast_value(
    network: HybridNetwork, value: T, source: int = 0, phase: str = "broadcast"
) -> T:
    """The source makes one ``O(log n)``-bit value known to all nodes.

    Binomial-tree doubling over node IDs: the set of informed nodes doubles
    every round, so ``⌈log2 n⌉`` rounds suffice and each informed node sends a
    single message per round.  A single node is already informed and charges
    no rounds.
    """
    n = network.n
    if n > 1:
        informed = {source}
        for i in range(max(1, math.ceil(math.log2(n)))):
            step = 1 << i
            senders = sorted(informed)
            targets = [(node + step) % n for node in senders]
            delivered = network.global_round(
                MessageBatch(senders, targets, [value] * len(senders)), phase
            )
            informed.update(int(target) for target in delivered.targets)
    for node in range(n):
        network.state(node)["broadcast:" + phase] = value
    return value
