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

All message traffic is two sender/target columns (``np.arange``-shifted
int64 arrays, one pair per round); the engine returns the delivered
positions, and a node that receives a message is *informed*.  Only the round
count depends on the traffic: every receiver folds the partial aggregate its
sender holds, so the aggregate every node ends with is the fold of the
inputs themselves, and the simulation moves no values.  A single node
already knows every input, so ``n = 1`` never charges a round.
"""

from __future__ import annotations

import math
from typing import TypeVar

import numpy as _np

from repro.hybrid.network import HybridNetwork

T = TypeVar("T")


def _ring_doubling(network: HybridNetwork, seeds, phase: str) -> None:
    """``⌈log2 n⌉`` doubling rounds from the informed ``seeds``.

    In round ``i`` every informed node sends one message to the node ``2^i``
    positions ahead, which becomes informed if the message arrives.  Targets
    are distinct (sender -> sender + step is a bijection mod n), so each
    receiver folds at most one message.
    """
    n = network.n
    if n < 2:
        return
    informed = _np.zeros(n, dtype=bool)
    informed[seeds] = True
    for i in range(max(1, math.ceil(math.log2(n)))):
        senders = _np.flatnonzero(informed)
        targets = (senders + (1 << i)) % n
        informed[targets[network.global_round(senders, targets, phase)]] = True


def aggregate_max(
    network: HybridNetwork, values: dict[int, float], phase: str = "aggregation-max"
) -> float | None:
    """All nodes learn ``max(values)`` in ``O(log n)`` global rounds.

    Ring doubling seeded at the input holders, each message carrying its
    sender's partial maximum.  Returns ``None`` when ``values`` is empty (no
    round is charged).
    """
    if not values:
        return None
    _ring_doubling(network, list(values), phase)
    return max(values.values())


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
    for senders, targets, schedule in _convergecast_levels(network):
        network.run_reliable_exchange(senders, targets, phase, schedule=schedule)
    total = float(sum(values.values()))
    broadcast_value(network, total, source=0, phase=phase)
    return total


def _convergecast_levels(network: HybridNetwork):
    """The convergecast's levels, deepest first, as (senders, targets, schedule).

    Level ``ℓ`` holds nodes ``[2^ℓ - 1, 2^{ℓ+1} - 1)``, each sending to its
    parent ``(i - 1) // 2``.  The levels are never empty (``2^ℓ - 1 < n``
    for every ``ℓ ≤ ⌊log2 n⌋``).  The columns are a function of ``n`` and
    their schedules of the network's caps, so both are built once per
    network (:attr:`HybridNetwork.convergecast_levels`).
    """
    if network.convergecast_levels is None:
        n = network.n
        levels = []
        for level in range(int(math.log2(n)) if n > 1 else 0, 0, -1):
            senders = _np.arange((1 << level) - 1, min(n, (1 << (level + 1)) - 1))
            targets = (senders - 1) // 2
            senders.setflags(write=False)
            targets.setflags(write=False)
            levels.append((senders, targets, network.schedule_exchange(senders, targets)))
        network.convergecast_levels = tuple(levels)
    return network.convergecast_levels


def broadcast_value(
    network: HybridNetwork, value: T, source: int = 0, phase: str = "broadcast"
) -> T:
    """The source makes one ``O(log n)``-bit value known to all nodes.

    Binomial-tree doubling over node IDs: the set of informed nodes doubles
    every round, so ``⌈log2 n⌉`` rounds suffice and each informed node sends a
    single message per round.  A single node is already informed and charges
    no rounds.  Every message carries the same value, so the traffic is the
    informed set's sender/target columns alone.
    """
    _ring_doubling(network, [source], phase)
    return value
