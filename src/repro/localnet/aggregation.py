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
int64 arrays); a node that receives a message is *informed*.  Only the round
count depends on the traffic: every receiver folds the partial aggregate its
sender holds, so the aggregate every node ends with is the fold of the
inputs themselves, and the simulation moves no values.  A single node
already knows every input, so ``n = 1`` never charges a round.

On a lossless plane (:attr:`HybridNetwork.lossless`) every message arrives,
so the informed set of each round is known before it is sent, and each
primitive sends all of its rounds as one exchange -- one
:meth:`HybridNetwork.account` call, each round still its own round.  The
traffic of ``aggregate_sum`` (tree levels, then doubling from node 0) is a
function of ``n`` alone, so its columns and schedule are built once per
network (:meth:`HybridNetwork.fixed_exchange`); ``broadcast_value`` shifts
the cached doubling from node 0 to its source.  Under an active global
fault model the fates feed back into the informed set, so the rounds are
sent one at a time and the tree levels as reliable exchanges (DESIGN.md §8).
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from typing import TypeVar

import numpy as _np

from repro.hybrid.network import ExchangeSchedule, HybridNetwork

T = TypeVar("T")


def _doubling_round_count(n: int) -> int:
    """``⌈log2 n⌉`` doubling rounds (none for a single node)."""
    return max(1, math.ceil(math.log2(n))) if n > 1 else 0


def _chain(exchanges: Iterable[tuple]) -> tuple:
    """``(senders, targets, schedule)`` exchanges sent one after another, as one."""
    exchanges = list(exchanges)
    senders = _np.concatenate([_np.arange(0)] + [exchange[0] for exchange in exchanges])
    targets = _np.concatenate([_np.arange(0)] + [exchange[1] for exchange in exchanges])
    senders.setflags(write=False)
    targets.setflags(write=False)
    return senders, targets, ExchangeSchedule.chain(exchange[2] for exchange in exchanges)


def _lossless_doubling(n: int, seeds) -> tuple:
    """Ring doubling from the informed ``seeds`` when every message arrives.

    Returns the rounds as one exchange: round ``i`` is one round of its own
    in which every informed node sends to the node ``2^i`` positions ahead,
    and all of those targets become informed.
    """
    if n < 2:
        return _chain(())
    informed = _np.zeros(n, dtype=bool)
    informed[seeds] = True
    rounds = []
    for i in range(_doubling_round_count(n)):
        senders = _np.flatnonzero(informed)
        targets = (senders + (1 << i)) % n
        informed[targets] = True
        rounds.append((senders, targets, ExchangeSchedule.single_round(senders.size)))
    return _chain(rounds)


def _ring_doubling(network: HybridNetwork, seeds, phase: str) -> None:
    """``⌈log2 n⌉`` doubling rounds from the informed ``seeds``.

    In round ``i`` every informed node sends one message to the node ``2^i``
    positions ahead, which becomes informed if the message arrives.  Targets
    are distinct (sender -> sender + step is a bijection mod n), so each
    receiver folds at most one message.
    """
    n = network.n
    if network.lossless:
        senders, targets, schedule = _lossless_doubling(n, seeds)
        network.account(schedule, senders, targets, phase)
        return
    if n < 2:
        return
    informed = _np.zeros(n, dtype=bool)
    informed[seeds] = True
    for i in range(_doubling_round_count(n)):
        senders = _np.flatnonzero(informed)
        targets = (senders + (1 << i)) % n
        informed[targets[network.global_round(senders, targets, phase)]] = True


def _doubling_from_zero(network: HybridNetwork) -> tuple:
    """The lossless doubling from node 0: round ``i`` sends offsets ``[0, 2^i)``."""
    return _lossless_doubling(network.n, [0])


def _convergecast_levels(network: HybridNetwork) -> tuple:
    """The convergecast's levels, deepest first, as (senders, targets, schedule).

    Level ``ℓ`` holds nodes ``[2^ℓ - 1, 2^{ℓ+1} - 1)``, each sending to its
    parent ``(i - 1) // 2``.  The levels are never empty (``2^ℓ - 1 < n``
    for every ``ℓ ≤ ⌊log2 n⌋``).  Each level has its own schedule, so a
    receive cap below 2 splits a level into two rounds.
    """
    n = network.n
    levels = []
    for level in range(int(math.log2(n)) if n > 1 else 0, 0, -1):
        senders = _np.arange((1 << level) - 1, min(n, (1 << (level + 1)) - 1))
        targets = (senders - 1) // 2
        senders.setflags(write=False)
        targets.setflags(write=False)
        levels.append((senders, targets, network.schedule_exchange(senders, targets)))
    return tuple(levels)


def _aggregation(network: HybridNetwork) -> tuple:
    """``aggregate_sum``'s whole lossless traffic: the levels, then the doubling from 0."""
    return _chain(
        (*network.fixed_exchange(_convergecast_levels), network.fixed_exchange(_doubling_from_zero))
    )


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
    ``O(log n)`` rounds and one message per node per round.

    The convergecast starts at the deepest *occupied* level
    ``⌊log2 n⌋`` (node ``i`` lives at level ``⌊log2(i+1)⌋``, so that is the
    level of node ``n-1``); every level down to the root is then non-empty
    and charges one global round (two if a parent's two messages exceed the
    receive cap) -- ``⌊log2 n⌋`` rounds in total at the default caps.  The
    broadcast is :func:`broadcast_value` from node 0.

    None of this depends on the values, so on a lossless plane the levels
    and the broadcast are one exchange, built once per network and charged
    with one :meth:`~HybridNetwork.account` call.  Under an active fault
    model a lost partial sum is unrecoverable (unlike the idempotent ring
    primitives, where every input keeps folding), so each level travels as
    a *reliable* exchange and dropped subtree totals retransmit -- the
    returned sum is exact or the exchange raises.
    """
    total = float(sum(values.values()))
    if network.lossless:
        senders, targets, schedule = network.fixed_exchange(_aggregation)
        network.account(schedule, senders, targets, phase)
        return total
    for senders, targets, schedule in network.fixed_exchange(_convergecast_levels):
        network.run_reliable_exchange(senders, targets, phase, schedule=schedule)
    _ring_doubling(network, [0], phase)
    return total


def broadcast_value(
    network: HybridNetwork, value: T, source: int = 0, phase: str = "broadcast"
) -> T:
    """The source makes one ``O(log n)``-bit value known to all nodes.

    Binomial-tree doubling over node IDs: the set of informed nodes doubles
    every round, so ``⌈log2 n⌉`` rounds suffice and each informed node sends a
    single message per round.  A single node is already informed and charges
    no rounds.  Every message carries the same value, so the traffic is the
    informed set's sender/target columns alone.  On a lossless plane round
    ``i`` informs offsets ``[0, 2^{i+1})`` from the source, so the traffic is
    the network's cached doubling from node 0 shifted by ``source``.
    """
    n = network.n
    if not 0 <= source < n:
        raise ValueError(f"source {source} outside the network")
    if not network.lossless:
        _ring_doubling(network, [source], phase)
        return value
    senders, targets, schedule = network.fixed_exchange(_doubling_from_zero)
    if source:
        senders = (senders + source) % n
        targets = (targets + source) % n
    network.account(schedule, senders, targets, phase)
    return value
