"""The 2-party simulation argument and its information accounting (Lemma 7.3, Theorem 1.6).

Theorem 1.6 is proved by a reduction: Alice (holding ``a``) and Bob (holding
``b``) jointly simulate a HYBRID algorithm on ``Γ^{a,b}_{k,ℓ,W}``.  Alice
simulates the columns close to the ``V`` side, Bob the columns close to the
``U`` side, and their simulated node sets shrink towards their own side by one
column per round, so for ``⌊ℓ/2⌋`` rounds every node is simulated by at least
one party and no *local* message ever needs to be communicated between the
parties (Lemma 7.3).  Consequently the only inter-party communication is the
global-mode traffic crossing the cut, which is at most ``O(n log² n)`` bits per
round -- while solving set disjointness requires ``Ω(k²)`` bits.  Choosing
``ℓ ∈ Θ((n/log² n)^{1/3})`` and ``k ∈ Θ̃(n^{2/3})`` yields the
``Ω̃(n^{1/3})`` round lower bound.

This module provides

* the parameter choices and the implied lower-bound value,
* a measurement harness that runs an actual HYBRID diameter computation on a
  gadget with a cut watcher installed and reports the global bits that crossed
  the Alice/Bob cut per round, and
* a verification that the column partition satisfies the structural property
  of Lemma 7.3 (no local edge jumps from Alice's exclusive region into Bob's
  next-round region).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from repro.hybrid.config import MESSAGE_BITS, ModelConfig
from repro.hybrid.network import HybridNetwork
from repro.lower_bounds.diameter_gadget import GammaGadget


@dataclass
class LowerBoundParameters:
    """The parameter choices of Theorem 1.6 for an ``n``-node budget.

    ``k·ℓ ∈ Θ(n)`` with ``ℓ ∈ Θ((n / log² n)^{1/3})`` and
    ``k ∈ Θ((n log n)^{2/3} / ...)``; at simulation scale we simply solve
    ``(2k+1)·(ℓ-1) + 4k + 2 ≈ n`` for integers.
    """

    k: int
    path_hops: int
    weight: int
    node_count: int


def choose_parameters(target_nodes: int, weighted: bool = False) -> LowerBoundParameters:
    """Pick ``(k, ℓ, W)`` close to the Theorem 1.6 optimum for a node budget."""
    if target_nodes < 30:
        raise ValueError("the gadget needs at least ~30 nodes to be non-trivial")
    log_sq = max(1.0, math.log2(target_nodes) ** 2)
    path_hops = max(2, int(round((target_nodes / log_sq) ** (1.0 / 3.0))))
    # Solve (2k+1)(ℓ-1) + 4k + 2 <= target for k.
    k = max(2, (target_nodes - 2 - (path_hops - 1)) // (2 * (path_hops - 1) + 4))
    weight = (
        path_hops + 1
        if not weighted
        else max(path_hops + 1, int(round(target_nodes ** (1.0 / 3.0))))
    )
    interior = path_hops - 1
    node_count = 4 * k + 2 + (2 * k + 1) * interior
    return LowerBoundParameters(k=k, path_hops=path_hops, weight=weight, node_count=node_count)


def disjointness_bits_required(k: int) -> float:
    """The communication lower bound ``Ω(k²)`` bits for set disjointness.

    We report the leading term ``k²`` (the constant in Kalyanasundaram-
    Schnitger / Razborov is below 1; benchmarks only compare orders of
    magnitude).
    """
    return float(k * k)


def per_round_cut_capacity_bits(node_count: int, config: ModelConfig) -> float:
    """Global bits that can cross the Alice/Bob cut in one round.

    Every node can send at most ``send_cap`` messages of ``MESSAGE_BITS`` bits,
    so at most ``n · send_cap · MESSAGE_BITS`` bits cross any cut per round.
    """
    return float(node_count * config.send_cap(node_count) * MESSAGE_BITS)


def implied_round_lower_bound(gadget: GammaGadget, config: ModelConfig) -> float:
    """The Theorem 1.6 bound for this gadget: ``min(⌊ℓ/2⌋, k² / cut capacity)``."""
    capacity = per_round_cut_capacity_bits(gadget.node_count, config)
    information_bound = disjointness_bits_required(gadget.k) / capacity
    return min(gadget.path_hops // 2, information_bound)


def verify_simulation_partition(gadget: GammaGadget, rounds: int) -> bool:
    """Check the structural property behind Lemma 7.3 for ``rounds`` rounds.

    For every simulated round ``r`` (1-based), every local edge ``{x, y}`` with
    ``y`` simulated by Bob in round ``r+1`` must have ``x`` simulated by Bob in
    round ``r`` as well (and symmetrically for Alice), i.e. no local message
    ever has to cross between the parties.
    """
    graph = gadget.graph
    for r in range(rounds):
        alice_now = set(gadget.alice_nodes(r))
        bob_now = set(gadget.bob_nodes(r))
        alice_next = set(gadget.alice_nodes(r + 1))
        bob_next = set(gadget.bob_nodes(r + 1))
        for u, v, _ in graph.edges():
            for x, y in ((u, v), (v, u)):
                if y in bob_next and x not in bob_now:
                    return False
                if y in alice_next and x not in alice_now:
                    return False
    return True


@dataclass
class CutMeasurement:
    """Measured global traffic across the Alice/Bob cut for one algorithm run.

    Attributes
    ----------
    cut_bits:
        Global-mode bits that crossed the cut during the run.
    total_rounds:
        Rounds the algorithm took.
    implied_lower_bound:
        The Theorem 1.6 round lower bound for this gadget and model config.
    required_bits:
        The ``Ω(k²)`` bits a correct algorithm must move across the cut if it
        solves set disjointness through the diameter.
    """

    cut_bits: int
    total_rounds: int
    implied_lower_bound: float
    required_bits: float


def measure_cut_traffic(
    gadget: GammaGadget,
    config: ModelConfig,
    algorithm: Callable[[HybridNetwork], object],
    cut_name: str = "alice-bob",
) -> CutMeasurement:
    """Run a HYBRID algorithm on the gadget and account the cut-crossing bits.

    ``algorithm`` receives a freshly built :class:`HybridNetwork` over the
    gadget graph (with the Alice/Bob cut watcher installed) and may run any
    protocol; the measurement reports the bits its global messages moved across
    the cut and the rounds it took, next to the information-theoretic
    requirement.
    """
    network = HybridNetwork(gadget.graph, config)
    network.add_cut_watcher(cut_name, gadget.alice_nodes(0))
    algorithm(network)
    cut_bits = network.metrics.cut_bits.get(cut_name, 0)
    return CutMeasurement(
        cut_bits=cut_bits,
        total_rounds=network.metrics.total_rounds,
        implied_lower_bound=implied_round_lower_bound(gadget, config),
        required_bits=disjointness_bits_required(gadget.k),
    )
