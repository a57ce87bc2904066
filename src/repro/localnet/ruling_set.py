"""Ruling sets (Definition 2.3 / Lemma 2.1).

A ``(α, β)``-ruling set is a set ``R ⊆ V`` such that rulers are pairwise at
hop distance at least ``α`` and every node has a ruler within ``β`` hops.  The
paper uses a ``(2µ+1, 2µ⌈log n⌉)``-ruling set, computable in ``O(µ log n)``
rounds in the CONGEST model (Lemma 2.1, citing Kuhn-Maus-Weidner / Awerbuch et
al.), as the backbone of the helper-set construction (Algorithm 1).

Our construction is the greedy maximal independent set of the ``2µ``-power
graph, processed in increasing node-ID order
(:meth:`~repro.graphs.graph.WeightedGraph.ruler_clustering`, cached per
hop topology and ``µ``).  Its output is a ``(2µ+1, 2µ)``-ruling set --
strictly stronger than required -- and only the output properties plus the
charged ``O(µ log n)`` rounds are used downstream (see the substitution
table in DESIGN.md).
"""

from __future__ import annotations

import numpy as np

from repro.hybrid.network import HybridNetwork


def compute_ruling_set(network: HybridNetwork, mu: int, phase: str = "ruling-set") -> np.ndarray:
    """A ``(2µ+1, 2µ⌈log n⌉)``-ruling set of the local graph, ascending and read-only.

    Charges ``O(µ log n)`` local rounds (Lemma 2.1) on every call.  ``µ``
    must be positive; ``µ = 1`` degenerates to an ordinary maximal
    independent set of the square graph.
    """
    if mu < 1:
        raise ValueError("mu must be at least 1")
    rulers = network.graph.ruler_clustering(2 * mu).rulers
    network.charge_local_rounds(max(1, 2 * mu * network.config.log_rounds(network.n)), phase)
    return rulers
