"""Diameter algorithms for the CLIQUE model (plugged into Theorem 5.1).

The paper uses the ``(3/2 + ε, W)``-approximation and the ``(1 + o(1))``
algebraic APSP of Censor-Hillel et al. on the skeleton.  Our substitutes (see
DESIGN.md):

* :class:`GatherDiameter` -- exact weighted diameter (``α = 1, β = 0, δ = 1``)
  by gathering the whole skeleton everywhere.
* :class:`EccentricityDiameter` -- a ``(2, 0)``-approximation from a single
  Bellman-Ford sweep: the eccentricity ``e(v)`` of any node satisfies
  ``D/2 <= e(v) <= D`` (footnote 6 of the paper), so ``2 e(v)`` is a one-sided
  2-approximation computed in ``SPD(S) + 1`` CLIQUE rounds.
"""

from __future__ import annotations

import numpy as _np
from scipy.sparse import csgraph

from repro.clique.apsp import _bellman_ford_phase, _gather_weights
from repro.clique.interfaces import (
    CliqueAlgorithmSpec,
    CliqueDiameterAlgorithm,
    CliqueTransport,
)


class GatherDiameter(CliqueDiameterAlgorithm):
    """Exact weighted diameter of the CLIQUE instance."""

    def __init__(self) -> None:
        self.spec = CliqueAlgorithmSpec(
            gamma=1.0, delta=1.0, eta=1.0, alpha=1.0, beta=0.0, name="gather-diameter"
        )

    def run(self, transport: CliqueTransport, weights: _np.ndarray) -> float:
        # ``inf`` marks a disconnected pair, so it is also the maximum then.
        return float(csgraph.dijkstra(_gather_weights(transport, weights)).max())


class EccentricityDiameter(CliqueDiameterAlgorithm):
    """A ``(2, 0)``-approximation via one eccentricity computation."""

    def __init__(self) -> None:
        self.spec = CliqueAlgorithmSpec(
            gamma=0.0, delta=1.0, eta=1.0, alpha=2.0, beta=0.0, name="eccentricity-diameter"
        )

    def run(self, transport: CliqueTransport, weights: _np.ndarray) -> float:
        return 2.0 * float(_bellman_ford_phase(transport, weights, source=0).max())
