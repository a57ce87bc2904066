"""Interfaces for CLIQUE-model algorithms plugged into Theorems 4.1 / 5.1.

The paper's framework (Section 4) takes *any* CLIQUE algorithm ``A`` that is
parameterised by

* ``γ`` -- it handles ``n^γ`` sources,
* ``δ, η`` -- its round complexity is ``T_A ∈ Õ(η · n^δ)``,
* ``α, β`` -- it returns ``(α, β)``-approximate distances,

and turns it into a HYBRID algorithm by simulating it on a skeleton graph.
The classes here define that contract.  Concrete algorithms live in
:mod:`repro.clique.apsp`, :mod:`repro.clique.sssp` and
:mod:`repro.clique.diameter`; the transports they run on are either the
standalone :class:`repro.clique.model.CliqueNetwork` (for unit testing the
algorithms in their native model) or the HYBRID-backed transport of
Corollary 4.1 (:mod:`repro.core.clique_simulation`).

A CLIQUE round travels as one :class:`~repro.hybrid.batch.MessageBatch`
whose senders and targets are CLIQUE indices and whose payload column the
algorithm chooses (the algorithms here ship float64 distances and int64
edge positions); the HYBRID-backed transport routes its labels and reads
the payloads back by position.

Input and output are dense arrays as well.  An algorithm receives the
instance as one symmetric ``size × size`` float64 weight matrix with ``inf``
where there is no edge (the diagonal included); row ``v`` is node ``v``'s
incident edges, the only part of it node ``v`` may read before the first
round.  A shortest-path algorithm returns a ``(size, len(sources))`` float64
array whose column ``j`` holds every node's estimate of its distance to
``sources[j]`` (``inf`` when unreachable); a diameter algorithm returns one
float.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro.hybrid.batch import MessageBatch


@runtime_checkable
class CliqueTransport(Protocol):
    """Message transport for one CLIQUE instance.

    ``size`` is the number of CLIQUE nodes (they are indexed ``0..size-1``).
    ``exchange`` executes exactly one CLIQUE round: every node may send up to
    ``size`` messages of ``O(log n)`` bits to arbitrary targets (Lenzen
    routing), and receives the messages addressed to it.
    """

    size: int

    def exchange(self, batch: MessageBatch) -> MessageBatch:
        """Run one CLIQUE round; return the delivered messages grouped per receiver.

        Message ``i`` of ``batch`` goes from ``senders[i]`` to
        ``targets[i]``; each sender's queue order is batch order.  A node
        sending or receiving more than ``size`` messages raises
        :class:`~repro.hybrid.errors.CapacityExceededError`, an index
        outside ``0..size-1`` :class:`ValueError`.
        """
        ...

    @property
    def rounds_used(self) -> int:
        """Number of CLIQUE rounds executed so far."""
        ...


@dataclass(frozen=True)
class CliqueAlgorithmSpec:
    """The ``(γ, δ, η, α, β)`` parameters of a CLIQUE algorithm (Theorem 4.1).

    ``exact`` is a convenience flag equivalent to ``α == 1 and β == 0``.
    """

    gamma: float
    delta: float
    eta: float
    alpha: float
    beta: float
    name: str = "clique-algorithm"

    @property
    def exact(self) -> bool:
        """Whether the algorithm computes exact distances."""
        return self.alpha == 1.0 and self.beta == 0.0

    def hybrid_exponent(self) -> float:
        """The resulting HYBRID runtime exponent ``1 - x`` with ``x = 2/(3+2δ)``."""
        x = 2.0 / (3.0 + 2.0 * self.delta)
        return 1.0 - x

    def hybrid_weighted_alpha(self) -> float:
        """The transformed multiplicative factor ``2α + 1`` on weighted graphs."""
        return 2.0 * self.alpha + 1.0

    def hybrid_unweighted_alpha(self) -> float:
        """The transformed multiplicative factor ``α + 2/η`` on unweighted graphs."""
        return self.alpha + 2.0 / self.eta


class CliqueShortestPathAlgorithm(ABC):
    """A CLIQUE algorithm computing (approximate) distances to a set of sources."""

    spec: CliqueAlgorithmSpec

    @abstractmethod
    def run(
        self, transport: CliqueTransport, weights: np.ndarray, sources: Sequence[int]
    ) -> np.ndarray:
        """Execute the algorithm.

        Parameters
        ----------
        transport:
            The CLIQUE round transport.
        weights:
            The symmetric ``size × size`` edge-weight matrix, ``inf`` where
            there is no edge; row ``v`` (node ``v``'s incident edges) is
            node ``v``'s local input.
        sources:
            The source node indices.

        Returns
        -------
        numpy.ndarray
            A ``(size, len(sources))`` float64 array: ``result[v, j]`` is node
            ``v``'s distance estimate to ``sources[j]`` and must satisfy
            ``d(v,s) <= result[v, j] <= α d(v,s) + β`` for ``s = sources[j]``.
        """


class CliqueDiameterAlgorithm(ABC):
    """A CLIQUE algorithm computing an ``(α, β)``-approximation of the weighted diameter."""

    spec: CliqueAlgorithmSpec

    @abstractmethod
    def run(self, transport: CliqueTransport, weights: np.ndarray) -> float:
        """Return a diameter estimate ``D̃`` with ``D <= D̃ <= α D + β``.

        ``weights`` is the instance's edge-weight matrix, as for
        :meth:`CliqueShortestPathAlgorithm.run`; ``inf`` is returned for a
        disconnected instance.
        """
