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
edge positions), the same message format the HYBRID engine runs on.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

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
        self,
        transport: CliqueTransport,
        incident_edges: Sequence[dict[int, int]],
        sources: Sequence[int],
    ) -> list[dict[int, float]]:
        """Execute the algorithm.

        Parameters
        ----------
        transport:
            The CLIQUE round transport.
        incident_edges:
            Per node, its incident edges ``{neighbour: weight}`` -- the local
            input of the CLIQUE problem.
        sources:
            The source node indices.

        Returns
        -------
        list of dict
            ``result[v][s]`` is the node ``v``'s distance estimate to source
            ``s`` and must satisfy ``d(v,s) <= result[v][s] <= α d(v,s) + β``.
        """


class CliqueDiameterAlgorithm(ABC):
    """A CLIQUE algorithm computing an ``(α, β)``-approximation of the weighted diameter."""

    spec: CliqueAlgorithmSpec

    @abstractmethod
    def run(
        self,
        transport: CliqueTransport,
        incident_edges: Sequence[dict[int, int]],
    ) -> float:
        """Return a diameter estimate ``D̃`` with ``D <= D̃ <= α D + β``."""
