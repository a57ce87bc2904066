"""Configuration of the HYBRID model instance being simulated.

The paper parameterises hybrid networks by the local message size ``λ`` and
the per-node global budget ``γ`` (Section 1).  The combination studied is
LOCAL + NCC: ``λ = ∞`` and ``γ = O(log² n)`` bits, i.e. every node may send and
receive ``O(log n)`` messages of ``O(log n)`` bits per round over the global
network.  :class:`ModelConfig` pins down the constants hidden in those
``O(·)``'s for a concrete simulation, plus the skeleton's w.h.p. constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.hybrid.faults import FaultModel

#: Nominal size of one global message in bits (the ``O(log n)`` of the NCC
#: mode); only bit accounting reads it, as the engine moves no payloads.
MESSAGE_BITS = 64


@dataclass(frozen=True)
class ModelConfig:
    """Concrete constants for one simulated HYBRID network.

    Attributes
    ----------
    global_send_factor:
        Each node may send ``ceil(global_send_factor * log2 n)`` global
        messages per round (the ``O(log n)`` of the NCC mode).  A round over
        this budget raises
        :class:`~repro.hybrid.errors.CapacityExceededError`; batched helpers
        (``run_global_exchange``) always respect it.
    global_receive_factor:
        Each node should receive at most ``ceil(global_receive_factor *
        log2 n)`` global messages per round.  The paper only guarantees the
        receive bound w.h.p. (Lemma D.2): the exchange scheduler keeps every
        round within it, and a round that exceeds it (a single
        ``global_round``) is delivered and counted in
        ``receive_cap_violations``, never raised.
    skeleton_xi:
        The ``ξ`` constant in the skeleton hop length ``h = ξ x ln n``
        (Lemma C.1).  Asymptotically ``ξ ≥ 8c``; simulations at a few hundred
        nodes use a small value so that ``h << n`` and the skeleton machinery
        is actually exercised (see DESIGN.md, fidelity policy).
    faults:
        Optional :class:`~repro.hybrid.faults.FaultModel` describing an
        unreliable global plane (seeded i.i.d. and burst message drops; the
        LOCAL mode never fails).  ``None`` (the default) -- or a
        model whose :attr:`~repro.hybrid.faults.FaultModel.enabled` is False
        -- keeps the ideal engine paths, bit-identical to earlier releases
        (pinned by tests/test_faults.py).
    rng_seed:
        Root seed for all randomness of a simulation run.

    The three factors must be finite and positive (``ValueError`` names the
    field otherwise); the instance is frozen, so a later assignment cannot
    skip that check (``dataclasses.replace`` validates its copy).  The model's other rules are fixed: every local-phase
    charge is capped at the hop diameter ``D`` (the paper's ``min(D, ·)``
    remark), the local loops' ``⌈log n⌉`` is ``⌈log2 n⌉`` and a global
    message is :data:`MESSAGE_BITS` bits.
    """

    global_send_factor: float = 1.0
    global_receive_factor: float = 4.0
    skeleton_xi: float = 0.75
    faults: FaultModel | None = None
    rng_seed: int = 0

    def __post_init__(self) -> None:
        for name in ("global_send_factor", "global_receive_factor", "skeleton_xi"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if self.faults is not None and not isinstance(self.faults, FaultModel):
            raise TypeError(
                f"faults must be None or a FaultModel, got {type(self.faults).__name__}"
            )

    def send_cap(self, n: int) -> int:
        """Per-node, per-round global send budget for an ``n``-node network."""
        return max(1, math.ceil(self.global_send_factor * math.log2(max(n, 2))))

    def receive_cap(self, n: int) -> int:
        """Per-node, per-round global receive budget (reference value)."""
        return max(1, math.ceil(self.global_receive_factor * math.log2(max(n, 2))))

    def log_rounds(self, n: int) -> int:
        """The ``⌈log2 n⌉`` factor used by the local exploration loops."""
        return max(1, math.ceil(math.log2(max(n, 2))))
