"""Configuration of the HYBRID model instance being simulated.

The paper parameterises hybrid networks by the local message size ``λ`` and
the per-node global budget ``γ`` (Section 1).  The combination studied is
LOCAL + NCC: ``λ = ∞`` and ``γ = O(log² n)`` bits, i.e. every node may send and
receive ``O(log n)`` messages of ``O(log n)`` bits per round over the global
network.  :class:`ModelConfig` pins down the constants hidden in those
``O(·)``'s for a concrete simulation, plus the w.h.p. constants used by the
skeleton / helper-set constructions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.hybrid.faults import FaultModel


@dataclass
class ModelConfig:
    """Concrete constants for one simulated HYBRID network.

    Attributes
    ----------
    global_send_factor:
        Each node may send ``ceil(global_send_factor * log2 n)`` global
        messages per round (the ``O(log n)`` of the NCC mode).
    global_receive_factor:
        The receive budget used when ``strict_receive`` is enabled, and the
        reference value benchmarks compare the measured maximum against.
    message_bits:
        Nominal size of one global message in bits (``O(log n)``); only used
        for bit accounting, payloads themselves are Python objects.
    strict_send:
        If True (default) a protocol handing the engine more than the per-round
        send budget for a single node is a bug and raises
        :class:`~repro.hybrid.errors.CapacityExceededError`.  Batched helpers
        (``run_global_exchange``) always respect the budget automatically.
    strict_receive:
        If True, exceeding ``receive_cap`` raises instead of being recorded.
        The paper only guarantees the receive bound w.h.p. (Lemma D.2), so the
        default is to record violations and let tests assert on the metrics.
    skeleton_xi:
        The ``ξ`` constant in the skeleton hop length ``h = ξ x ln n``
        (Lemma C.1).  Asymptotically ``ξ ≥ 8c``; simulations at a few hundred
        nodes use a small value so that ``h << n`` and the skeleton machinery
        is actually exercised (see DESIGN.md, fidelity policy).
    helper_log_factor:
        The ``⌈log n⌉`` factors in Algorithm 1 / Algorithm 3 are multiplied by
        this scale; 1.0 reproduces the paper's pseudo-code literally.
    hash_independence_factor:
        Independence of the routing hash family is
        ``hash_independence_factor * ceil(log2 n)`` (Lemma D.2 needs Θ(log n)).
    cap_local_at_diameter:
        The paper notes that every round bound can be read as
        ``min(D, bound)`` because ``D`` rounds of the LOCAL mode let every node
        learn the whole graph.  When True (default), every local-phase charge
        is capped at the hop diameter of ``G``, which implements that remark
        per phase and keeps the accounting honest on small-diameter graphs.
    faults:
        Optional :class:`~repro.hybrid.faults.FaultModel` describing an
        unreliable network (seeded message drops, bursts, node crash /
        omission sets, local-edge outages).  ``None`` (the default) -- or a
        model whose :attr:`~repro.hybrid.faults.FaultModel.enabled` is False
        -- keeps the ideal engine paths, bit-identical to earlier releases
        (pinned by tests/test_faults.py).
    rng_seed:
        Root seed for all randomness of a simulation run.
    """

    global_send_factor: float = 1.0
    global_receive_factor: float = 4.0
    message_bits: int = 64
    strict_send: bool = True
    strict_receive: bool = False
    skeleton_xi: float = 0.75
    helper_log_factor: float = 1.0
    hash_independence_factor: int = 3
    cap_local_at_diameter: bool = True
    faults: FaultModel | None = None
    rng_seed: int = 0
    extra: dict = field(default_factory=dict)

    def send_cap(self, n: int) -> int:
        """Per-node, per-round global send budget for an ``n``-node network."""
        return max(1, math.ceil(self.global_send_factor * math.log2(max(n, 2))))

    def receive_cap(self, n: int) -> int:
        """Per-node, per-round global receive budget (reference value)."""
        return max(1, math.ceil(self.global_receive_factor * math.log2(max(n, 2))))

    def log_rounds(self, n: int) -> int:
        """The ``⌈log n⌉`` factor used by the local exploration loops."""
        return max(1, math.ceil(self.helper_log_factor * math.log2(max(n, 2))))
