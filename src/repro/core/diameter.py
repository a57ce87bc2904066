"""Diameter approximation in the HYBRID model (Section 5, Theorem 5.1 / 1.4).

``approximate_diameter`` takes an ``(α, β)``-approximate CLIQUE diameter
algorithm and turns it into a HYBRID algorithm for the *unweighted* diameter
``D(G)`` (Algorithm 9):

1. Build a skeleton of size ``~n^x`` with ``x = 2/(3+2δ)``.
2. Simulate the CLIQUE algorithm on the skeleton: all skeleton nodes learn an
   ``(α, β)``-estimate ``D̃(S)`` of the skeleton's weighted diameter.
3. A local phase of ``η·h + 1`` rounds spreads ``D̃(S)`` to every node (every
   node has a skeleton node within ``h`` hops w.h.p.) and lets every node
   compute the largest hop distance ``h_v`` it sees in its ``(η·h+1)``-hop
   neighbourhood.  On a connected graph ``h_v = min(ecc(v), η·h+1)``, so
   ``max_v h_v = min(D, η·h+1)``: the simulation reads it off the graph's
   cached hop diameter instead of running ``n`` bounded searches.
4. The maximum ``ĥ = max_v h_v`` is aggregated over the global network in
   ``O(log n)`` rounds (Lemma B.2).
5. Output ``D̃ = ĥ`` if ``ĥ ≤ η·h`` (then ``D`` was computed exactly), else
   ``D̃ = D̃(S) + 2h`` (Equation (3)).

Guarantee (Theorem 5.1): ``D ≤ D̃ ≤ (α + 2/η + β/T_B) · D``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.clique.interfaces import CliqueAlgorithmSpec, CliqueDiameterAlgorithm
from repro.core.context import SkeletonContext, prepare_skeleton_context
from repro.core.skeleton import framework_sampling_probability
from repro.hybrid.network import HybridNetwork
from repro.localnet.aggregation import aggregate_max


@dataclass
class DiameterResult:
    """Result of the diameter approximation (Algorithm 9).

    Attributes
    ----------
    estimate:
        The diameter estimate ``D̃``.
    used_local_estimate:
        True when ``ĥ ≤ η·h`` and the algorithm answered exactly from the
        local phase; False when the skeleton estimate branch was taken.
    skeleton_estimate:
        The value ``D̃(S)`` produced by the simulated CLIQUE algorithm.
    local_max_hop:
        The aggregated maximum locally observed hop distance ``ĥ``.
    rounds / skeleton_size / hop_length / clique_rounds / spec / exploration_depth:
        Run statistics, as in the k-SSP framework result.
    """

    estimate: float
    used_local_estimate: bool
    skeleton_estimate: float
    local_max_hop: float
    rounds: int
    skeleton_size: int
    hop_length: int
    clique_rounds: int
    spec: CliqueAlgorithmSpec
    exploration_depth: int

    def guaranteed_alpha(self) -> float:
        """The multiplicative guarantee ``α + 2/η + β/T_B`` of Theorem 5.1."""
        return (
            self.spec.alpha
            + 2.0 / self.spec.eta
            + self.spec.beta / max(1, self.exploration_depth)
        )


def check_diameter_input(network: HybridNetwork) -> None:
    """Raise ``ValueError`` unless Section 5 applies: unweighted, connected local graph."""
    if not network.graph.is_unweighted():
        raise ValueError("the diameter algorithm of Section 5 targets unweighted graphs")
    if network.graph.hop_diameter() == math.inf:
        raise ValueError("the diameter algorithm of Section 5 needs a connected local graph")


def approximate_diameter(
    network: HybridNetwork,
    algorithm: CliqueDiameterAlgorithm,
    phase: str = "diameter",
    context: SkeletonContext | None = None,
) -> DiameterResult:
    """Run Algorithm 9 (``Diam-Simulation``) with the given CLIQUE algorithm.

    The input graph must be unweighted (Theorem 5.1 approximates the hop
    diameter ``D(G)``) and its local graph connected (Section 5 assumes a
    connected ``G``); otherwise ``ValueError`` is raised before any round is
    charged.  ``context`` may supply a prepared skeleton and CLIQUE transport
    from an earlier query on the same network.
    """
    check_diameter_input(network)
    rounds_before = network.metrics.total_rounds
    n = network.n
    spec = algorithm.spec

    # Step 1: skeleton of size ~n^x.
    if context is None:
        probability = framework_sampling_probability(n, spec.delta)
        context = prepare_skeleton_context(
            network,
            probability,
            phase=phase + ":skeleton",
        )
    skeleton = context.skeleton

    # Step 2: simulate the CLIQUE diameter algorithm on the skeleton.
    transport = context.transport(phase + ":simulation")
    clique_rounds_before = transport.rounds_used
    skeleton_estimate = algorithm.run(transport, skeleton.weights)

    # Step 3: local phase of η·h + 1 rounds.  On the connected local graph
    # max_v h_v = min(D, η·h + 1), read off the cached hop diameter.
    exploration_depth = int(math.ceil(spec.eta * skeleton.hop_length)) + 1
    network.charge_local_rounds(exploration_depth, phase + ":local-horizon")
    local_max = float(min(network.graph.hop_diameter(), exploration_depth))

    # Step 4: aggregate ĥ = max_v h_v over the global network (Lemma B.2).
    # Every node contributes one value, as in the protocol; the traffic does
    # not depend on the values, and the maximum is ĥ either way.
    local_max_hop = aggregate_max(
        network, dict.fromkeys(range(n), local_max), phase=phase + ":aggregate"
    )

    # Step 5: Equation (3).
    threshold = exploration_depth - 1
    if local_max_hop <= threshold:
        estimate = local_max_hop
        used_local = True
    else:
        estimate = skeleton_estimate + 2.0 * skeleton.hop_length
        used_local = False

    rounds = network.metrics.total_rounds - rounds_before
    return DiameterResult(
        estimate=estimate,
        used_local_estimate=used_local,
        skeleton_estimate=skeleton_estimate,
        local_max_hop=local_max_hop,
        rounds=rounds,
        skeleton_size=skeleton.size,
        hop_length=skeleton.hop_length,
        clique_rounds=transport.rounds_used - clique_rounds_before,
        spec=spec,
        exploration_depth=exploration_depth,
    )
