"""The k-source shortest-path framework (Section 4, Theorem 4.1, Algorithm 5).

``shortest_paths_via_clique`` takes an arbitrary CLIQUE shortest-path
algorithm ``A`` (parameterised by ``γ, δ, η, α, β``) and turns it into a HYBRID
algorithm:

1. ``Compute-Skeleton`` with sampling probability ``1/n^{1-x}`` where
   ``x = 2/(3+2δ)`` balances the CLIQUE simulation cost against the local
   exploration cost (Algorithm 6).  For a single source (``γ = 0``) the source
   itself is added to the skeleton (Lemma 4.5).
2. ``Compute-Representatives``: every source tags its closest skeleton node
   and the pairs are made public knowledge (Algorithm 7).
3. ``Clique-Simulation``: ``A`` runs on the skeleton through the token-routing
   based transport of Corollary 4.1 (Algorithm 8).
4. A final local phase of ``η·h`` rounds floods the skeleton estimates and
   gives every node its ``η·h``-hop-limited distances; each node then combines
   everything with Equation (1).

The resulting guarantees (Theorem 4.1): runtime ``Õ(η · n^{1-x})``,
approximation factor ``2α + 1 + β/T_B`` on weighted graphs, ``α + 2/η + β/T_B``
on unweighted graphs, and no loss at all for a single source (``α + β/T_B``).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.clique.interfaces import CliqueAlgorithmSpec, CliqueShortestPathAlgorithm
from repro.core.context import SkeletonContext, prepare_skeleton_context
from repro.core.representatives import (
    Representatives,
    choose_representatives,
    compute_representatives,
)
from repro.core.skeleton import (
    Skeleton,
    framework_exponent,
    framework_sampling_probability,
)
from repro.graphs.graph import INFINITY
from repro.hybrid.network import HybridNetwork


@dataclass
class ShortestPathsResult:
    """Result of the Theorem 4.1 framework (and of Theorem 1.3 via ``γ = 0``).

    Attributes
    ----------
    sources:
        The query sources (original node IDs, sorted and distinct).
    estimates:
        The ``(n, len(sources))`` array ``estimates[v, j] = d̃(v, sources[j])``
        (``inf`` when unreachable), satisfying the transformed approximation
        guarantee of Theorem 4.1.
    rounds:
        Total rounds consumed.
    skeleton_size / hop_length:
        Parameters of the skeleton used.
    clique_rounds:
        Number of CLIQUE rounds the simulated algorithm took.
    spec:
        The plugged-in CLIQUE algorithm's declared parameters.
    exploration_depth:
        The depth ``η·h`` of the final local phase (the ``T_B`` surrogate in
        the approximation bound).
    """

    sources: list[int]
    estimates: np.ndarray
    rounds: int
    skeleton_size: int
    hop_length: int
    clique_rounds: int
    spec: CliqueAlgorithmSpec
    exploration_depth: int

    def estimate(self, node: int, source: int) -> float:
        """The estimate ``d̃(node, source)`` (``inf`` for a source not queried)."""
        if source not in self.sources:
            return INFINITY
        return float(self.estimates[node, self.sources.index(source)])

    def guaranteed_alpha(self, weighted: bool) -> float:
        """The multiplicative guarantee of Theorem 4.1 for this run.

        ``β`` enters divided by ``T_B``; we use the exploration depth as the
        (conservative) ``T_B`` surrogate, matching Lemma 4.3.
        """
        beta_term = self.spec.beta / max(1, self.exploration_depth)
        if len(self.sources) == 1:
            return self.spec.alpha + beta_term
        if weighted:
            return 2.0 * self.spec.alpha + 1.0 + beta_term
        return self.spec.alpha + 2.0 / self.spec.eta + beta_term


def shortest_paths_via_clique(
    network: HybridNetwork,
    sources: Sequence[int],
    algorithm: CliqueShortestPathAlgorithm,
    phase: str = "kssp",
    context: SkeletonContext | None = None,
) -> ShortestPathsResult:
    """Run Algorithm 5 (``SP-Simulation``) with the given CLIQUE algorithm.

    ``context`` may supply a prepared skeleton and CLIQUE transport (for a
    single source the caller must have forced the source into the skeleton,
    e.g. via :meth:`SkeletonContext.extended` -- Lemma 4.5); without one the
    prologue is built inline exactly as before the extraction.
    """
    if not sources:
        raise ValueError("at least one source is required")
    sources = sorted(set(sources))
    rounds_before = network.metrics.total_rounds
    n = network.n
    spec = algorithm.spec

    # Step 1: skeleton of size ~n^x with x = 2/(3+2δ); a single source joins it.
    single_source = len(sources) == 1
    if context is None:
        probability = framework_sampling_probability(n, spec.delta)
        context = prepare_skeleton_context(
            network,
            probability,
            forced_members=sources if single_source else (),
            phase=phase + ":skeleton",
        )
    skeleton = context.skeleton
    check_skeleton_sources(network, skeleton, sources, spec)

    # Step 2: representatives of the sources on the skeleton.
    representatives = compute_representatives(
        network, skeleton, sources, phase=phase + ":representatives"
    )

    # Step 3: simulate the CLIQUE algorithm on the skeleton.
    transport = context.transport(phase + ":simulation")
    clique_rounds_before = transport.rounds_used
    clique_sources = [skeleton.index_of[rep] for rep in representatives.skeleton_sources]
    skeleton_estimates = algorithm.run(transport, skeleton.weights, clique_sources)

    # Step 4: local spreading of the results and combination via Equation (1).
    exploration_depth = max(
        skeleton.hop_length, int(math.ceil(spec.eta * skeleton.hop_length))
    )
    network.charge_local_rounds(exploration_depth, phase + ":result-spread")
    estimates = _combine_estimates(
        network,
        skeleton,
        representatives,
        skeleton_estimates,
        sources,
        exploration_depth,
    )

    rounds = network.metrics.total_rounds - rounds_before
    return ShortestPathsResult(
        sources=list(sources),
        estimates=estimates,
        rounds=rounds,
        skeleton_size=skeleton.size,
        hop_length=skeleton.hop_length,
        clique_rounds=transport.rounds_used - clique_rounds_before,
        spec=spec,
        exploration_depth=exploration_depth,
    )


def check_skeleton_sources(
    network: HybridNetwork,
    skeleton: Skeleton,
    sources: Sequence[int],
    spec: CliqueAlgorithmSpec,
) -> None:
    """Raise ``ValueError`` if a ``γ = 0`` algorithm would get several skeleton sources.

    Representatives are chosen locally
    (:func:`~repro.core.representatives.choose_representatives`, which
    charges nothing: a fallback's flood is charged by
    :func:`~repro.core.representatives.compute_representatives`), so callers
    check before the representatives' announcement and before any CLIQUE
    transport is built.
    """
    if spec.gamma == 0:
        representative, _, _ = choose_representatives(network, skeleton, sources)
        distinct = len(set(representative.values()))
        if distinct > 1:
            raise ValueError(
                f"{spec.name} handles one source (γ = 0), "
                f"got {distinct} distinct skeleton sources"
            )


def _combine_estimates(
    network: HybridNetwork,
    skeleton: Skeleton,
    representatives: Representatives,
    skeleton_estimates: np.ndarray,
    sources: Sequence[int],
    exploration_depth: int,
) -> np.ndarray:
    """Equation (1): combine local exact distances with skeleton estimates.

    ``d̃(v, s) = min( d_{ηh}(v, s),
                     min_{u ∈ V_S near v} d_h(v, u) + d̃(u, r_s) + d_h(r_s, s) )``

    The first term is the literal ``d_{ηh}`` (one batched kernel call over all
    sources); the skeleton detour term is a vectorised min-plus product over
    the near-skeleton matrix.  ``skeleton_estimates`` has one column per
    representative (``representatives.skeleton_sources``); the result one
    column per source.
    """
    # The ηh-limited distances d_{ηh}(v, s), one row per source (symmetric).
    local_limited = network.graph.hop_limited_distance_matrix(sources, exploration_depth)

    # near[v, i] = d_h(v, skeleton node i), shared by every source.
    near = skeleton.near_distances
    estimates = np.empty((network.n, len(sources)))
    for column, source in enumerate(sources):
        rep = representatives.representative[source]
        to_rep = skeleton_estimates[:, representatives.skeleton_sources.index(rep)]
        rep_distance = representatives.distance_to_representative[source]
        detour = (near + to_rep[np.newaxis, :]).min(axis=1) + rep_distance
        np.minimum(local_limited[column], detour, out=estimates[:, column])
    return estimates


def predicted_framework_rounds(n: int, spec: CliqueAlgorithmSpec) -> float:
    """The Theorem 4.1 runtime shape ``η · n^{1-x}`` (without polylog factors)."""
    x = framework_exponent(spec.delta)
    return spec.eta * (n ** (1.0 - x))
