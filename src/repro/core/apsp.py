"""Exact all-pairs shortest paths in ``Õ(√n)`` rounds (Section 3, Theorem 1.1).

The algorithm follows Augustine et al. SODA'20 up to its last step and then
replaces the broadcast of all ``|V| · |V_S|`` distance labels (the bottleneck
that forced ``Õ(n^{2/3})`` rounds) with a token-routing instance:

1. Build a skeleton ``S`` with sampling probability ``1/√n`` and hop length
   ``h ∈ Θ(√n log n)`` -- ``Õ(√n)`` local rounds.
2. Make the skeleton edge set ``E_S`` public knowledge via token dissemination
   (``Õ(|V_S|) = Õ(√n)`` rounds); every node now computes all skeleton-to-
   skeleton distances locally.
3. Every node ``v`` combines its ``h``-limited distances with the skeleton
   distances to obtain ``d(v, s)`` for every skeleton node ``s`` together with
   the *connector*: the skeleton node ``s'`` through which a shortest
   ``v``-``s`` path enters the skeleton.
4. **Token routing (the new step):** every node sends, for every skeleton node
   ``s``, the token ``⟨d_h(v, s'), v, s'⟩`` to ``s``.  This is an instance with
   ``k_S = |V_S|``, ``k_R = n`` and total workload ``K = 2 n |V_S|``, solved in
   ``Õ(K/n + √n) = Õ(√n)`` rounds by Theorem 2.2.
5. Every skeleton node now knows its distance to every node and spreads the
   labels ``⟨d(s, v), s, v⟩`` through its ``h``-hop neighbourhood
   (``Õ(√n)`` local rounds).
6. Every node ``u`` outputs ``d(u, v) = min(d_h(u, v),
   min_{s ∈ V_S ∩ ball_h(u)} d_h(u, s) + d(s, v))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.context import SkeletonContext, prepare_skeleton_context
from repro.core.skeleton import Skeleton
from repro.hybrid.network import HybridNetwork


@dataclass
class APSPResult:
    """Result of the exact APSP algorithm.

    Attributes
    ----------
    matrix:
        Dense ``n x n`` numpy array of distances (``inf`` for disconnected
        pairs); row ``u`` is the output of node ``u``.
    rounds:
        Total rounds consumed.
    skeleton_size / hop_length:
        Parameters of the skeleton used.
    routing_tokens:
        Number of tokens moved by the token-routing step (``≈ n · |V_S|``).
    """

    matrix: np.ndarray
    rounds: int
    skeleton_size: int
    hop_length: int
    routing_tokens: int

    def distance(self, u: int, v: int) -> float:
        """The computed distance ``d(u, v)``."""
        return float(self.matrix[u, v])

    def distances_from(self, u: int) -> dict[int, float]:
        """Node ``u``'s output as a dict (omitting unreachable nodes)."""
        row = self.matrix[u]
        return {v: float(row[v]) for v in range(row.shape[0]) if np.isfinite(row[v])}


def apsp_exact(
    network: HybridNetwork,
    phase: str = "apsp",
    context: SkeletonContext | None = None,
) -> APSPResult:
    """Solve APSP exactly in the HYBRID model (Theorem 1.1).

    ``context`` may hold the prepared preprocessing state (skeleton, published
    edge set, token router) of an earlier query on the same network; without
    one the prologue is built inline under this call's phases, which is the
    pre-session behaviour round for round.
    """
    rounds_before = network.metrics.total_rounds
    n = network.n

    # Step 1: skeleton with sampling probability 1/√n.
    if context is None:
        probability = min(1.0, 1.0 / math.sqrt(n))
        context = prepare_skeleton_context(
            network,
            probability,
            phase=phase + ":skeleton",
        )
    skeleton = context.skeleton
    n_s = skeleton.size

    # Step 2: make E_S public knowledge and solve APSP on the skeleton locally
    # (free if the context already published it for an earlier query).
    skeleton_distances = context.published_skeleton_distances(phase + ":publish-skeleton")

    # Step 3: every node computes d(v, s) and the connector for every skeleton s.
    near_matrix = skeleton.near_distances
    dist_to_skeleton, connector = _distances_to_skeleton(near_matrix, skeleton_distances)

    # Step 4: token routing of the connector labels (the Theorem 1.1 step).
    # Node v's token for skeleton node s is label (v, s, index s) with payload
    # (d_h(v, s'), s') for the connector s'; the labels go to the router as
    # columns and the payloads stay here as columns read by position.
    sender, s_idx = np.nonzero(connector >= 0)
    conn = connector[sender, s_idx]
    d_to_connector = near_matrix[sender, conn]
    skeleton_ids = np.asarray(skeleton.nodes, dtype=np.int64)
    router = context.apsp_router(phase + ":routing")
    delivered = router.route(sender, skeleton_ids[s_idx], s_idx).delivery_order

    # Step 5: each skeleton node s computes d(s, v) = d_S(s, s') + d_h(s', v)
    # from the received tokens ...
    skeleton_to_all = np.full((n_s, n), np.inf)
    skeleton_to_all[np.arange(n_s), skeleton_ids] = 0.0
    s_idx, sender, conn = s_idx[delivered], sender[delivered], conn[delivered]
    np.minimum.at(
        skeleton_to_all,
        (s_idx, sender),
        skeleton_distances[s_idx, conn] + d_to_connector[delivered],
    )
    # ... and spreads the labels through its h-hop neighbourhood.
    network.charge_local_rounds(skeleton.hop_length, phase + ":label-spread")

    # Step 6: final combination at every node.
    matrix = _combine_distances(skeleton, skeleton_to_all)

    rounds = network.metrics.total_rounds - rounds_before
    return APSPResult(
        matrix=matrix,
        rounds=rounds,
        skeleton_size=n_s,
        hop_length=skeleton.hop_length,
        routing_tokens=int(delivered.size),
    )


def _distances_to_skeleton(
    near_matrix: np.ndarray, skeleton_distances: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Min-plus product giving ``d(v, s)`` plus the connector achieving it."""
    n, n_s = near_matrix.shape
    best = np.full((n, n_s), np.inf)
    connector = np.full((n, n_s), -1, dtype=np.int64)
    for via in range(n_s):
        candidate = near_matrix[:, via : via + 1] + skeleton_distances[via : via + 1, :]
        improved = candidate < best
        best = np.where(improved, candidate, best)
        connector = np.where(improved, via, connector)
    return best, connector


def _combine_distances(skeleton: Skeleton, skeleton_to_all: np.ndarray) -> np.ndarray:
    """Final per-node combination (step 6): local distances vs routes via the skeleton."""
    n = skeleton.knowledge_matrix.shape[0]
    matrix = np.full((n, n), np.inf)
    np.fill_diagonal(matrix, 0.0)
    np.minimum(matrix, skeleton.knowledge_matrix, out=matrix)
    n_s = skeleton.size
    candidate = np.empty((n, n))
    for s_index in range(n_s):
        np.add(
            skeleton.near_distances[:, s_index : s_index + 1],
            skeleton_to_all[s_index : s_index + 1, :],
            out=candidate,
        )
        np.minimum(matrix, candidate, out=matrix)
    return matrix
