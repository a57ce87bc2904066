"""The ``Õ(n^{2/3})`` exact APSP of Augustine et al. SODA'20 (the paper's baseline).

This is the algorithm Theorem 1.1 improves on.  Its structure is identical to
:mod:`repro.core.apsp` except for the last step: instead of token-routing the
connector labels to the skeleton nodes, *all* ``|V| · |V_S|`` distance labels
``d_h(v, s)`` are broadcast to the whole network with token dissemination.
The broadcast of ``Θ(n²/x)`` labels costs ``Θ̃(n/√x)`` rounds, which distorts
the local/global trade-off and pushes the optimum to ``x = n^{2/3}`` with total
runtime ``Õ(n^{2/3})`` (Section 3 of the paper).

Benchmark E2 runs this baseline side by side with the new algorithm so the
crossover in measured rounds can be compared with the analytic
``n^{2/3}`` vs ``√n`` prediction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.apsp import _combine_distances, _distances_to_skeleton
from repro.core.context import SkeletonContext, prepare_skeleton_context
from repro.hybrid.network import HybridNetwork
from repro.localnet.token_dissemination import disseminate_tokens


@dataclass
class BaselineAPSPResult:
    """Result of the SODA'20-style APSP baseline."""

    matrix: np.ndarray
    rounds: int
    skeleton_size: int
    hop_length: int
    broadcast_tokens: int

    def distance(self, u: int, v: int) -> float:
        """The computed distance ``d(u, v)``."""
        return float(self.matrix[u, v])


def apsp_broadcast_baseline(
    network: HybridNetwork,
    phase: str = "apsp-baseline",
    context: SkeletonContext | None = None,
) -> BaselineAPSPResult:
    """Exact APSP with the label-broadcast strategy of Augustine et al. SODA'20.

    The skeleton sampling probability is ``1/n^{2/3}`` (the optimum of the
    baseline's trade-off), so the skeleton has ``~n^{1/3}`` nodes and the label
    broadcast moves ``~n^{4/3}`` tokens.  ``context`` may supply a prepared
    skeleton, exactly as for :func:`repro.core.apsp.apsp_exact`.
    """
    rounds_before = network.metrics.total_rounds
    n = network.n

    if context is None:
        probability = min(1.0, n ** (-2.0 / 3.0))
        context = prepare_skeleton_context(
            network,
            probability,
            phase=phase + ":skeleton",
        )
    skeleton = context.skeleton
    n_s = skeleton.size

    # Publish the skeleton edges (as in the new algorithm).
    skeleton_distances = context.published_skeleton_distances(phase + ":publish-skeleton")

    # The baseline's bottleneck: broadcast every d_h(v, s) label to everyone.
    near_matrix = skeleton.near_distances
    label_tokens: dict[int, list[tuple[int, int, float]]] = {}
    for v in range(n):
        reached = np.flatnonzero(np.isfinite(near_matrix[v]))
        if reached.size:
            label_tokens[v] = [
                (v, skeleton.nodes[index], distance)
                for index, distance in zip(
                    reached.tolist(), near_matrix[v, reached].tolist(), strict=True
                )
            ]
    dissemination = disseminate_tokens(network, label_tokens, phase=phase + ":label-broadcast")

    # With global knowledge of the labels and of E_S every node computes all
    # distances locally; the computation is the same combination as in the new
    # algorithm, so we reuse its numpy helpers.
    dist_to_skeleton, _ = _distances_to_skeleton(near_matrix, skeleton_distances)
    skeleton_to_all = dist_to_skeleton.T.copy()
    matrix = _combine_distances(skeleton, skeleton_to_all)

    rounds = network.metrics.total_rounds - rounds_before
    return BaselineAPSPResult(
        matrix=matrix,
        rounds=rounds,
        skeleton_size=n_s,
        hop_length=skeleton.hop_length,
        broadcast_tokens=dissemination.token_count,
    )
