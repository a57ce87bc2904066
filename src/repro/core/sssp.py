"""Exact single-source shortest paths in the HYBRID model (Theorem 1.3).

Theorem 1.3 is an instantiation of the Theorem 4.1 framework with an *exact*
CLIQUE SSSP algorithm and ``γ = 0``: the source is added to the skeleton
(Lemma 4.5), so no representative detour is needed and the framework preserves
exactness.  The paper plugs in the ``Õ(n^{1/6})``-round algorithm of [7] to
obtain ``Õ(n^{2/5})`` HYBRID rounds; we plug in the exact Bellman-Ford CLIQUE
algorithm (``δ = 1``, see DESIGN.md) and validate the framework's runtime
formula against that ``δ``.

All graph-heavy phases (the depth-``h`` skeleton exploration and the final
Equation (1) combination, reached through :mod:`repro.core.kssp`) run on the
batched multi-source kernels of :class:`~repro.graphs.graph.WeightedGraph`,
so a single-source query at ``n`` in the thousands completes in well under a
second (see BENCH_core.json).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.clique.interfaces import CliqueShortestPathAlgorithm
from repro.clique.sssp import BroadcastBellmanFordSSSP
from repro.core.context import SkeletonContext
from repro.core.kssp import ShortestPathsResult, shortest_paths_via_clique
from repro.graphs.graph import INFINITY
from repro.hybrid.network import HybridNetwork


@dataclass
class SSSPResult:
    """Distances from a single source, plus the framework run statistics.

    ``distances`` holds one entry per node of the network, including
    ``float('inf')`` for nodes unreachable from the source -- the same
    contract as the ``inf`` entries of :attr:`APSPResult.matrix`.  Its keys
    are ``0..n-1`` in order; it is built once from the framework's estimate
    column and is the one distance dict of the query path.
    """

    source: int
    distances: dict[int, float]
    rounds: int
    skeleton_size: int
    hop_length: int
    clique_rounds: int

    def distance(self, node: int) -> float:
        """The computed distance ``d̃(node, source)`` (exact for Theorem 1.3).

        Returns ``INFINITY`` for unreachable nodes.
        """
        return self.distances.get(node, INFINITY)


def sssp_exact(
    network: HybridNetwork,
    source: int,
    algorithm: CliqueShortestPathAlgorithm | None = None,
    phase: str = "sssp",
    context: SkeletonContext | None = None,
) -> SSSPResult:
    """Solve SSSP exactly in the HYBRID model (Theorem 1.3).

    ``algorithm`` must be an exact CLIQUE SSSP algorithm (``α = 1, β = 0,
    γ = 0``); it defaults to the broadcast Bellman-Ford substitute.
    ``context`` may supply prepared preprocessing state whose skeleton
    contains ``source`` (Lemma 4.5 -- exactness needs the source in the
    skeleton); it is forwarded to the Theorem 4.1 framework.
    """
    algorithm = algorithm or BroadcastBellmanFordSSSP()
    if not algorithm.spec.exact:
        raise ValueError("Theorem 1.3 requires an exact CLIQUE algorithm")
    if context is not None and not context.skeleton.contains(source):
        raise ValueError("the prepared skeleton must contain the SSSP source (Lemma 4.5)")
    result: ShortestPathsResult = shortest_paths_via_clique(
        network, [source], algorithm, phase=phase, context=context
    )
    return SSSPResult(
        source=source,
        distances=dict(enumerate(result.estimates[:, 0].tolist())),
        rounds=result.rounds,
        skeleton_size=result.skeleton_size,
        hop_length=result.hop_length,
        clique_rounds=result.clique_rounds,
    )
