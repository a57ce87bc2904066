"""Local-mode exploration primitives ("flood for d rounds").

Every algorithm in the paper contains loops of the form *"for d rounds: v
forwards all information it knows via its incident local edges"*.  After such a
loop each node knows everything initially known by nodes within ``d`` hops.
The helpers here compute those outcomes directly from the graph, per the
fidelity policy in DESIGN.md: the kernels compute the flooding loops'
outcome, not their message traffic, and the charged rounds are what the
theorems count.  :func:`explore_limited` is the skeleton's depth-``h``
exploration: it charges the rounds and returns a :class:`LimitedExploration`
that computes ``d_h`` rows (:mod:`repro.graphs.csr`) only when a consumer
reads them.  The closest-ruler BFS of the clustering step is a graph kernel
too (:meth:`~repro.graphs.graph.WeightedGraph.ruler_clustering`).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.graphs.csr import CSRAdjacency, certified_rows, hop_limited_rows
from repro.hybrid.network import HybridNetwork


class LimitedExploration:
    """The outcome of one depth-``h`` exploration, with ``d_h`` rows on demand.

    After the exploration every node knows its ``d_h`` to every node, but
    most consumers read only a few rows: Compute-Skeleton needs the skeleton
    members' rows (Lemma 4.5, Equation (1)), and only the final combination
    step of the exact APSP algorithm reads all ``n``.  So the rounds are
    charged once, by :func:`explore_limited`, and rows are computed when
    they are read.

    Rows describe the graph version the exploration ran on, never the live
    graph: they come from ``snapshot``, the frozen
    :class:`~repro.graphs.csr.CSRAdjacency` of that version.  A snapshot is
    immutable -- a weight update gives the graph a new view with a copied
    weight array, and ``add_edge`` / ``remove_edge`` drop the graph's view
    -- so a row read after a mutation still equals the row the exploration
    would have produced.  ``d_h`` is symmetric (the graph is undirected and
    integer weights make every value an exact float64 sum), so row ``u`` is
    also column ``u``: ``d_h(·, u) = d_h(u, ·)``.

    :meth:`matrix` builds the full ``n × n`` matrix on its first call and
    caches it read-only; :meth:`rows` slices it from then on.
    :meth:`certified` is the matrix's per-row hop certificate
    (:func:`~repro.graphs.csr.certified_rows`: row ``v`` is certified when
    ``d_h(v, ·) = d(v, ·)`` provably), cached read-only next to it.  A
    repaired exploration is built from a patched matrix, and its mask is
    computed from those patched values on the snapshot of the new version,
    so it equals a cold exploration's mask whenever the values do.
    """

    __slots__ = ("snapshot", "hop_length", "_matrix", "_certified")

    def __init__(self, snapshot: CSRAdjacency, hop_length: int, matrix=None) -> None:
        self.snapshot = snapshot
        self.hop_length = hop_length
        if matrix is not None:
            matrix.flags.writeable = False
        self._matrix = matrix
        self._certified = None

    @property
    def materialised(self) -> bool:
        """Whether the full matrix has been built."""
        return self._matrix is not None

    def rows(self, sources: Sequence[int]) -> np.ndarray:
        """``rows[i, v] = d_h(sources[i], v)`` as a new ``(len(sources), n)`` array."""
        if self._matrix is not None:
            return self._matrix[list(sources)]
        return hop_limited_rows(self.snapshot, sources, self.hop_length)

    def matrix(self) -> np.ndarray:
        """The read-only ``n × n`` matrix ``M[v, u] = d_h(v, u)`` (built once)."""
        if self._matrix is None:
            self._matrix = hop_limited_rows(self.snapshot, range(self.snapshot.n), self.hop_length)
            self._matrix.flags.writeable = False
        return self._matrix

    def certified(self) -> np.ndarray:
        """The read-only mask ``certified[v]``: row ``v`` of :meth:`matrix` is hop-certified."""
        if self._certified is None:
            matrix = self.matrix()
            self._certified = certified_rows(
                self.snapshot, range(self.snapshot.n), matrix, self.hop_length
            )
            self._certified.flags.writeable = False
        return self._certified


def explore_limited(
    network: HybridNetwork, depth: int, phase: str = "local-exploration"
) -> LimitedExploration:
    """Every node learns its ``depth``-hop-limited distances (Section 1.3), rows on demand.

    This is the outcome of flooding all graph information for ``depth``
    rounds and locally computing the paper's literal ``d_h``, which is what
    Compute-Skeleton (Algorithm 6) and the local exploration steps of
    Algorithms 5 and 9 do.  Charges ``depth`` local rounds now and snapshots
    the local graph; the returned :class:`LimitedExploration` computes
    ``d_depth`` rows from that snapshot when a consumer reads them
    (:func:`repro.graphs.csr.hop_limited_rows`).
    """
    network.charge_local_rounds(depth, phase)
    return LimitedExploration(network.local_graph.csr(), depth)
