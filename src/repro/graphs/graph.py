"""Weighted graph kernel used by every layer of the library.

The paper's local communication graph ``G = (V, E)`` is an undirected graph
with integer edge weights ``w : E -> [W]`` where ``W`` is at most polynomial in
``n`` (Section 1.3).  :class:`WeightedGraph` is a small edge-map structure
with exactly the reads the HYBRID algorithms need:

* edge and weight queries (the LOCAL mode),
* hop-limited weighted distances ``d_h(u, v)`` (Section 1.3),
* exact distances, the hop diameter ``D`` and the ruler clusterings.

Nodes are always the integers ``0 .. n-1``; the paper identifies nodes with IDs
``[n]`` and several protocols (hashing to intermediate nodes, implicit
aggregation trees) rely on the ID space being exactly ``[0, n)``.

Storage and traversal (DESIGN.md §4): one insertion-ordered edge map
``{(min(u, v), max(u, v)): weight}`` is the graph and feeds the mutation
journal.  Every traversal -- ``hop_limited_distance_matrix``,
``distance_matrix``, ``hop_diameter``, ``ruler_clustering``,
``is_connected`` -- runs on a frozen CSR view (:mod:`repro.graphs.csr`)
built from the map on first use and invalidated by ``add_edge`` /
``remove_edge``.  Tests check the kernels against
:mod:`repro.graphs.reference`, the edge-list oracle that shares no code with
them.  What depends on hops alone -- the hop diameter and the ruler
clusterings -- is cached in one hop-topology slot that ``add_edge`` /
``remove_edge`` reset and ``update_weight`` keeps.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.graphs import csr as csr_kernels

INFINITY = float("inf")

#: How many mutations the delta log retains.  ``deltas_since`` answers None
#: once a gap falls off the log, so consumers (delta repair, DESIGN.md §12)
#: degrade to a cold rebuild rather than replaying an incomplete history.
DELTA_LOG_LIMIT = 1024


@dataclass(frozen=True)
class GraphDelta:
    """One recorded mutation of a :class:`WeightedGraph` (DESIGN.md §12).

    Every mutation that bumps :attr:`WeightedGraph.version` appends exactly
    one delta, so the log is a contiguous, replayable history of the version
    counter: ``version`` is the counter value *after* the mutation applied.
    No-op mutations (re-adding an edge at its current weight) record nothing
    because they bump nothing.

    Attributes
    ----------
    kind:
        ``"add"`` (new edge), ``"remove"`` (edge deleted) or ``"update"``
        (weight change on an existing edge; the hop topology is unchanged).
    u, v:
        The edge endpoints, in the order the caller named them.
    weight:
        The weight after the mutation (None for ``"remove"``).
    old_weight:
        The weight before the mutation (None for ``"add"``).
    version:
        :attr:`WeightedGraph.version` after this mutation.
    """

    kind: str
    u: int
    v: int
    weight: int | None
    old_weight: int | None
    version: int

    @property
    def topological(self) -> bool:
        """Whether the mutation changed the edge set (vs only a weight)."""
        return self.kind != "update"


class WeightedGraph:
    """An undirected graph with positive integer edge weights.

    Parameters
    ----------
    n:
        Number of nodes; nodes are ``0 .. n-1``.  The frozen CSR view and the
        batched kernels are specified in DESIGN.md §4.
    """

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise ValueError("a graph needs at least one node")
        self._n = n
        # {(smaller endpoint, larger endpoint): weight} in insertion order: an
        # update keeps an edge's place, a re-add moves it to the end.
        self._weights: dict[tuple[int, int], int] = {}
        self._csr = None
        # Hop-topology cache: "diameter" -> D(G), separation -> RulerClustering.
        self._hop_cache: dict = {}
        self._version = 0
        self._deltas: deque[GraphDelta] = deque(maxlen=DELTA_LOG_LIMIT)

    # ------------------------------------------------------------------ basic
    @property
    def version(self) -> int:
        """Mutation counter: incremented by every effective mutation.

        ``add_edge`` (on a new edge or with a changed weight), ``remove_edge``
        and ``update_weight`` each bump it exactly once and append one
        :class:`GraphDelta` to the log; a no-op mutation (re-adding an edge at
        its current weight) bumps nothing.  Derived caches outside the graph
        (the network's hop-diameter cache, a session's preprocessing cache)
        compare the version they were built at against the current one -- the
        same freeze/invalidate discipline the internal CSR view uses.
        """
        return self._version

    def deltas_since(self, version: int) -> list[GraphDelta] | None:
        """The mutations applied after ``version``, oldest first.

        Returns ``[]`` when ``version`` is current, and None when the history
        back to ``version`` is not fully available (the log evicted it, or
        ``version`` is from a different graph's counter) -- the caller must
        then treat the graph as arbitrarily changed (DESIGN.md §12).
        """
        if version == self._version:
            return []
        if version > self._version or self._version - version > len(self._deltas):
            return None
        return [delta for delta in self._deltas if delta.version > version]

    def csr(self) -> csr_kernels.CSRAdjacency:
        """The frozen CSR view (built on first use, dropped on mutation)."""
        if self._csr is None:
            self._csr = csr_kernels.build_csr(self._n, self._weights)
        return self._csr

    @property
    def node_count(self) -> int:
        """Number of nodes ``n``."""
        return self._n

    @property
    def edge_count(self) -> int:
        """Number of undirected edges."""
        return len(self._weights)

    def nodes(self) -> range:
        """Iterable over all node IDs."""
        return range(self._n)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` exists."""
        return self._key(u, v) in self._weights

    def add_edge(self, u: int, v: int, weight: int = 1) -> None:
        """Insert the undirected edge ``{u, v}``, or update its weight.

        Weights must be positive integers; the paper assumes ``w : E -> [W]``
        with ``W`` polynomial in ``n`` so that a weight fits in one message.

        Duplicate-edge semantics (pinned, DESIGN.md §12): adding an edge that
        already exists is exactly :meth:`update_weight` -- the weight is
        *replaced*, never accumulated, and re-adding at the current weight is
        a no-op that bumps neither :attr:`version` nor the delta log and
        leaves every frozen cache intact.
        """
        key = self._key(u, v)
        if u == v:
            raise ValueError("self loops are not allowed")
        self._check_weight(weight)
        if key in self._weights:
            self.update_weight(u, v, weight)
            return
        self._weights[key] = weight
        self._csr = None
        self._hop_cache = {}
        self._version += 1
        self._deltas.append(GraphDelta("add", u, v, weight, None, self._version))

    def update_weight(self, u: int, v: int, weight: int) -> None:
        """Set the weight of the existing undirected edge ``{u, v}``.

        A weight-only mutation leaves the hop topology untouched, so the
        hop-topology cache (hop diameter, ruler clusterings) survives and a
        frozen CSR view is refreshed in place
        (:func:`repro.graphs.csr.refresh_weight` patches the weight array and
        shares the topology arrays) instead of being dropped and rebuilt.
        Setting the current weight again is a no-op: no version bump, no
        delta, no cache work (DESIGN.md §12).
        """
        key = self._key(u, v)
        current = self._weights.get(key)
        if current is None:
            raise KeyError(f"edge {{{u}, {v}}} does not exist")
        self._check_weight(weight)
        if weight == current:
            return
        self._weights[key] = weight
        if self._csr is not None:
            self._csr = csr_kernels.refresh_weight(self._csr, u, v, weight)
        self._version += 1
        self._deltas.append(GraphDelta("update", u, v, weight, current, self._version))

    def remove_edge(self, u: int, v: int) -> None:
        """Delete the undirected edge ``{u, v}`` (must exist)."""
        old_weight = self._weights.pop(self._key(u, v), None)
        if old_weight is None:
            raise KeyError(f"edge {{{u}, {v}}} does not exist")
        self._csr = None
        self._hop_cache = {}
        self._version += 1
        self._deltas.append(GraphDelta("remove", u, v, None, old_weight, self._version))

    def weight(self, u: int, v: int) -> int:
        """Weight of the edge ``{u, v}`` (must exist)."""
        return self._weights[self._key(u, v)]

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Iterate over undirected edges as ``(u, v, weight)`` with ``u < v``.

        By ``u`` ascending, in insertion order within one ``u`` (a stable
        sort): the order the generators draw random weights in.
        """
        for (u, v), w in sorted(self._weights.items(), key=lambda item: item[0][0]):
            yield (u, v, w)

    def max_weight(self) -> int:
        """Largest edge weight ``W`` (1 for an edgeless graph)."""
        return max(self._weights.values(), default=1)

    def is_unweighted(self) -> bool:
        """Whether every edge has weight 1 (the paper's ``W = 1`` case)."""
        return self.csr().unit_weights

    def _key(self, u: int, v: int) -> tuple[int, int]:
        self._check_node(u)
        self._check_node(v)
        return (u, v) if u < v else (v, u)

    def _check_node(self, u: int) -> None:
        if not 0 <= u < self._n:
            raise ValueError(f"node {u} outside [0, {self._n})")

    @staticmethod
    def _check_weight(weight: int) -> None:
        # Integer weights keep every distance an exact float64 sum, which the
        # batched kernels' bit-identity relies on (DESIGN.md §4).
        if isinstance(weight, bool) or not isinstance(weight, (int, np.integer)):
            raise ValueError(f"edge weights must be integers, got {weight!r}")
        if weight <= 0:
            raise ValueError("edge weights must be positive")

    # ---------------------------------------------------------- CSR kernels
    def hop_limited_distance_matrix(self, sources: Sequence[int], hop_limit: int):
        """``d_{hop_limit}`` as a dense ``(len(sources), n)`` float matrix.

        ``inf`` marks nodes outside the ``hop_limit``-ball.
        """
        sources = list(sources)
        for source in sources:
            self._check_node(source)
        if hop_limit < 0:
            raise ValueError("hop_limit must be non-negative")
        return csr_kernels.hop_limited_rows(self.csr(), sources, hop_limit)

    def distance_matrix(self, sources: Sequence[int] | None = None):
        """Exact distances as a dense ``(len(sources), n)`` float matrix.

        ``sources`` defaults to all nodes (the full APSP matrix); ``inf``
        marks disconnected pairs.
        """
        sources = list(self.nodes()) if sources is None else list(sources)
        for source in sources:
            self._check_node(source)
        return csr_kernels.run_chunked(csr_kernels.distance_matrix, self.csr(), sources)

    def hop_diameter(self) -> float:
        """``D(G)``: the maximum hop distance over all pairs (Section 1.3).

        Computed by :func:`repro.graphs.csr.hop_diameter`: one BFS from
        node 0, then, on a shallow graph of small degree, one bit-parallel
        BFS from all sources at once (one search and an 11-level sweep on
        the 1024-node cold-start graph); otherwise exact eccentricity
        bounding that BFS-searches only the nodes whose eccentricity could
        still exceed the best lower bound -- every node (one all-sources
        pass) on a cycle.
        Cached in the hop-topology slot (every simulated network on this
        graph asks for it): dropped by ``add_edge`` / ``remove_edge`` and
        kept by ``update_weight`` (hops ignore weights).
        """
        cache = self._hop_cache
        if "diameter" not in cache:
            cache["diameter"] = csr_kernels.hop_diameter(self.csr())
        return cache["diameter"]

    def ruler_clustering(self, separation: int) -> csr_kernels.RulerClustering:
        """Greedy rulers more than ``separation`` hops apart, and their clusters.

        The rulers, every node grouped under its closest ruler (ties to the
        smaller ruler ID), and the largest node-to-ruler hop distance
        (:func:`repro.graphs.csr.ruler_clustering`).  The ruling set of
        Lemma 2.1 and the clustering of Algorithm 1 both read it with
        ``separation = 2µ``.  Cached per ``separation`` in the hop-topology
        slot, like :meth:`hop_diameter`; the arrays are read-only.
        """
        if separation < 0:
            raise ValueError("separation must be non-negative")
        cache = self._hop_cache
        if separation not in cache:
            cache[separation] = csr_kernels.ruler_clustering(self.csr(), separation)
        return cache[separation]

    def is_connected(self) -> bool:
        """Whether the graph is connected (the paper assumes ``G`` connected).

        Reads the component sizes cached on the frozen CSR view -- the ones
        the ``d_h`` hop certificate reads (:func:`repro.graphs.csr.component_sizes`).
        """
        return int(csr_kernels.component_sizes(self.csr())[0]) == self._n

    # ----------------------------------------------------------- conversion
    def copy(self) -> "WeightedGraph":
        """Copy of the edge map at version 0, with no delta or cache shared."""
        clone = WeightedGraph(self._n)
        clone._weights = dict(self._weights)
        return clone

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int, int]]) -> "WeightedGraph":
        """Build from an iterable of ``(u, v, weight)`` triples."""
        result = cls(n)
        for u, v, w in edges:
            result.add_edge(u, v, w)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WeightedGraph(n={self._n}, m={len(self._weights)})"
