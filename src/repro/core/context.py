"""Prepared skeleton state shared between shortest-path queries.

Every algorithm of the paper pays the same ``Õ(√n)``-shaped preprocessing
before it answers anything: build a skeleton (Algorithm 6), optionally make
its edge set public knowledge (token dissemination) and solve APSP on it
locally, and optionally stand up the CLIQUE-simulation transport (helper sets
plus the shared routing hash).  :class:`SkeletonContext` packages that state
so it can be computed once and passed to any number of queries; the lazily
built pieces charge their rounds on first use under the phase the first
caller names and are free afterwards.

The entry points (:func:`repro.core.apsp.apsp_exact`,
:func:`repro.core.kssp.shortest_paths_via_clique`,
:func:`repro.core.sssp.sssp_exact`,
:func:`repro.core.diameter.approximate_diameter`,
:func:`repro.baselines.apsp_broadcast.apsp_broadcast_baseline`) accept an
optional prepared context; without one they build it inline with exactly the
calls, phases and RNG forks they issued before the extraction, so the cold
path is bit-identical.  :class:`repro.session.HybridSession` is the cache in
front of this module.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.clique_simulation import HybridCliqueTransport
from repro.core.skeleton import Skeleton, compute_skeleton, skeleton_from_exploration
from repro.core.token_routing import TokenRouter
from repro.graphs.graph import GraphDelta
from repro.graphs.skeleton_analysis import skeleton_hop_length
from repro.hybrid.errors import StaleContextError
from repro.hybrid.network import HybridNetwork
from repro.localnet.flooding import LimitedExploration
from repro.localnet.token_dissemination import disseminate_tokens

#: Fraction of exploration rows a delta batch may damage before
#: :meth:`SkeletonContext.repair` refuses and the owner rebuilds cold: past
#: this point the incremental path re-does most of the cold exploration's
#: work anyway, so the simpler full rebuild is preferred (DESIGN.md §12).
DAMAGE_THRESHOLD = 0.5


def _estimated_damage(
    endpoint_rows: dict[int, np.ndarray], deltas: Sequence[GraphDelta], n: int
) -> np.ndarray:
    """Per-row estimate of which exploration rows a delta batch perturbs.

    ``endpoint_rows[x]`` is the old exploration's ``d_h`` row of a delta
    endpoint ``x``, which by symmetry is also the column ``d_h(·, x)``.
    The *decision* metric behind the damage threshold: a row ``s`` is counted
    as damaged when some mutated edge is plausibly on one of its ``d_h``
    shortest paths -- the edge is *tight* from ``s`` in the old exploration
    (``d_h(s,u) + w == d_h(s,v)`` either way round, tested only where both
    columns are finite; removals and weight increases only matter on such
    rows) or the new weight creates an improving detour (``d_h(s,u) + w_new
    <= d_h(s,v)``; additions and weight decreases).  This is an estimate,
    not a certificate: correctness never depends on it, because
    :meth:`SkeletonContext.repair` *recomputes* the sound superset of rows
    (anything that can reach an endpoint within ``h`` hops in the old or new
    topology).  At simulation scale that superset is usually "everyone" --
    ``h`` rivals the diameter -- which would make a superset-based threshold
    refuse every repair; the tight estimate instead tracks how much of the
    published state actually moves (DESIGN.md §12).
    """
    damaged = np.zeros(n, dtype=bool)
    for delta in deltas:
        to_u = endpoint_rows[delta.u]
        to_v = endpoint_rows[delta.v]
        finite_u = np.isfinite(to_u)
        finite_v = np.isfinite(to_v)
        if delta.old_weight is not None:  # the edge existed: tightness test
            # Only where both columns are finite: an edge is never tight
            # towards an endpoint the row cannot see.
            both = np.flatnonzero(finite_u & finite_v)
            gap = np.abs(to_u[both] - to_v[both])
            damaged[both] |= np.abs(gap - delta.old_weight) < 1e-9
        if delta.weight is not None and (
            delta.old_weight is None or delta.weight < delta.old_weight
        ):  # the edge is new or got cheaper: improvement test
            w = delta.weight
            damaged |= finite_u & (to_u + w <= to_v)
            damaged |= finite_v & (to_v + w <= to_u)
    return damaged


def _edge_tokens(
    skeleton: Skeleton, edges: np.ndarray
) -> dict[int, list[tuple[int, int, int | None]]]:
    """Dissemination tokens ``(u, v, weight)`` of the skeleton edges marked in ``edges``.

    ``edges`` is a boolean upper-triangle mask over skeleton indices; tokens
    carry original IDs, are held by ``u`` and are listed by ``(u, v)``.  An
    edge absent from the skeleton (a removal) carries weight None -- the
    token is then a retraction.
    """
    tokens: dict[int, list[tuple[int, int, int | None]]] = {}
    nodes = skeleton.nodes
    for u, v in zip(*(index.tolist() for index in np.nonzero(edges)), strict=True):
        weight = skeleton.weights[u, v]
        tokens.setdefault(nodes[u], []).append(
            (nodes[u], nodes[v], int(weight) if weight != np.inf else None)
        )
    return tokens


@dataclass
class SkeletonContext:
    """One skeleton plus the derived preprocessing state queries share.

    Attributes
    ----------
    network:
        The network the context was prepared on.
    skeleton:
        The constructed skeleton; its exploration (member rows eagerly, the
        full ``d_h`` matrix only once an APSP query reads it) is what
        :meth:`extended` and :meth:`repair` derive new skeletons from.
    graph_version:
        :attr:`WeightedGraph.version` at construction time; a context whose
        version no longer matches the graph is stale (see :meth:`is_current`).
    skeleton_rounds:
        Rounds charged by the skeleton construction (shared by every query
        kind; an :meth:`extended` context inherits it -- the exploration is
        the same work).

    The lazy pieces -- the published skeleton distance matrix, the CLIQUE
    transport, the APSP token router -- are built on first request under the
    phase name the requesting query passes, charged once into their own
    counters (``publish_rounds`` / ``transport_rounds`` / ``router_rounds``),
    and cached.  Per-piece counters let the session charge a query's
    cold-equivalent accounting with exactly the pieces that query kind
    consumes (an SSSP query never pays for the APSP edge publication).
    """

    network: HybridNetwork
    skeleton: Skeleton
    graph_version: int
    skeleton_rounds: int
    publish_rounds: int = 0
    transport_rounds: int = 0
    router_rounds: int = 0
    #: Rounds charged by delta repairs that produced this context (summed
    #: across a repair chain).  Deliberately *not* part of the per-query
    #: cold-equivalent counters: a cold run never pays repair, so
    #: ``cold_rounds`` must not include it -- repair charges land in the
    #: owner's preprocessing ledger instead (DESIGN.md §12).
    repair_rounds: int = 0
    #: ``d_h`` rows the repair that produced this context recomputed (0 for a
    #: context that no repair produced).
    repair_rows: int = 0
    #: Stable name for phases charged by the lazy pieces when the *owner* of
    #: the context (rather than a query) realises them -- the session names
    #: contexts after their cache key so preparation phases are independent
    #: of which query arrives first.
    label: str = "skeleton-context"
    _skeleton_distances: np.ndarray | None = field(default=None, repr=False)
    _transport: HybridCliqueTransport | None = field(default=None, repr=False)
    _apsp_router: TokenRouter | None = field(default=None, repr=False)
    _extensions: dict[frozenset[int], "SkeletonContext"] = field(
        default_factory=dict, repr=False
    )

    # ----------------------------------------------------------------- status
    def is_current(self) -> bool:
        """Whether the underlying graph is unchanged since preparation."""
        return self.network.graph.version == self.graph_version

    @property
    def preparation_rounds(self) -> int:
        """Total rounds charged preparing this context (all pieces)."""
        return (
            self.skeleton_rounds
            + self.publish_rounds
            + self.transport_rounds
            + self.router_rounds
        )

    @property
    def apsp_preparation_rounds(self) -> int:
        """Preparation an APSP query consumes: skeleton + publication + router."""
        return self.skeleton_rounds + self.publish_rounds + self.router_rounds

    @property
    def simulation_preparation_rounds(self) -> int:
        """Preparation a CLIQUE-simulation query consumes: skeleton + transport."""
        return self.skeleton_rounds + self.transport_rounds

    # ------------------------------------------------------------ lazy pieces
    def published_skeleton_distances(self, phase: str) -> np.ndarray:
        """The all-pairs skeleton distance matrix after publishing ``E_S``.

        First call disseminates the skeleton edges (``Õ(|V_S|)`` rounds,
        charged under ``phase``) and solves APSP on the skeleton locally;
        later calls return the cached matrix for free -- every node already
        knows ``E_S``.
        """
        if self._skeleton_distances is None:
            rounds_before = self.network.metrics.total_rounds
            edges = np.triu(np.isfinite(self.skeleton.weights), 1)
            disseminate_tokens(self.network, _edge_tokens(self.skeleton, edges), phase=phase)
            self._skeleton_distances = self.skeleton.distances()
            self.publish_rounds += self.network.metrics.total_rounds - rounds_before
        return self._skeleton_distances

    def transport(self, phase: str) -> HybridCliqueTransport:
        """The CLIQUE-simulation transport for this skeleton (built once).

        Construction announces the skeleton membership and builds the helper
        sets and the shared routing hash of Corollary 4.1 -- all reusable
        across queries; only the per-round routing instances are paid per
        query.  Callers measuring CLIQUE rounds per query must diff
        ``transport.rounds_used`` around their simulation.
        """
        if self._transport is None:
            rounds_before = self.network.metrics.total_rounds
            self._transport = HybridCliqueTransport(self.network, self.skeleton, phase=phase)
            self.transport_rounds += self.network.metrics.total_rounds - rounds_before
        return self._transport

    def apsp_router(self, phase: str) -> TokenRouter:
        """The Theorem 1.1 token router (senders = V, receivers = V_S).

        The helper sets and the shared hash are a pure function of the
        endpoint populations, so one router serves every APSP query on this
        skeleton; its setup rounds are charged on first build only.
        """
        if self._apsp_router is None:
            rounds_before = self.network.metrics.total_rounds
            skeleton = self.skeleton
            self._apsp_router = TokenRouter(
                self.network,
                senders=list(range(self.network.n)),
                receivers=list(skeleton.nodes),
                max_tokens_per_sender=max(1, skeleton.size),
                max_tokens_per_receiver=self.network.n,
                phase=phase,
            )
            self.router_rounds += self.network.metrics.total_rounds - rounds_before
        return self._apsp_router

    # ----------------------------------------------------------------- repair
    def repair(self, deltas: Sequence[GraphDelta]) -> "SkeletonContext" | None:
        """Patch this context to the current graph, or None for a cold rebuild.

        Given the contiguous :class:`~repro.graphs.graph.GraphDelta` batch
        that carried the graph from this context's ``graph_version`` to the
        current one, re-runs the depth-``h`` exploration *only from the
        damaged sources* (sources that could see a mutated endpoint in the
        old or new topology), rebuilds the skeleton from the patched rows,
        and -- when the skeleton edge publication had been materialised --
        re-disseminates only the changed/retracted skeleton edges through
        the token-dissemination machinery.  Which rows are patched depends
        on what the old exploration holds: when an APSP query had built its
        full matrix, every damaged row of it is patched in a copy and handed
        to the repaired skeleton, so the next APSP query pays nothing extra;
        otherwise only the damaged members' rows are recomputed.  The
        decision reads the old exploration's rows of the delta endpoints
        either way, and the repaired context records how many rows it
        recomputed in ``repair_rows``.  On weight-only delta batches the
        CLIQUE transport and the APSP router survive: helper sets, the
        routing hash and the padding plan are functions of the hop topology,
        the skeleton membership and the RNG labels alone, so they are
        exactly what a cold rebuild would reconstruct.

        Determinism contract (DESIGN.md §12): skeleton sampling is a pure
        function of the seed and the phase label, so a cold rebuild after
        the mutation draws the *same* skeleton node set; every patched row
        equals the row a full re-exploration would produce (the batched
        kernels compute rows independently per source, and an undamaged row
        cannot see the mutation).  A repaired context is therefore
        bit-identical to a cold rebuild in its distance matrices, routing
        plans and RNG fork labels -- only the rounds paid to get there
        differ, and those are charged under ``<label>:repair:*`` phases and
        accumulated in ``repair_rounds``.

        Returns None -- leaving ``self`` untouched -- when repair is not
        worthwhile or not possible: a delta endpoint is a skeleton member,
        the cold build had doubled the exploration depth for connectivity,
        the estimated damage (:func:`_estimated_damage`, the fraction of rows
        whose published distances plausibly move) exceeds the fixed
        :data:`DAMAGE_THRESHOLD`, the delta log did not cover the version
        gap (empty batch), or the patched skeleton comes out disconnected
        (detected after the repair flood; those rounds are honestly kept).
        """
        network = self.network
        if self.is_current():
            return self
        if not deltas:
            return None
        base = self.skeleton
        if any(delta.u in base.index_of or delta.v in base.index_of for delta in deltas):
            return None
        expected_hop_length = skeleton_hop_length(
            network.n,
            1.0 / base.sampling_probability,
            xi=network.config.skeleton_xi,
        )
        if base.hop_length != expected_hop_length:
            # The cold build doubled h until the skeleton connected; replaying
            # that search incrementally is not worth the complexity.
            return None
        # The old exploration's rows of the delta endpoints: by symmetry they
        # are the columns d_h(., u) both the decision and the superset read.
        old = base.exploration
        hop_length = base.hop_length
        endpoints = sorted({node for delta in deltas for node in (delta.u, delta.v)})
        endpoint_rows = old.rows(endpoints)
        to_endpoint = dict(zip(endpoints, endpoint_rows, strict=True))
        if int(_estimated_damage(to_endpoint, deltas, network.n).sum()) > (
            DAMAGE_THRESHOLD * network.n
        ):
            return None
        # The rows actually recomputed are the sound superset: anything that
        # could reach a mutated endpoint within h hops, old or new topology.
        # The old rows' finite entries cover both: a new path of at most h
        # hops reaches its first delta endpoint through old edges only
        # (DESIGN.md §12).
        snapshot = network.graph.csr()
        damaged = np.isfinite(endpoint_rows).any(axis=0)

        # The repair flood: the delta records propagate h hops so every
        # damaged source can re-derive its d_h row -- min(h, D) local rounds,
        # like the cold exploration, but none of the cold global phases.
        rounds_before = network.metrics.total_rounds
        network.charge_local_rounds(hop_length, phase=self.label + ":repair:exploration")
        exploration = LimitedExploration(snapshot, hop_length)
        if old.materialised:
            # Patch the full matrix, so the next APSP query pays nothing.
            stale = np.flatnonzero(damaged)
            patched = np.array(old.matrix(), copy=True)
            patched[stale] = exploration.rows(stale)
            exploration = LimitedExploration(snapshot, hop_length, patched)
            rows = exploration.rows(base.nodes)
        else:
            # Only the members' rows exist; recompute the damaged ones.
            members = np.asarray(base.nodes, dtype=np.int64)
            rows = np.array(base.near_distances.T)
            stale = np.flatnonzero(damaged[members])
            rows[stale] = exploration.rows(members[stale])
        skeleton = skeleton_from_exploration(
            exploration, base.nodes, rows, base.sampling_probability, base.rounds_charged
        )
        if not skeleton.is_connected():
            return None
        weight_only = all(not delta.topological for delta in deltas)
        repaired = SkeletonContext(
            network=network,
            skeleton=skeleton,
            graph_version=network.graph.version,
            skeleton_rounds=self.skeleton_rounds,
            publish_rounds=self.publish_rounds,
            # On a topology delta the transport/router are dropped and their
            # counters restart: the lazy rebuild re-charges them exactly as a
            # cold context would.
            transport_rounds=self.transport_rounds if weight_only else 0,
            router_rounds=self.router_rounds if weight_only else 0,
            label=self.label,
            repair_rows=int(stale.size),
        )
        if self._skeleton_distances is not None:
            # Changed and removed skeleton edges; a removal is a retraction token.
            changed = np.triu(base.weights != skeleton.weights, 1)
            if changed.any():
                disseminate_tokens(
                    network,
                    _edge_tokens(skeleton, changed),
                    phase=self.label + ":repair:publish",
                )
            repaired._skeleton_distances = skeleton.distances()
        if weight_only:
            repaired._transport = self._transport
            repaired._apsp_router = self._apsp_router
            if repaired._transport is not None:
                # The transport's exchange plan only reads skeleton membership
                # (unchanged); point it at the repaired skeleton so later
                # callers never see the stale edge weights through it.
                repaired._transport.skeleton = skeleton
        repaired.repair_rounds = self.repair_rounds + (
            network.metrics.total_rounds - rounds_before
        )
        return repaired

    # -------------------------------------------------------------- extension
    def extended(self, members: Sequence[int]) -> "SkeletonContext" | None:
        """A derived context whose skeleton additionally contains ``members``.

        Algorithm 6 adds a query's source to the skeleton deterministically
        (Lemma 4.5).  The base exploration already delivered ``d_h(v, u)``
        for *all* ``u``, sampled or not, so the derived skeleton costs no
        additional rounds: the simulator computes the new members' ``d_h``
        rows from the base exploration's snapshot (or slices them from its
        full matrix when that is built) and merges them with the base
        members' rows.  Only the skeleton's identity still has to be
        announced, which the query's own phases cover.

        Returns None when the enlarged skeleton is disconnected at the base
        hop length (the caller then prepares a fresh context with the member
        forced in, exactly like a cold run).  Derived contexts are cached per
        member set and share the base exploration, including its cached full
        matrix.

        Raises :class:`~repro.hybrid.errors.StaleContextError` when the base
        is stale: a derived context copies ``graph_version`` from its base,
        so extending a stale base would mint a context that *looks* current
        while its distances describe a graph that no longer exists
        (DESIGN.md §12) -- the owner must repair or rebuild first.
        """
        for member in members:
            if not 0 <= member < self.network.n:
                raise ValueError(f"skeleton member {member} outside the network")
        if not self.is_current():
            raise StaleContextError(
                f"cannot extend a stale context: graph at version "
                f"{self.network.graph.version}, context built at {self.graph_version}"
            )
        extra = frozenset(members) - frozenset(self.skeleton.nodes)
        if not extra:
            return self
        cached = self._extensions.get(extra)
        if cached is not None:
            return cached

        # Only the new members' rows are computed (sliced from the full
        # matrix when some APSP query already built it); the derived skeleton
        # shares the base exploration and hence its cached full matrix.
        base = self.skeleton
        members = base.nodes + sorted(extra)
        order = np.argsort(members, kind="stable")
        rows = np.concatenate((base.near_distances.T, base.exploration.rows(sorted(extra))))
        skeleton = skeleton_from_exploration(
            base.exploration,
            [members[index] for index in order],
            rows[order],
            base.sampling_probability,
            0,
        )
        if not skeleton.is_connected():
            return None
        derived = SkeletonContext(
            network=self.network,
            skeleton=skeleton,
            graph_version=self.graph_version,
            skeleton_rounds=self.skeleton_rounds,
            label=self.label + "+" + ",".join(str(node) for node in sorted(extra)),
        )
        self._extensions[extra] = derived
        return derived


def prepare_skeleton_context(
    network: HybridNetwork,
    sampling_probability: float,
    forced_members: Sequence[int] = (),
    phase: str = "skeleton",
    label: str | None = None,
) -> SkeletonContext:
    """Run the shared preprocessing prologue: one skeleton, wrapped for reuse.

    Calls :func:`~repro.core.skeleton.compute_skeleton` with exactly the
    given phase (so a cold entry point that prepares its context inline
    forks the same RNG labels and charges the same phases as the
    pre-extraction code did) and records the rounds as the context's
    preparation cost.  The skeleton is always made connected
    (``ensure_connected=True``) and keeps its exploration, which every
    query kind, :meth:`SkeletonContext.extended` and
    :meth:`SkeletonContext.repair` read.
    """
    rounds_before = network.metrics.total_rounds
    skeleton = compute_skeleton(
        network,
        sampling_probability,
        forced_members=forced_members,
        phase=phase,
        ensure_connected=True,
    )
    return SkeletonContext(
        network=network,
        skeleton=skeleton,
        graph_version=network.graph.version,
        skeleton_rounds=network.metrics.total_rounds - rounds_before,
        label=phase if label is None else label,
    )
