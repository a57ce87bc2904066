"""Multi-query serving on one HYBRID network: the :class:`HybridSession` facade.

Every algorithm in this library pays the same ``Õ(√n)``-shaped preprocessing
-- skeleton construction, edge dissemination, helper sets, the shared routing
hash -- before answering a query.  The one-shot entry points
(:func:`~repro.core.apsp.apsp_exact` and friends) rebuild that state on every
call; a :class:`HybridSession` owns the :class:`HybridNetwork` and a keyed
cache of prepared :class:`~repro.core.context.SkeletonContext` objects and
:class:`~repro.core.token_routing.TokenRouter` endpoints, so a stream of
queries against the same graph pays the preprocessing once.

Accounting (see DESIGN.md §6): preprocessing charges accumulate in
:attr:`HybridSession.preprocessing`; every query runs inside a metrics scope
(:meth:`RoundMetrics.scoped`) and leaves a :class:`QueryRecord` with its
*amortized* per-query :class:`RoundMetrics` next to the *cold-equivalent*
round count (amortized + the preparation cost of the reused state).  All
cached state is keyed by the graph's mutation counter
(:attr:`WeightedGraph.version`, the CSR freeze/invalidate pattern).  When the
graph mutates under the session, the next query resolves the version
mismatch through *delta repair* (DESIGN.md §12): every cached context is
patched in place via :meth:`SkeletonContext.repair` using the graph's delta
log, falling back to a cold rebuild per key when the damage rule (a fixed
fraction of damaged exploration rows, not a session setting) says so;
each decision is recorded in :attr:`HybridSession.repairs` and the repair
rounds land in the preprocessing ledger, so the amortized-vs-cold invariant
("amortized + preprocessing = network total") keeps holding.  Repaired
answers are bit-identical to cold rebuilds.  Calling :meth:`HybridSession.invalidate`
after a mutation drops everything instead (the E17 cold-rebuild baseline).

By default every query of a session shares one canonical skeleton sampled
with probability ``1/√n`` (the Theorem 1.1 optimum; exact for APSP and, with
the source force-added via Lemma 4.5, for SSSP).  Query results are therefore
a deterministic function of the session configuration alone -- independent of
the order queries arrive in -- which is what makes warm and cold answers
comparable bit for bit.  Per-query ``probability=`` overrides prepare (and
cache) additional skeletons keyed by their sampling probability.

Sessions serialize: every public query method holds an internal re-entrant
lock for the duration of the simulation, so a session shared between threads
(the serving layer runs all simulation on one executor thread, DESIGN.md §11)
answers queries one at a time with consistent caches and accounting.

Quick start::

    from repro import HybridSession, ModelConfig, generators
    from repro.util.rand import RandomSource

    graph = generators.connected_workload(200, RandomSource(1))
    session = HybridSession(graph, ModelConfig(rng_seed=1))
    apsp = session.apsp()              # pays the preprocessing
    sssp = session.sssp(0)             # reuses it: amortized cost only
    diam = session.diameter()
    for record in session.queries:
        print(record.kind, record.amortized_rounds, record.cold_rounds)
"""

from __future__ import annotations

import dataclasses
import math
import threading
import zlib
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass

from repro.clique import BroadcastBellmanFordSSSP, GatherDiameter, GatherShortestPaths
from repro.clique.interfaces import CliqueDiameterAlgorithm, CliqueShortestPathAlgorithm
from repro.core.apsp import APSPResult, apsp_exact
from repro.core.context import SkeletonContext, prepare_skeleton_context
from repro.core.diameter import DiameterResult, approximate_diameter, check_diameter_input
from repro.core.kssp import (
    ShortestPathsResult,
    check_skeleton_sources,
    shortest_paths_via_clique,
)
from repro.core.sssp import SSSPResult, sssp_exact
from repro.core.token_routing import (
    RoutingToken,
    TokenRouter,
    TokenRoutingResult,
    deliver_tokens,
    endpoint_loads,
    token_labels,
)
from repro.graphs.csr import HOP_DIAMETER_SELECTION, HOP_LIMITED_SELECTION
from repro.graphs.graph import WeightedGraph
from repro.hybrid.config import ModelConfig
from repro.hybrid.faults import FaultModel
from repro.hybrid.metrics import RoundMetrics
from repro.hybrid.network import HybridNetwork

#: Cache key of one prepared skeleton: (sampling probability, forced members).
ContextKey = tuple[float, frozenset[int]]

#: Cache key of one reusable token-routing endpoint:
#: (senders, receivers, max tokens per sender, max tokens per receiver).
RouterKey = tuple[frozenset[int], frozenset[int], int, int]


@dataclass
class QueryRecord:
    """Accounting for one query answered by a session.

    Attributes
    ----------
    kind:
        ``"apsp"``, ``"sssp"``, ``"shortest-paths"``, ``"diameter"`` or
        ``"route-tokens"``.
    metrics:
        The query's own charges (rounds, messages, bits, per-round maxima),
        captured by a metrics scope -- the *amortized* cost, excluding all
        shared preprocessing.
    preparation_rounds:
        Preprocessing rounds newly charged *by this query* (non-zero when the
        query was the first to need some cached piece; zero on a fully warm
        cache).
    shared_preparation_rounds:
        Preparation cost of exactly the cached pieces this query kind
        consumes (e.g. skeleton + CLIQUE transport for SSSP; never the APSP
        edge publication) -- what the query would additionally have paid had
        it been asked cold on this session.
    result:
        The underlying result object the query returned, or None unless the
        session was opened with ``keep_results=True`` -- a serving session
        answers an unbounded stream of queries, and pinning every APSP matrix
        in the query log would grow memory without bound.
    """

    kind: str
    metrics: RoundMetrics
    preparation_rounds: int
    shared_preparation_rounds: int
    result: object

    @property
    def amortized_rounds(self) -> int:
        """Rounds this query actually cost on the warm session."""
        return self.metrics.total_rounds

    @property
    def cold_rounds(self) -> int:
        """Rounds a cold run on this query's prepared state would have cost."""
        return self.metrics.total_rounds + self.shared_preparation_rounds


@dataclass(frozen=True)
class RepairRecord:
    """One per-key resolution of a graph-version mismatch (DESIGN.md §12).

    Attributes
    ----------
    key_tag:
        The context cache key the decision was made for (the same tag that
        names the key's preparation phases).
    action:
        ``"repaired"`` when :meth:`SkeletonContext.repair` patched the cached
        context, ``"rebuilt"`` when the damage rule refused and the key was
        dropped (the next query needing it re-prepares cold).
    deltas:
        Number of graph mutations the decision covered.
    rounds:
        Network rounds charged by the repair attempt (0 for an uncharged
        refusal); accounted in the session's preprocessing ledger.
    rows:
        ``d_h`` rows the repair recomputed (0 for a refusal): the damaged
        rows of the old exploration, those that could see a mutated
        endpoint within ``h`` hops (:meth:`SkeletonContext.repair`).
    """

    key_tag: str
    action: str
    deltas: int
    rounds: int
    rows: int


class HybridSession:
    """A serving session over one graph: shared preprocessing, many queries.

    Parameters
    ----------
    graph:
        The local communication graph (owned by the session's network).
    config:
        Model constants; defaults to :class:`ModelConfig()`.
    skeleton_probability:
        Sampling probability of the session's canonical skeleton; defaults to
        the Theorem 1.1 optimum ``1/√n``.  Every query uses this skeleton
        unless it passes its own ``probability=``.
    keep_results:
        When True, each :class:`QueryRecord` retains the query's result
        object; off by default so the query log holds only the accounting.
    fault_model:
        Optional :class:`~repro.hybrid.faults.FaultModel` the session's
        network runs under; it overrides ``config.faults``.  With faults
        active, ``apsp()/sssp()/diameter()`` and the other queries execute
        the loss-tolerant retransmitting protocols (and raise
        :class:`~repro.hybrid.errors.FaultToleranceExceededError` when a
        schedule beats the retry budget); without it -- or with a model whose
        ``enabled`` is False -- every query is bit-identical to the
        fault-free path (pinned by tests/test_faults.py).
    """

    def __init__(
        self,
        graph: WeightedGraph,
        config: ModelConfig | None = None,
        *,
        skeleton_probability: float | None = None,
        keep_results: bool = False,
        fault_model: FaultModel | None = None,
    ) -> None:
        if fault_model is not None:
            config = dataclasses.replace(config or ModelConfig(), faults=fault_model)
        self.network = HybridNetwork(graph, config)
        if skeleton_probability is None:
            skeleton_probability = min(1.0, 1.0 / math.sqrt(max(1, self.network.n)))
        if not 0 < skeleton_probability <= 1:
            raise ValueError("skeleton_probability must be in (0, 1]")
        self.skeleton_probability = skeleton_probability
        self.keep_results = keep_results
        #: Rounds (and traffic) charged preparing shared state, across all keys.
        self.preprocessing = RoundMetrics()
        #: One record per answered query, in order.
        self.queries: list[QueryRecord] = []
        #: One :class:`RepairRecord` per (mutation batch, cached key) decision.
        self.repairs: list[RepairRecord] = []
        self._contexts: dict[ContextKey, SkeletonContext] = {}
        self._routers: dict[RouterKey, tuple[TokenRouter, int]] = {}
        self._graph_version = graph.version
        self._active_preparation: RoundMetrics | None = None
        # Serializes the public query surface: the network, the caches and
        # the accounting are single-writer state, so concurrent callers (the
        # serving layer's executor thread plus anything else) take turns.
        # Re-entrant because queries call back into context()/_preparing().
        self._lock = threading.RLock()

    # ------------------------------------------------------------- properties
    @property
    def graph(self) -> WeightedGraph:
        """The session's graph (mutations invalidate all cached state)."""
        return self.network.graph

    @property
    def metrics(self) -> RoundMetrics:
        """The network's cumulative counters (preprocessing + all queries)."""
        return self.network.metrics

    @property
    def last_query(self) -> QueryRecord | None:
        """The most recent query's accounting record (None before any query)."""
        return self.queries[-1] if self.queries else None

    @property
    def preprocessing_rounds(self) -> int:
        """Total rounds spent on shared preprocessing so far."""
        return self.preprocessing.total_rounds

    def acceleration(self) -> dict[str, object]:
        """Which implementation serves each hot path (diagnostics).

        Every session runs the same code: the batched graph kernels of
        :mod:`repro.graphs.csr` and the array message plane of
        :mod:`repro.hybrid.network` (DESIGN.md §4).  ``hop_limited_matrix``
        has two passes for its bounded distances and ``hop_diameter`` two
        ways to finish after its first search; the report names both of each
        and the rule that picks one per call (DESIGN.md §9).  Experiment logs
        record the report so a run says which kernels produced it.
        """
        return {
            "graph_backend": "csr",
            "message_plane": "vectorized",
            "kernels": {
                "distance_matrix": "scipy",
                "bfs_level_matrix": "scipy",
                "hop_limited_matrix": HOP_LIMITED_SELECTION,
                "hop_diameter": HOP_DIAMETER_SELECTION,
            },
        }

    # ------------------------------------------------------------ invalidation
    def invalidate(self) -> None:
        """Drop every cached context and router (forced cold restart).

        The next query of any kind re-prepares from scratch, exactly as on a
        fresh session (DESIGN.md §6).
        """
        with self._lock:
            self._contexts.clear()
            self._routers.clear()
            self._graph_version = self.graph.version

    def _check_version(self) -> None:
        """Resolve a graph-version mismatch by delta repair (DESIGN.md §12).

        With the delta log covering the gap, every cached context is offered the delta batch: a successful repair keeps the key
        warm (bit-identical to a cold rebuild), a refusal drops the key so
        the next query needing it re-prepares cold.  Routers survive
        weight-only batches (helper sets are hop-topology functions) and are
        dropped otherwise.  Without usable deltas, everything is invalidated
        as before.  Each per-key decision is appended to :attr:`repairs` and
        repair rounds are charged to the preprocessing ledger.
        """
        with self._lock:
            if self.graph.version == self._graph_version:
                return
            deltas = self.graph.deltas_since(self._graph_version)
            if not deltas:
                self.invalidate()
                return
            surviving: dict[ContextKey, SkeletonContext] = {}
            with self._preparing():
                for key in sorted(self._contexts, key=self._key_tag):
                    context = self._contexts[key]
                    rounds_before = self.network.metrics.total_rounds
                    repaired = context.repair(deltas)
                    rounds = self.network.metrics.total_rounds - rounds_before
                    if repaired is None:
                        action, rows = "rebuilt", 0
                    else:
                        action, rows = "repaired", repaired.repair_rows
                        surviving[key] = repaired
                    self.repairs.append(
                        RepairRecord(self._key_tag(key), action, len(deltas), rounds, rows)
                    )
            self._contexts = surviving
            if any(delta.topological for delta in deltas):
                self._routers.clear()
            self._graph_version = self.graph.version

    def add_edge(self, u: int, v: int, weight: int = 1) -> None:
        """Mutate the graph; cached preprocessing is delta-repaired lazily."""
        with self._lock:
            self.graph.add_edge(u, v, weight)

    def update_weight(self, u: int, v: int, weight: int) -> None:
        """Re-weight an existing edge; the cheapest mutation to repair after.

        A weight-only delta keeps the hop topology, so the next query's
        repair pass retains the CLIQUE transport, the APSP router and the
        token routers, and only patches distances (DESIGN.md §12).
        """
        with self._lock:
            self.graph.update_weight(u, v, weight)

    def remove_edge(self, u: int, v: int) -> None:
        """Mutate the graph; cached preprocessing is delta-repaired lazily."""
        with self._lock:
            self.graph.remove_edge(u, v)

    # ------------------------------------------------------------ preparation
    @contextmanager
    def _preparing(self) -> Iterator[RoundMetrics]:
        """Scope whose charges count as shared preprocessing.

        Re-entrant: a nested ``_preparing`` (a query's preparation step
        calling :meth:`context`, which opens its own) joins the active outer
        scope instead of double-counting its charges.
        """
        if self._active_preparation is not None:
            yield self._active_preparation
            return
        with self.network.metrics.scoped() as scope:
            self._active_preparation = scope
            try:
                yield scope
            finally:
                # Merge even when preparation raises, so a failed build can
                # never leave rounds charged to the network but missing from
                # the session's preprocessing ledger (the "amortized +
                # preprocessing = total" invariant).
                self._active_preparation = None
                self.preprocessing.merge(scope)

    @staticmethod
    def _key_tag(key: ContextKey) -> str:
        probability, forced = key
        tag = f"p{probability:.6g}"
        if forced:
            tag += "+" + ",".join(str(node) for node in sorted(forced))
        return tag

    def context(
        self, probability: float | None = None, forced_members: Sequence[int] = ()
    ) -> SkeletonContext:
        """The prepared context for one cache key, building it if needed.

        Preparation phases are named after the key alone (not after the query
        that happened to trigger the build), so the skeleton a key yields is
        the same no matter which query arrives first -- warm answers equal
        cold ones by construction.

        Staleness is re-checked on *every* cache hit, not only in the
        version sync: a mutation racing in from outside the session lock
        between the sync and the cache read would otherwise serve a context
        for a graph that no longer exists (DESIGN.md §12).  A stale hit
        loops back through :meth:`_check_version` (repair or rebuild) until
        the returned context is current.
        """
        with self._lock:
            key: ContextKey = (
                self.skeleton_probability if probability is None else probability,
                frozenset(forced_members),
            )
            while True:
                self._check_version()
                context = self._contexts.get(key)
                if context is None:
                    tag = self._key_tag(key)
                    with self._preparing():
                        context = prepare_skeleton_context(
                            self.network,
                            key[0],
                            forced_members=sorted(key[1]),
                            phase=f"session:{tag}:skeleton",
                            label=f"session:{tag}",
                        )
                    self._contexts[key] = context
                if context.is_current():
                    return context
                if self.graph.version == self._graph_version:
                    # The session-level version is in step but this entry is
                    # not (possible only if the entry was planted out of
                    # band): drop it so the loop rebuilds rather than spins.
                    del self._contexts[key]

    def _context_with_members(self, members: Sequence[int]) -> SkeletonContext:
        """The canonical context extended to contain ``members`` (Lemma 4.5).

        The extension reuses the base exploration, so it costs no extra
        rounds; if the enlarged skeleton would be disconnected at the base
        hop length (rare at simulation scale), a dedicated context with the
        members forced in is prepared and cached instead.
        """
        base = self.context()
        extended = base.extended(members)
        if extended is not None:
            return extended
        return self.context(forced_members=sorted(members))

    # ----------------------------------------------------------------- queries
    def _record(
        self,
        kind: str,
        scope: RoundMetrics,
        preparation_rounds: int,
        shared_preparation_rounds: int,
        result: object,
    ) -> QueryRecord:
        record = QueryRecord(
            kind=kind,
            metrics=scope,
            preparation_rounds=preparation_rounds,
            shared_preparation_rounds=shared_preparation_rounds,
            result=result if self.keep_results else None,
        )
        self.queries.append(record)
        return record

    def _query_phase(self, kind: str) -> str:
        return f"query{len(self.queries)}:{kind}"

    def apsp(self, probability: float | None = None) -> APSPResult:
        """Exact APSP (Theorem 1.1) on the session's prepared skeleton.

        Args:
            probability: Optional skeleton sampling probability override; the
                default is the session's canonical ``1/√n`` skeleton.

        Returns:
            :class:`~repro.core.apsp.APSPResult` with the exact ``n×n``
            distance matrix (``inf`` entries for unreachable pairs).

        Raises:
            ValueError: if ``probability`` is outside ``(0, 1]``.

        Accounting follows DESIGN.md §6; the serving layer (DESIGN.md §11)
        coalesces identical concurrent APSP queries onto one call.
        """
        with self._lock:
            with self._preparing() as prep:
                context = self.context(probability)
                context.published_skeleton_distances(context.label + ":publish-skeleton")
                context.apsp_router(context.label + ":routing")
            with self.network.metrics.scoped() as scope:
                result = apsp_exact(
                    self.network, phase=self._query_phase("apsp"), context=context
                )
            self._record(
                "apsp", scope, prep.total_rounds, context.apsp_preparation_rounds, result
            )
            return result

    def sssp(
        self,
        source: int,
        algorithm: CliqueShortestPathAlgorithm | None = None,
    ) -> SSSPResult:
        """Exact SSSP (Theorem 1.3); the source joins the shared skeleton.

        Args:
            source: The source node (``0 <= source < n``).
            algorithm: Exact CLIQUE SSSP algorithm to simulate; defaults to
                :class:`~repro.clique.BroadcastBellmanFordSSSP`.

        Returns:
            :class:`~repro.core.sssp.SSSPResult` with one exact distance per
            node (``inf`` for unreachable nodes).

        Raises:
            ValueError: if ``source`` is outside the network or the algorithm
                is not exact (checked before any round is charged).

        Accounting follows DESIGN.md §6.  Many concurrent SSSP queries can be
        answered bit-identically in one coalesced pass by
        :meth:`sssp_batch` (DESIGN.md §11).
        """
        if not 0 <= source < self.network.n:
            raise ValueError(f"source {source} outside the network")
        algorithm = algorithm or BroadcastBellmanFordSSSP()
        if not algorithm.spec.exact:
            raise ValueError("Theorem 1.3 requires an exact CLIQUE algorithm")
        with self._lock:
            with self._preparing() as prep:
                context = self._context_with_members([source])
                context.transport(context.label + ":simulation")
            with self.network.metrics.scoped() as scope:
                result = sssp_exact(
                    self.network,
                    source,
                    algorithm,
                    phase=self._query_phase("sssp"),
                    context=context,
                )
            self._record(
                "sssp", scope, prep.total_rounds, context.simulation_preparation_rounds, result
            )
            return result

    def sssp_batch(
        self,
        sources: Sequence[int],
        algorithm: CliqueShortestPathAlgorithm | None = None,
    ) -> list[SSSPResult]:
        """Answer many SSSP queries in one coalesced simulation pass.

        Every source is force-added to the shared skeleton (Lemma 4.5 applied
        per source, DESIGN.md §11), so the single multi-source run of the
        Theorem 4.1 framework stays *exact* for each of them: the returned
        distances are bit-identical to asking :meth:`sssp` once per source,
        while the skeleton exploration, CLIQUE transport and simulation are
        paid once for the whole batch (the cross-query batching plane of the
        serving layer).

        Args:
            sources: The query sources; duplicates are allowed and answered
                from the same lane.
            algorithm: Exact CLIQUE algorithm able to handle ``len(set(
                sources))`` sources; defaults to
                :class:`~repro.clique.BroadcastBellmanFordSSSP` for a single
                distinct source (matching :meth:`sssp`) and
                :class:`~repro.clique.GatherShortestPaths` otherwise.

        Returns:
            One :class:`~repro.core.sssp.SSSPResult` per entry of
            ``sources``, in input order.  Each carries the full batch's
            ``rounds`` -- the pass is shared, so per-query attribution is the
            batch cost (shared-cost accounting, DESIGN.md §11).

        Raises:
            ValueError: if ``sources`` is empty, any source is outside the
                network, the algorithm is not exact, or it handles one source
                (``γ = 0``) and ``sources`` holds several distinct ones --
                all checked before any round is charged.
        """
        if not sources:
            raise ValueError("at least one source is required")
        for source in sources:
            if not 0 <= source < self.network.n:
                raise ValueError(f"source {source} outside the network")
        unique = sorted(set(sources))
        if algorithm is None:
            algorithm = (
                BroadcastBellmanFordSSSP() if len(unique) == 1 else GatherShortestPaths()
            )
        if not algorithm.spec.exact:
            raise ValueError("sssp_batch requires an exact CLIQUE algorithm")
        if algorithm.spec.gamma == 0 and len(unique) > 1:
            raise ValueError(
                f"{algorithm.spec.name} handles one source (γ = 0), "
                f"got {len(unique)} distinct sources"
            )
        with self._lock:
            with self._preparing() as prep:
                context = self._context_with_members(unique)
                context.transport(context.label + ":simulation")
            with self.network.metrics.scoped() as scope:
                batch = shortest_paths_via_clique(
                    self.network,
                    unique,
                    algorithm,
                    phase=self._query_phase("sssp-batch"),
                    context=context,
                )
            self._record(
                "sssp-batch",
                scope,
                prep.total_rounds,
                context.simulation_preparation_rounds,
                batch,
            )
        per_source: dict[int, SSSPResult] = {}
        for source, column in zip(unique, batch.estimates.T.tolist(), strict=True):
            per_source[source] = SSSPResult(
                source=source,
                distances=dict(enumerate(column)),
                rounds=batch.rounds,
                skeleton_size=batch.skeleton_size,
                hop_length=batch.hop_length,
                clique_rounds=batch.clique_rounds,
            )
        return [per_source[source] for source in sources]

    def shortest_paths(
        self,
        sources: Sequence[int],
        algorithm: CliqueShortestPathAlgorithm | None = None,
    ) -> ShortestPathsResult:
        """The k-SSP framework (Theorem 4.1) on the session's skeleton.

        Args:
            sources: The query sources.  A single (possibly repeated) source
                is forced into the skeleton and answered exactly; several
                distinct sources run through representatives and inherit the
                Theorem 4.1 approximation guarantee (use :meth:`sssp_batch`
                for exact multi-source answers).
            algorithm: CLIQUE algorithm to simulate; defaults to
                :class:`~repro.clique.GatherShortestPaths`.

        Returns:
            :class:`~repro.core.kssp.ShortestPathsResult` with the
            ``(n, len(sources))`` estimate array (one column per distinct
            source, sorted) and the framework's run statistics.

        Raises:
            ValueError: if ``sources`` is empty or any source is outside the
                network (before any round is charged), or the algorithm
                handles one source (``γ = 0``) and the sources have several
                distinct representatives (after preparing the skeleton,
                before the representatives' announcement and the CLIQUE
                transport).

        Accounting follows DESIGN.md §6; batching semantics DESIGN.md §11.
        """
        if not sources:
            raise ValueError("at least one source is required")
        for source in sources:
            if not 0 <= source < self.network.n:
                raise ValueError(f"source {source} outside the network")
        algorithm = algorithm or GatherShortestPaths()
        with self._lock:
            with self._preparing() as prep:
                if len(set(sources)) == 1:
                    context = self._context_with_members(list(sources))
                else:
                    context = self.context()
                check_skeleton_sources(self.network, context.skeleton, sources, algorithm.spec)
                context.transport(context.label + ":simulation")
            with self.network.metrics.scoped() as scope:
                result = shortest_paths_via_clique(
                    self.network,
                    sources,
                    algorithm,
                    phase=self._query_phase("kssp"),
                    context=context,
                )
            self._record(
                "shortest-paths",
                scope,
                prep.total_rounds,
                context.simulation_preparation_rounds,
                result,
            )
            return result

    def diameter(self, algorithm: CliqueDiameterAlgorithm | None = None) -> DiameterResult:
        """Diameter approximation (Theorem 5.1) on the session's skeleton.

        Args:
            algorithm: CLIQUE diameter algorithm to simulate; defaults to
                :class:`~repro.clique.GatherDiameter`.

        Returns:
            :class:`~repro.core.diameter.DiameterResult` whose ``estimate``
            satisfies the declared ``(α, β)`` guarantee.

        Raises:
            ValueError: if the graph is weighted or its local graph is
                disconnected (checked before any round is charged).

        Accounting follows DESIGN.md §6; identical concurrent diameter
        queries coalesce onto one call in the serving layer (DESIGN.md §11).
        """
        algorithm = algorithm or GatherDiameter()
        with self._lock:
            check_diameter_input(self.network)
            with self._preparing() as prep:
                context = self.context()
                context.transport(context.label + ":simulation")
            with self.network.metrics.scoped() as scope:
                result = approximate_diameter(
                    self.network,
                    algorithm,
                    phase=self._query_phase("diameter"),
                    context=context,
                )
            self._record(
                "diameter",
                scope,
                prep.total_rounds,
                context.simulation_preparation_rounds,
                result,
            )
            return result

    def route_tokens(self, tokens: Sequence[RoutingToken]) -> TokenRoutingResult:
        """Token routing (Theorem 2.2) with cached helper sets per population.

        The :class:`TokenRouter` (helper sets + shared hash) is keyed by the
        token list's endpoint populations and per-endpoint maxima; repeated
        workloads over the same populations skip the setup entirely.

        Args:
            tokens: The :class:`~repro.core.token_routing.RoutingToken` batch
                to deliver.  An empty batch is answered locally in 0 rounds.
                The labels are validated before any round is charged: an
                endpoint outside the network, a negative index or a repeated
                label raises :class:`ValueError`.

        Returns:
            :class:`~repro.core.token_routing.TokenRoutingResult` whose
            ``rounds`` cover this routing instance only (the amortized cost);
            the query record's ``cold_rounds`` adds the router setup.

        A graph mutation since the last query is resolved first (delta
        repair or :meth:`invalidate`, see :meth:`_check_version`); a
        topological delta drops every cached router, so this call rebuilds
        its router on the mutated graph and charges the setup as
        preparation (``preparation_rounds > 0`` on its record).  A
        weight-only delta keeps the routers: helper sets depend on the hop
        topology alone.

        Accounting follows DESIGN.md §6; the serving layer never coalesces
        token-routing requests (DESIGN.md §11).
        """
        with self._lock:
            labels = token_labels(tokens, self.network.n)
            self._check_version()
            if not tokens:
                result = TokenRoutingResult(
                    delivered={}, rounds=0, mu_senders=1, mu_receivers=1, token_count=0
                )
                with self.network.metrics.scoped() as scope:
                    pass
                self._record("route-tokens", scope, 0, 0, result)
                return result
            senders, receivers, max_per_sender, max_per_receiver = endpoint_loads(labels)
            key: RouterKey = (
                frozenset(senders),
                frozenset(receivers),
                max_per_sender,
                max_per_receiver,
            )
            cached = self._routers.get(key)
            if cached is None:
                # The phase (and with it the router's hash-seed RNG fork) is
                # named after the cache key, like the contexts, so identical
                # workloads get identical routers regardless of arrival order.
                digest = zlib.crc32(
                    repr((sorted(key[0]), sorted(key[1]), key[2], key[3])).encode()
                )
                with self._preparing() as prep:
                    router = TokenRouter(
                        self.network,
                        senders=senders,
                        receivers=receivers,
                        max_tokens_per_sender=key[2],
                        max_tokens_per_receiver=key[3],
                        phase=f"session:routing:{digest:08x}",
                    )
                cached = (router, prep.total_rounds)
                self._routers[key] = cached
                preparation_rounds = prep.total_rounds
            else:
                preparation_rounds = 0
            router, setup_rounds = cached
            with self.network.metrics.scoped() as scope:
                result = deliver_tokens(router, tokens, labels)
            self._record("route-tokens", scope, preparation_rounds, setup_rounds, result)
            return result
