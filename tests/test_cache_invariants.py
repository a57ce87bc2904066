"""A mutated graph never serves a stale cache (DESIGN.md §4, §12).

``WeightedGraph`` caches its frozen CSR view and its hop topology (the hop
diameter and the ruler clusterings); ``HybridSession`` caches prepared
skeleton contexts and repairs them from the graph's delta log.  The state
machine below applies random ``add_edge`` / ``update_weight`` /
``remove_edge`` steps through a session, keeping the graph connected, and
interleaves ``sssp``, ``apsp`` and ``diameter`` queries.  After every step
each cached view of the graph must equal the one a graph rebuilt from
``edges()`` computes, and every effective mutation must bump ``version`` by
exactly one.  Each warm answer must equal a cold session's on a copy of the
graph, and an exact answer must equal the edge-list oracle.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.graphs import csr, reference
from repro.graphs.generators import connected_workload
from repro.graphs.graph import WeightedGraph
from repro.hybrid import ModelConfig
from repro.session import HybridSession
from repro.util.rand import RandomSource

N = 16
SEPARATIONS = (1, 2, 4)
picks = st.integers(0, 10_000)
weights = st.integers(1, 8)


class MutatedSession(RuleBasedStateMachine):
    @initialize(seed=st.integers(0, 50), weighted=st.booleans())
    def build(self, seed, weighted):
        self.weighted = weighted
        graph = connected_workload(N, RandomSource(seed), weighted=weighted, max_weight=8)
        # ξ = 1.0 keeps a 16-node skeleton's Lemma C.1 sample dense enough
        # for the exact answers to be exact.
        self.config = ModelConfig(rng_seed=seed, skeleton_xi=1.0)
        self.session = HybridSession(graph, self.config)

    @property
    def graph(self) -> WeightedGraph:
        return self.session.graph

    def cold(self) -> HybridSession:
        return HybridSession(self.graph.copy(), self.config)

    def mutate(self, apply) -> None:
        before = self.graph.version
        edges_before = list(self.graph.edges())
        apply()
        if list(self.graph.edges()) == edges_before:
            assert self.graph.version == before
            return
        assert self.graph.version == before + 1
        assert len(self.graph.deltas_since(before)) == 1

    # ----------------------------------------------------------- mutations
    @rule(pick=picks, weight=weights)
    def add_edge(self, pick, weight):
        missing = [
            (u, v) for u in range(N) for v in range(u + 1, N) if not self.graph.has_edge(u, v)
        ]
        if missing:
            u, v = missing[pick % len(missing)]
            self.mutate(lambda: self.session.add_edge(u, v, weight if self.weighted else 1))

    @rule(pick=picks, weight=weights)
    def re_add_edge(self, pick, weight):
        # Adding an existing edge is update_weight (DESIGN.md §12).
        edges = list(self.graph.edges())
        u, v, _ = edges[pick % len(edges)]
        self.mutate(lambda: self.session.add_edge(u, v, weight if self.weighted else 1))

    @precondition(lambda self: self.weighted)
    @rule(pick=picks, weight=weights)
    def update_weight(self, pick, weight):
        edges = list(self.graph.edges())
        u, v, _ = edges[pick % len(edges)]
        self.mutate(lambda: self.session.update_weight(u, v, weight))

    @rule(pick=picks)
    def remove_edge(self, pick):
        removable = []
        for u, v, _ in self.graph.edges():
            survivor = self.graph.copy()
            survivor.remove_edge(u, v)
            if survivor.is_connected():
                removable.append((u, v))
        if removable:
            u, v = removable[pick % len(removable)]
            self.mutate(lambda: self.session.remove_edge(u, v))

    # ------------------------------------------------------------- queries
    @rule(source=st.integers(0, N - 1))
    def sssp(self, source):
        warm = self.session.sssp(source).distances
        assert warm == self.cold().sssp(source).distances
        assert warm == reference.single_source_distances(self.graph, source)

    @rule()
    def apsp(self):
        warm = self.session.apsp().matrix
        assert np.array_equal(warm, self.cold().apsp().matrix)
        rows = {source: dict(enumerate(row.tolist())) for source, row in enumerate(warm)}
        assert rows == reference.all_pairs_distances(self.graph)

    @precondition(lambda self: not self.weighted)
    @rule()
    def diameter(self):
        warm, cold = self.session.diameter(), self.cold().diameter()
        assert (warm.estimate, warm.skeleton_estimate, warm.local_max_hop) == (
            cold.estimate,
            cold.skeleton_estimate,
            cold.local_max_hop,
        )

    # ----------------------------------------------------------- invariant
    @invariant()
    def cached_views_match_a_rebuild(self):
        graph = self.graph
        fresh = WeightedGraph.from_edges(N, graph.edges())
        cached, rebuilt = graph.csr(), fresh.csr()
        for field in ("indptr", "indices", "weights"):
            assert np.array_equal(getattr(cached, field), getattr(rebuilt, field)), field
        assert (cached.unit_weights, cached.min_weight, cached.max_weight) == (
            rebuilt.unit_weights,
            rebuilt.min_weight,
            rebuilt.max_weight,
        )
        assert np.array_equal(csr.component_sizes(cached), csr.component_sizes(rebuilt))
        assert graph.hop_diameter() == fresh.hop_diameter()
        for separation in SEPARATIONS:
            kept, fresh_rulers = graph.ruler_clustering(separation), fresh.ruler_clustering(
                separation
            )
            assert np.array_equal(kept.rulers, fresh_rulers.rulers)
            assert kept.radius == fresh_rulers.radius
            assert list(kept.members) == list(fresh_rulers.members)
            for ruler, members in kept.members.items():
                assert np.array_equal(members, fresh_rulers.members[ruler])


MutatedSession.TestCase.settings = settings(
    max_examples=30,
    stateful_step_count=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestMutatedSession = MutatedSession.TestCase
