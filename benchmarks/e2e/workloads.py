"""The four workloads: closed loops driven from one process, checked by the oracle.

Each workload is a warm state (:meth:`Workload.build`, timed as set-up) and a
*cycle* (:meth:`Workload.run_cycle`): a fixed batch of operations the run
repeats a fixed number of times.  Only the operations themselves are timed;
picking inputs and keeping answers for :meth:`Workload.check` happen outside
the timed region, and so does every oracle call.

The graph and the model seed are fixed per workload (:data:`INSTANCE_SEED`).
The skeleton they produce sets the cost of every query: across model seeds
its size ranges from 29 to 46 nodes at n=1024, which moves the SSSP median by
up to 40%.  ``--seed`` therefore chooses the operation stream -- the query
sources, their order and the mutated edges -- not the instance.

Warm state changes as cycles run: the query-mix session caches about 3.4 MB
per new source, and mutate-repair's graph gathers weight increases.  The
number of cycles is therefore fixed per run (:attr:`Workload.cycle_s`), so
cycle ``i`` meets the same state however fast the cycles before it ran.
"""

from __future__ import annotations

import asyncio
import random
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

from benchmarks.e2e.hostspeed import Probe
from benchmarks.e2e.oracle import INF, Oracle
from benchmarks.e2e.tracer import Span, Tracer, pass_starts
from repro.graphs import generators
from repro.graphs.graph import WeightedGraph
from repro.hybrid import ModelConfig, RoundMetrics
from repro.hybrid.metrics import ambient_observer
from repro.serving.server import QueryServer, ServerConfig
from repro.session import HybridSession
from repro.util.rand import RandomSource

N = 1024
SMOKE_N = 64
INSTANCE_SEED = 1
MAX_WEIGHT = 8
#: APSP rows checked against the oracle per answer.
CHECKED_ROWS = 32

clock = time.perf_counter


def model_config() -> ModelConfig:
    """The model constants of every workload (those of the bench harness)."""
    return ModelConfig(rng_seed=INSTANCE_SEED, skeleton_xi=0.75)


def locality_graph(n: int) -> WeightedGraph:
    """Ring of 2-neighbourhoods plus 1% random long links: unweighted, high D."""
    return generators.random_geometric_like_graph(
        n, neighbourhood=2, rng=RandomSource(INSTANCE_SEED), extra_edge_probability=0.01
    )


def random_graph(n: int) -> WeightedGraph:
    """Random connected graph, average degree 4, weights 1..8: low D."""
    return generators.connected_workload(
        n, RandomSource(INSTANCE_SEED), weighted=True, max_weight=MAX_WEIGHT
    )


@dataclass
class Op:
    """One timed operation; ``ok`` turns False on an error or a wrong answer.

    ``slowdown`` is the host's slowdown read around the operation (see
    :mod:`benchmarks.e2e.hostspeed`).
    """

    kind: str
    seconds: float
    slowdown: float
    ok: bool = True

    @property
    def reference_seconds(self) -> float:
        """The operation's time at reference host speed."""
        return self.seconds / self.slowdown


@dataclass
class Cycle:
    """One cycle's operations, timed wall, charges and answers to check."""

    ops: list[Op]
    wall: float
    #: ``wall`` at reference host speed.
    reference_wall: float
    metrics: RoundMetrics
    preprocessing_rounds: int
    answers: list[Any]

    @classmethod
    def of_sequence(
        cls, ops: list[Op], metrics: RoundMetrics, preprocessing_rounds: int, answers: list[Any]
    ) -> Cycle:
        """A cycle whose operations ran one after the other."""
        wall = sum(op.seconds for op in ops)
        reference_wall = sum(op.reference_seconds for op in ops)
        return cls(ops, wall, reference_wall, metrics, preprocessing_rounds, answers)


def _distances_match(oracle: Oracle, source: int, distances: dict[int, float]) -> bool:
    expected = oracle.distances(source)
    return all(distances.get(node, INF) == expected[node] for node in range(oracle.n))


def _rows_match(oracle: Oracle, rows: list[int], values: list[list[float]]) -> bool:
    return all(oracle.distances(row) == got for row, got in zip(rows, values, strict=True))


class Workload:
    """Base class: the cycle loop's view of one workload."""

    name = ""
    #: Operation kind whose median latency is the headline ``latency_p50_ms``.
    headline = ""
    #: Seconds one cycle takes at reference host speed; a run of ``--seconds``
    #: runs ``--seconds / cycle_s`` cycles.
    cycle_s = 1.0
    #: The host-speed probe parts that resemble this workload's work, and how
    #: strongly its time follows theirs (see hostspeed and README.md).
    probe_parts: tuple[str, ...] = ("interpreter", "heap")
    host_elasticity = 1.0

    def __init__(self, seed: int, n: int) -> None:
        self.seed = seed
        self.n = n
        #: Set by the run while a traced cycle executes.
        self.tracer: Tracer | None = None
        #: Set by the run before the first build.
        self.probe: Probe | None = None
        self._slowdown: float | None = None
        # A source seen before hits the session's cache of extended skeletons
        # and costs half as much, so a stream with repeats would get cheaper
        # the longer a run goes.
        self._order = [node for node in range(n) if node != self.setup_source()]
        random.Random(f"{self.name}:{seed}:sources").shuffle(self._order)

    def rng(self, label: object) -> random.Random:
        """The seeded stream of one cycle."""
        return random.Random(f"{self.name}:{self.seed}:{label}")

    def setup_source(self) -> int:
        """The first query of set-up: the same for every seed, like set-up."""
        return random.Random(f"{self.name}:setup").randrange(self.n)

    def sources(self, start: int, count: int) -> list[int]:
        """Query sources ``start .. start + count`` of the run's stream.

        A seeded permutation of the nodes other than the set-up source, so
        no source repeats before n - 1 queries.
        """
        return [self._order[(start + k) % len(self._order)] for k in range(count)]

    @contextmanager
    def operation(self) -> Iterator[None]:
        """Tag the spans of one timed operation with a shared id."""
        if self.tracer is None:
            yield
            return
        self.tracer.begin_op()
        try:
            yield
        finally:
            self.tracer.end_op()

    def begin_cycle(self) -> None:
        """Drop the last host-speed reading: the run did other work since."""
        self._slowdown = None

    def host_slowdown(self) -> float:
        """Read the host's slowdown now."""
        self._slowdown = self.probe.slowdown()
        return self._slowdown

    def timed(self, ops: list[Op], kind: str, call, *args) -> Any:
        """Run one operation, time it and record it; None when it raised.

        The host's slowdown is read before and after the operation, outside
        the timed region.  Operations that follow each other in a cycle share
        the reading between them.
        """
        before = self._slowdown if self._slowdown is not None else self.host_slowdown()
        with self.operation():
            start = clock()
            try:
                result = call(*args)
                ok = True
            except Exception:  # noqa: BLE001 - a raising operation is a failed one
                result, ok = None, False
            seconds = clock() - start
        ops.append(Op(kind, seconds, (before + self.host_slowdown()) / 2, ok))
        return result

    def build(self) -> float:
        """Replace the warm state with a fresh one; return its set-up seconds."""
        raise NotImplementedError

    def run_cycle(self, index: int) -> Cycle:
        """Run cycle ``index`` and return it unchecked."""
        raise NotImplementedError

    def check(self, cycle: Cycle) -> None:
        """Mark each operation of ``cycle`` whose answer is wrong."""
        raise NotImplementedError

    def layer_metrics(self, spans: list[Span], cycles: list[Cycle]) -> dict[str, float]:
        """Per-layer metrics only this workload can derive from its traced cycles."""
        return {}

    def close(self) -> None:
        """Release what the warm state holds."""


class QueryMix(Workload):
    """One warm session, one client: seeded SSSP/APSP/diameter interleaving."""

    name = "query-mix"
    headline = "sssp"
    cycle_s = 1.4
    KINDS = ["sssp"] * 20 + ["apsp", "diameter"]

    def __init__(self, seed: int, n: int) -> None:
        super().__init__(seed, n)
        self.graph = locality_graph(n)
        self.oracle = Oracle(n, self.graph.edges())
        self.session: HybridSession | None = None
        self._true_diameter: float | None = None

    def build(self) -> float:
        self.session = None
        graph = self.graph.copy()
        source = self.setup_source()
        start = clock()
        session = HybridSession(graph, model_config())
        session.sssp(source)
        session.apsp()
        session.diameter()
        seconds = clock() - start
        self.session = session
        return seconds

    def run_cycle(self, index: int) -> Cycle:
        rng = self.rng(index)
        kinds = list(self.KINDS)
        rng.shuffle(kinds)
        sources = iter(self.sources(index * self.KINDS.count("sssp"), self.KINDS.count("sssp")))
        session = self.session
        ops: list[Op] = []
        answers: list[Any] = []
        preprocessing = session.preprocessing_rounds
        with session.metrics.scoped() as scope:
            for kind in kinds:
                if kind == "sssp":
                    source = next(sources)
                    result = self.timed(ops, kind, session.sssp, source)
                    answers.append((source, result and result.distances))
                elif kind == "apsp":
                    result = self.timed(ops, kind, session.apsp)
                    rows = rng.sample(range(self.n), min(CHECKED_ROWS, self.n))
                    answers.append((rows, result and result.matrix[rows].tolist()))
                else:
                    answers.append(self.timed(ops, kind, session.diameter))
        preprocessing = session.preprocessing_rounds - preprocessing
        return Cycle.of_sequence(ops, scope, preprocessing, answers)

    def check(self, cycle: Cycle) -> None:
        for op, answer in zip(cycle.ops, cycle.answers, strict=True):
            if not op.ok:
                continue
            if op.kind == "sssp":
                source, distances = answer
                op.ok = _distances_match(self.oracle, source, distances)
            elif op.kind == "apsp":
                rows, values = answer
                op.ok = _rows_match(self.oracle, rows, values)
            else:
                # Theorem 5.1, as tests/test_diameter.py states it.
                true = self.true_diameter()
                bound = answer.guaranteed_alpha() * true + 2 * answer.hop_length
                op.ok = true <= answer.estimate <= bound

    def true_diameter(self) -> float:
        if self._true_diameter is None:
            self._true_diameter = self.oracle.hop_diameter()
        return self._true_diameter


class ColdStart(Workload):
    """A fresh session on a fresh graph copy per query: the one-shot path."""

    name = "cold-start"
    headline = "cold-sssp"
    cycle_s = 1.05
    # Numpy kernels on arrays, not a large Python heap, do the work, and they
    # slow down less than interpreted code in a slow spell.
    probe_parts = ("interpreter",)
    host_elasticity = 0.7

    def __init__(self, seed: int, n: int) -> None:
        super().__init__(seed, n)
        self.graph = random_graph(n)
        self.oracle = Oracle(n, self.graph.edges())

    def build(self) -> float:
        # A cold start's warm state is the prepared context; nothing is kept.
        graph = self.graph.copy()
        start = clock()
        HybridSession(graph, model_config()).context()
        return clock() - start

    def run_cycle(self, index: int) -> Cycle:
        (source,) = self.sources(index, 1)
        graph = self.graph.copy()
        ops: list[Op] = []
        with ambient_observer() as scope:
            answered = self.timed(ops, "cold-sssp", self._cold_sssp, graph, source)
        preprocessing, distances = answered or (0, None)
        return Cycle.of_sequence(ops, scope, preprocessing, [(source, distances)])

    @staticmethod
    def _cold_sssp(graph: WeightedGraph, source: int) -> tuple[int, dict[int, float]]:
        session = HybridSession(graph, model_config())
        result = session.sssp(source)
        return session.preprocessing_rounds, result.distances

    def check(self, cycle: Cycle) -> None:
        op = cycle.ops[0]
        if op.ok:
            source, distances = cycle.answers[0]
            op.ok = _distances_match(self.oracle, source, distances)


class MutateRepair(Workload):
    """One warm session; each cycle raises a heavy off-skeleton edge, then APSP."""

    name = "mutate-repair"
    headline = "mutate-apsp"
    cycle_s = 1.1
    # Like cold-start: the exploration kernel's numpy does most of the work.
    probe_parts = ("interpreter",)
    host_elasticity = 0.7

    def __init__(self, seed: int, n: int) -> None:
        super().__init__(seed, n)
        self.graph = random_graph(n)
        self.session: HybridSession | None = None
        self.skeleton: set[int] = set()

    def build(self) -> float:
        self.session = None
        graph = self.graph.copy()
        start = clock()
        session = HybridSession(graph, model_config())
        session.apsp()
        seconds = clock() - start
        self.session = session
        self.skeleton = set(session.context().skeleton.nodes)
        return seconds

    def run_cycle(self, index: int) -> Cycle:
        # The E17 schedule: raise one heavy edge away from the skeleton.
        session = self.session
        rng = self.rng(index)
        heavy = sorted(
            (u, v)
            for u, v, weight in session.graph.edges()
            if u not in self.skeleton and v not in self.skeleton and weight >= MAX_WEIGHT // 2
        )
        u, v = heavy[rng.randrange(len(heavy))]
        weight = session.graph.weight(u, v) + 1 + rng.randrange(4)
        rows = rng.sample(range(self.n), min(CHECKED_ROWS, self.n))
        ops: list[Op] = []
        preprocessing = session.preprocessing_rounds
        with session.metrics.scoped() as scope:
            result = self.timed(ops, "mutate-apsp", self._mutate_apsp, u, v, weight)
        values = result and result.matrix[rows].tolist()
        # The oracle reads the graph as it is after this cycle's mutation.
        edges = list(session.graph.edges())
        preprocessing = session.preprocessing_rounds - preprocessing
        return Cycle.of_sequence(ops, scope, preprocessing, [(edges, rows, values)])

    def _mutate_apsp(self, u: int, v: int, weight: int):
        self.session.update_weight(u, v, weight)
        return self.session.apsp()

    def check(self, cycle: Cycle) -> None:
        op = cycle.ops[0]
        if op.ok:
            edges, rows, values = cycle.answers[0]
            op.ok = _rows_match(Oracle(self.n, edges), rows, values)


class ServeCoalesced(Workload):
    """Eight closed-loop clients of two tenants on one coalescing QueryServer.

    A cycle is one request from each client.  The resubmissions take
    microseconds and the batch window is 5 ms, so every cycle is exactly one
    pass of eight; :meth:`check` fails every request of a cycle that was not.
    """

    name = "serve-coalesced"
    headline = "serve-sssp"
    cycle_s = 0.35
    CLIENTS = 8

    def __init__(self, seed: int, n: int) -> None:
        super().__init__(seed, n)
        self.graph = locality_graph(n)
        self.oracle = Oracle(n, self.graph.edges())
        self.loop = asyncio.new_event_loop()
        self.server: QueryServer | None = None
        self.submitted: dict[str, float] = {}

    def build(self) -> float:
        self._close_server()
        graph = self.graph.copy()
        source = self.setup_source()
        start = clock()
        session = HybridSession(graph, model_config())
        self.server = QueryServer(session, ServerConfig(batch_window=0.005, max_batch=32))
        self.loop.run_until_complete(self._warm(source))
        return clock() - start

    async def _warm(self, source: int) -> None:
        self.server.start()
        response = await self.server.submit({"id": "setup", "op": "sssp", "source": source})
        if not response["ok"]:
            raise RuntimeError(f"set-up query failed: {response['error']}")

    async def _client(self, request_id: str, tenant: str, source: int) -> tuple[float, Any]:
        start = clock()
        self.submitted[request_id] = start
        response = await self.server.submit(
            {"id": request_id, "op": "sssp", "tenant": tenant, "source": source}
        )
        return clock() - start, response

    async def _pass(self, requests: list[tuple[str, str, int]]) -> list[tuple[float, Any]]:
        return await asyncio.gather(*(self._client(*request) for request in requests))

    def run_cycle(self, index: int) -> Cycle:
        sources = self.sources(index * self.CLIENTS, self.CLIENTS)
        requests = [
            (f"{index}-{client}", "a" if client < self.CLIENTS // 2 else "b", source)
            for client, source in enumerate(sources)
        ]
        session = self.server.session
        preprocessing = session.preprocessing_rounds
        passes = self.server.stats.passes
        before = self.host_slowdown()
        with session.metrics.scoped() as scope, self.operation():
            start = clock()
            replies = self.loop.run_until_complete(self._pass(requests))
            wall = clock() - start
        slowdown = (before + self.host_slowdown()) / 2
        single_pass = self.server.stats.passes - passes == 1
        ops = [Op("serve-sssp", seconds, slowdown) for seconds, _ in replies]
        answers = [
            (source, response, single_pass)
            for (_, _, source), (_, response) in zip(requests, replies, strict=True)
        ]
        preprocessing = session.preprocessing_rounds - preprocessing
        return Cycle(ops, wall, wall / slowdown, scope, preprocessing, answers)

    def check(self, cycle: Cycle) -> None:
        for op, (source, response, single_pass) in zip(cycle.ops, cycle.answers, strict=True):
            if not (response["ok"] and single_pass and response["batch_size"] == self.CLIENTS):
                op.ok = False
                continue
            distances = response["result"]["distances"]
            got = [INF if value is None else value for value in distances]
            op.ok = got == self.oracle.distances(source)

    def layer_metrics(self, spans: list[Span], cycles: list[Cycle]) -> dict[str, float]:
        # The share of request time spent queued before a pass started.
        starts = pass_starts(spans)
        waited = sum(start - self.submitted[request] for request, start in starts.items())
        answered = sum(op.seconds for cycle in cycles for op in cycle.ops)
        return {"serving.queue_wait_share": waited / answered}

    def _close_server(self) -> None:
        if self.server is not None:
            self.loop.run_until_complete(self.server.close())
            self.server = None

    def close(self) -> None:
        self._close_server()
        self.loop.close()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (QueryMix, ServeCoalesced, ColdStart, MutateRepair)
}
