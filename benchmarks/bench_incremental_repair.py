"""E17 -- incremental sessions: delta repair vs cold rebuild under mutations.

Drives one warm ``HybridSession`` through the E17 mutate-then-query schedule
(single-edge weight increases on heavy off-skeleton edges, one APSP after
each) twice: once repairing its cached context through the graph's delta log
(DESIGN.md §12) and once calling ``invalidate()`` after every mutation, which
rebuilds the preprocessing from scratch.  The schedule is identical
in both modes, so the wall-clock pair isolates the repair path and the
attached post-warmup round totals record the machine-independent amortized
win the regression gate pins.
"""

import pytest

from benchmarks.conftest import (
    BENCH_CONFIG,
    attach,
    random_workload,
    run_repeated,
    smoke_scaled,
)
from repro.hybrid import ModelConfig
from repro.session import HybridSession
from repro.util.rand import RandomSource

N = smoke_scaled(256, 48)
EVENTS = smoke_scaled(6, 3)
MAX_WEIGHT = 8


def _run_schedule(graph, repair: bool):
    """Warm a session, then apply the E17 mutation schedule with a query each.

    Returns the session together with the post-warmup ("tail") round total.
    """
    session = HybridSession(graph.copy(), ModelConfig(rng_seed=N, **BENCH_CONFIG))
    session.apsp()
    warm_rounds = session.network.metrics.total_rounds
    skeleton_nodes = set(session.context().skeleton.nodes)
    rng = RandomSource(N).fork("bench:e17:events")
    for _ in range(EVENTS):
        heavy = sorted(
            (u, v)
            for u, v, weight in session.graph.edges()
            if u not in skeleton_nodes
            and v not in skeleton_nodes
            and weight >= MAX_WEIGHT // 2
        )
        u, v = heavy[rng.randrange(len(heavy))]
        session.update_weight(u, v, session.graph.weight(u, v) + 1 + rng.randrange(4))
        if not repair:
            session.invalidate()
        session.apsp()
    return session, session.network.metrics.total_rounds - warm_rounds


@pytest.mark.benchmark(group="core-session")
@pytest.mark.parametrize("mode", ["repair", "rebuild"])
def test_session_mutation_schedule(benchmark, mode):
    """Warm-up + mutate/query tail, repairing vs rebuilding after each event."""
    graph = random_workload(N, seed=N)
    repair = mode == "repair"

    result, _ = run_repeated(
        benchmark, lambda: _run_schedule(graph, repair), rounds=3
    )
    assert result.queries[-1].kind == "apsp"

    # One untimed replay for the deterministic round record: the schedule is
    # a pure function of (graph, seed, mode), so these counts are exact.
    session, tail_rounds = _run_schedule(graph, repair)
    attach(
        benchmark,
        {
            "experiment": "E17",
            "n": N,
            "mode": mode,
            "events": EVENTS,
            "tail_rounds": tail_rounds,
            "repaired": sum(1 for r in session.repairs if r.action == "repaired"),
            "rebuilt": sum(1 for r in session.repairs if r.action == "rebuilt"),
        },
    )
