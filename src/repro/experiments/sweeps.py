"""The per-experiment sweeps (E1-E17 of the DESIGN.md index), in shard form.

Every experiment reproduces one artefact of the paper (or, for E14, of this
library's serving layer).  Each is registered via
:func:`~repro.experiments.runner.register_sweep` as three pieces:

* a **plan** that decomposes the sweep into independent
  ``(graph family, parameter point)`` shards,
* a **shard runner** that executes one shard -- rebuilding its graph and
  network from the shard's deterministic seed, so shards share no state and
  can run in any order or process -- and returns the shard's table rows, and
* a **finalizer** that assembles the rows (and any cross-row fits) into the
  :class:`~repro.experiments.runner.ExperimentTable`.

The supported scales are :data:`~repro.experiments.runner.SCALES`: ``small``
(seconds, used by the test suite and CI), ``medium`` (the scale recorded in
EXPERIMENTS.md) and ``large`` (offline; exercised by the E14 amortization
sweep).  All sweeps are deterministic given the built-in seeds, which is what
makes serial and process-parallel execution bit-identical
(tests/test_engine.py pins this).
"""

from __future__ import annotations

import math
import time

from repro.analysis.complexity import fit_power_law_with_log
from repro.analysis.report import summarize_robustness
from repro.baselines import apsp_broadcast_baseline, route_tokens_by_broadcast
from repro.clique import (
    BroadcastBellmanFordSSSP,
    EccentricityDiameter,
    GatherDiameter,
    GatherShortestPaths,
)
from repro.core.apsp import apsp_exact
from repro.core.clique_simulation import HybridCliqueTransport, predicted_simulation_rounds
from repro.core.diameter import approximate_diameter
from repro.core.helper_sets import compute_helper_sets
from repro.core.kssp import predicted_framework_rounds, shortest_paths_via_clique
from repro.core.skeleton import compute_skeleton
from repro.core.sssp import sssp_exact
from repro.core.token_routing import make_tokens, predicted_routing_rounds, route_tokens
from repro.experiments.runner import (
    ExperimentTable,
    ShardPlan,
    flatten_rows,
    plain_table,
    register_sweep,
)
from repro.graphs import generators, reference
from repro.graphs.skeleton_analysis import audit_skeleton
from repro.hybrid import FaultModel, FaultToleranceExceededError, HybridNetwork, ModelConfig
from repro.localnet import aggregate_max, disseminate_tokens
from repro.lower_bounds import (
    assignment_entropy_bits,
    build_gamma_gadget,
    build_kssp_gadget,
    classify_disjointness_from_diameter,
    distance_gap_factor,
    measure_cut_traffic,
    random_disjointness_instance,
    verify_simulation_partition,
)
from repro.lower_bounds import kssp_gadget as kssp_lb
from repro.session import HybridSession
from repro.util.rand import RandomSource, sample_nodes


def _network(graph, seed: int = 1) -> HybridNetwork:
    return HybridNetwork(graph, ModelConfig(rng_seed=seed))


def _locality_graph(n: int, seed: int = 1):
    return generators.random_geometric_like_graph(
        n, neighbourhood=2, rng=RandomSource(seed), extra_edge_probability=0.01
    )


def _random_graph(n: int, seed: int = 1, weighted: bool = True):
    return generators.connected_workload(
        n, RandomSource(seed), weighted=weighted, max_weight=8
    )


# --------------------------------------------------------------------------- E1
def _e1_workloads(scale: str):
    n = 150 if scale == "small" else 400
    workloads = [2, 8, 32] if scale == "small" else [2, 8, 32, 128]
    return n, workloads


def _e1_plan(scale: str) -> list[ShardPlan]:
    n, workloads = _e1_workloads(scale)
    return [
        ShardPlan(family=f"locality-k{k}", seed=k, params={"n": n, "tokens_per_sender": k})
        for k in workloads
    ]


@register_sweep(
    "E1",
    plan=_e1_plan,
    finalize=plain_table(
        "E1",
        "Token routing (Theorem 2.2)",
        [
            "n",
            "senders",
            "k per sender",
            "K total",
            "measured rounds",
            "K/n+√kS+√kR",
            "max recv/round",
            "recv cap",
        ],
        [
            "The protocol keeps the per-round receive load within the O(log n) budget "
            "(last two columns) while the rounds grow with the Theorem 2.2 shape.",
        ],
    ),
    reseedable=True,
)
def token_routing_shard(scale: str, seed: int, params: dict[str, object]) -> list[list[object]]:
    """Theorem 2.2: token-routing rounds vs the ``K/n + √k_S + √k_R`` shape."""
    n = params["n"]
    tokens_per_sender = params["tokens_per_sender"]
    graph = _locality_graph(n, seed=1)
    rng = RandomSource(seed)
    senders = rng.sample(list(range(n)), max(4, n // 5))
    tokens = make_tokens(
        {
            s: [(rng.randrange(n), ("p", s, i)) for i in range(tokens_per_sender)]
            for s in senders
        }
    )
    network = _network(graph, seed=seed)
    result = route_tokens(network, tokens)
    receivers = len(result.delivered)
    shape = predicted_routing_rounds(
        n, len(senders), receivers, tokens_per_sender, max(1, len(tokens) // max(1, receivers))
    )
    return [
        [
            n,
            len(senders),
            tokens_per_sender,
            len(tokens),
            result.rounds,
            round(shape, 1),
            network.metrics.max_received_per_round,
            network.receive_cap,
        ]
    ]


# --------------------------------------------------------------------------- E2
def _e2_sizes(scale: str) -> list[int]:
    return [64, 100, 160] if scale == "small" else [100, 200, 400, 800]


def _e2_plan(scale: str) -> list[ShardPlan]:
    return [
        ShardPlan(family=f"locality-n{n}", seed=n, params={"n": n}) for n in _e2_sizes(scale)
    ]


def _e2_finalize(scale: str, payloads: list[object]) -> ExperimentTable:
    rows = flatten_rows(payloads)
    sizes = [row[0] for row in rows]
    fit_new = fit_power_law_with_log(sizes, [row[2] for row in rows])
    fit_base = fit_power_law_with_log(sizes, [row[3] for row in rows])
    bottleneck_fit_new = fit_power_law_with_log(sizes, [row[4] for row in rows])
    bottleneck_fit_base = fit_power_law_with_log(sizes, [row[5] for row in rows])
    return ExperimentTable(
        "E2",
        "Exact APSP: Theorem 1.1 (Õ(√n)) vs Augustine et al. baseline (Õ(n^2/3))",
        [
            "n",
            "D",
            "rounds (Thm 1.1)",
            "rounds (baseline)",
            "last-step rounds (routing)",
            "last-step rounds (label broadcast)",
            "√n",
            "n^2/3",
            "both exact",
        ],
        rows,
        notes=[
            f"fitted exponent of total rounds (with log factor): new {fit_new.exponent:.2f}, "
            f"baseline {fit_base.exponent:.2f}; paper: 0.5 vs 0.667.",
            "fitted exponent of the differing last step: routing "
            f"{bottleneck_fit_new.exponent:.2f} "
            f"vs label broadcast {bottleneck_fit_base.exponent:.2f} -- this is the step whose "
            "cost separates √n from n^2/3 in the paper.",
            "At simulation scale total rounds are dominated by local phases capped at D "
            "(the paper's min(D, ·) reading), so the separation is visible in the "
            "last-step columns rather than in the totals (discussion in EXPERIMENTS.md).",
        ],
    )


@register_sweep("E2", plan=_e2_plan, finalize=_e2_finalize)
def apsp_shard(scale: str, seed: int, params: dict[str, object]) -> list[list[object]]:
    """Theorem 1.1 vs the SODA'20 baseline on the same instance (one size)."""
    n = params["n"]
    graph = _locality_graph(n, seed=n)
    truth = reference.all_pairs_distances(graph)

    network = _network(graph, seed=n)
    new = apsp_exact(network)
    new_exact = all(
        abs(new.distance(u, v) - d) <= 1e-9 for u in range(n) for v, d in truth[u].items()
    )

    baseline_network = _network(graph, seed=n)
    baseline = apsp_broadcast_baseline(baseline_network)
    base_exact = all(
        abs(baseline.distance(u, v) - d) <= 1e-9
        for u in range(n)
        for v, d in truth[u].items()
    )
    # The step the two algorithms differ in: Theorem 1.1 replaces the
    # baseline's broadcast of all |V|·|V_S| labels with one token-routing
    # instance.  Its cost is read off the phase accounting.
    new_bottleneck = network.metrics.rounds_for_phase_prefix("apsp:routing")
    baseline_bottleneck = baseline_network.metrics.rounds_for_phase_prefix(
        "apsp-baseline:label-broadcast"
    )
    return [
        [
            n,
            int(graph.hop_diameter()),
            new.rounds,
            baseline.rounds,
            new_bottleneck,
            baseline_bottleneck,
            round(n ** 0.5, 1),
            round(n ** (2 / 3), 1),
            new_exact and base_exact,
        ]
    ]


# --------------------------------------------------------------------------- E3
def _e3_plan(scale: str) -> list[ShardPlan]:
    n = 120 if scale == "small" else 300
    ks = [2, 8] if scale == "small" else [2, 8, 32]
    return [
        ShardPlan(
            family=f"random-k{k}-{'weighted' if weighted else 'unweighted'}",
            seed=k + (1 if weighted else 0),
            params={"n": n, "k": k, "weighted": weighted},
        )
        for k in ks
        for weighted in (True, False)
    ]


@register_sweep(
    "E3",
    plan=_e3_plan,
    finalize=plain_table(
        "E3",
        "k-SSP framework (Theorem 4.1) with the gather-exact CLIQUE plug-in",
        [
            "n",
            "k",
            "weights",
            "measured rounds",
            "η·n^(1-x)",
            "measured stretch",
            "guaranteed α",
            "one-sided",
            "skeleton size",
        ],
        [
            "Measured stretch is far below the transformed guarantee (the guarantee is "
            "worst-case over the representative detour); estimates never undershoot.",
        ],
    ),
)
def kssp_shard(scale: str, seed: int, params: dict[str, object]) -> list[list[object]]:
    """Theorem 4.1 framework: rounds and stretch for one (k, weights) point."""
    n, k, weighted = params["n"], params["k"], params["weighted"]
    graph = _random_graph(n, seed=k + (1 if weighted else 0), weighted=weighted)
    sources = RandomSource(k).sample(list(range(n)), k)
    network = _network(graph, seed=k)
    result = shortest_paths_via_clique(network, sources, GatherShortestPaths())
    truth = reference.multi_source_distances(graph, sources)
    stretch = 1.0
    undershoot = False
    for s in sources:
        for v in range(n):
            true_value = truth[s][v]
            estimate = result.estimate(v, s)
            if estimate < true_value - 1e-9:
                undershoot = True
            if true_value > 0:
                stretch = max(stretch, estimate / true_value)
    return [
        [
            n,
            k,
            "weighted" if weighted else "unweighted",
            result.rounds,
            round(predicted_framework_rounds(n, result.spec), 1),
            round(stretch, 3),
            round(result.guaranteed_alpha(weighted), 2),
            not undershoot,
            result.skeleton_size,
        ]
    ]


# --------------------------------------------------------------------------- E4
def _e4_plan(scale: str) -> list[ShardPlan]:
    sizes = [64, 128] if scale == "small" else [100, 200, 400]
    return [ShardPlan(family=f"locality-n{n}", seed=n, params={"n": n}) for n in sizes]


@register_sweep(
    "E4",
    plan=_e4_plan,
    finalize=plain_table(
        "E4",
        "Exact SSSP (Theorem 1.3) via the framework with γ = 0",
        [
            "n",
            "D",
            "measured rounds",
            "η·n^(1-x)",
            "LOCAL-only rounds (D)",
            "exact",
            "skeleton size",
        ],
        [
            "The substitute CLIQUE SSSP has δ = 1 (x = 2/5), so the framework shape is "
            "n^(3/5); with the paper's algebraic CLIQUE algorithm (δ = 1/6) the same "
            "framework yields the Õ(n^{2/5}) of Theorem 1.3.",
        ],
    ),
)
def sssp_shard(scale: str, seed: int, params: dict[str, object]) -> list[list[object]]:
    """Theorem 1.3: exact SSSP rounds vs the framework shape, one size."""
    n = params["n"]
    graph = _locality_graph(n, seed=n + 3)
    network = _network(graph, seed=n)
    result = sssp_exact(network, source=0)
    truth = reference.single_source_distances(graph, 0)
    exact = all(abs(result.distance(v) - d) <= 1e-9 for v, d in truth.items())
    spec = BroadcastBellmanFordSSSP().spec
    return [
        [
            n,
            int(graph.hop_diameter()),
            result.rounds,
            round(predicted_framework_rounds(n, spec), 1),
            int(graph.hop_diameter()),
            exact,
            result.skeleton_size,
        ]
    ]


# --------------------------------------------------------------------------- E5
def _e5_plan(scale: str) -> list[ShardPlan]:
    sizes = [100, 200] if scale == "small" else [200, 400]
    return [
        ShardPlan(
            family=f"locality-n{n}-{plugin}",
            seed=n,
            params={"n": n, "plugin": plugin},
        )
        for n in sizes
        for plugin in ("gather-exact", "eccentricity")
    ]


@register_sweep(
    "E5",
    plan=_e5_plan,
    finalize=plain_table(
        "E5",
        "Diameter approximation (Theorem 5.1 / 1.4)",
        ["n", "D", "CLIQUE plug-in", "estimate", "ratio", "guaranteed α", "rounds", "local branch"],
        [
            "Estimates never undershoot D and stay well within the transformed "
            "guarantee α + 2/η + β/T_B.",
        ],
    ),
)
def diameter_shard(scale: str, seed: int, params: dict[str, object]) -> list[list[object]]:
    """Theorem 1.4 / 5.1: diameter approximation for one (n, plug-in) point."""
    n, name = params["n"], params["plugin"]
    plugin = GatherDiameter() if name == "gather-exact" else EccentricityDiameter()
    graph = _locality_graph(n, seed=n + 7)
    true_diameter = graph.hop_diameter()
    network = _network(graph, seed=n)
    result = approximate_diameter(network, plugin)
    return [
        [
            n,
            int(true_diameter),
            name,
            round(result.estimate, 1),
            round(result.estimate / true_diameter, 3),
            round(result.guaranteed_alpha(), 2),
            result.rounds,
            result.used_local_estimate,
        ]
    ]


# --------------------------------------------------------------------------- E6
def _e6_plan(scale: str) -> list[ShardPlan]:
    ks = [16, 64] if scale == "small" else [16, 64, 256]
    path_hops = 120 if scale == "small" else 400
    return [
        ShardPlan(family=f"gadget-k{k}", seed=k, params={"k": k, "path_hops": path_hops})
        for k in ks
    ]


@register_sweep(
    "E6",
    plan=_e6_plan,
    finalize=plain_table(
        "E6",
        "k-SSP lower bound gadget (Theorem 1.5, Figure 1)",
        [
            "k",
            "n",
            "L",
            "distance gap",
            "Θ(n/√k)",
            "entropy bits",
            "implied lower bound (rounds)",
            "√k",
        ],
        [
            "The distance gap grows as Θ(n/√k) (columns 4-5), so any approximation "
            "below that factor must identify the hidden split, whose Ω(k) bits must "
            "cross the L-hop bottleneck: Ω̃(√k) rounds.",
        ],
    ),
)
def kssp_lower_bound_shard(scale: str, seed: int, params: dict[str, object]) -> list[list[object]]:
    """Theorem 1.5 / Figure 1: one k of the k-SSP lower-bound gadget."""
    k, path_hops = params["k"], params["path_hops"]
    gadget = build_kssp_gadget(path_hops, k, RandomSource(k))
    config = ModelConfig()
    n = gadget.graph.node_count
    bound = kssp_lb.implied_round_lower_bound(gadget, config.message_bits, config.send_cap(n))
    return [
        [
            k,
            n,
            gadget.bottleneck_distance,
            round(distance_gap_factor(gadget), 1),
            round(n / math.sqrt(k), 1),
            round(assignment_entropy_bits(gadget), 1),
            round(bound, 2),
            round(math.sqrt(k), 1),
        ]
    ]


# --------------------------------------------------------------------------- E7
def _e7_plan(scale: str) -> list[ShardPlan]:
    k = 5 if scale == "small" else 8
    path_hops = 6 if scale == "small" else 10
    return [
        ShardPlan(
            family=f"gamma-{'weighted' if weighted else 'unweighted'}"
            f"-{'disjoint' if disjoint else 'intersecting'}",
            seed=(17 if disjoint else 23) + (100 if weighted else 0),
            params={"k": k, "path_hops": path_hops, "weighted": weighted, "disjoint": disjoint},
        )
        for weighted in (False, True)
        for disjoint in (True, False)
    ]


@register_sweep(
    "E7",
    plan=_e7_plan,
    finalize=plain_table(
        "E7",
        "Diameter lower bound gadget Γ (Theorem 1.6, Lemmas 7.1-7.3, Figure 2)",
        [
            "case",
            "inputs",
            "n",
            "diameter",
            "classification correct",
            "Lemma 7.3 partition ok",
            "algorithm rounds",
            "cut bits moved",
            "Ω(k²) bits required",
        ],
        [
            "Exact diameters separate disjoint from intersecting instances exactly as "
            "Lemmas 7.1/7.2 predict, and the Alice/Bob column partition never needs a "
            "local message to cross the cut (Lemma 7.3).",
        ],
    ),
)
def diameter_lower_bound_shard(
    scale: str, seed: int, params: dict[str, object]
) -> list[list[object]]:
    """Theorem 1.6 / Figure 2: one (weights, inputs) case of the Γ gadget."""
    k, path_hops = params["k"], params["path_hops"]
    weighted, disjoint = params["weighted"], params["disjoint"]
    weight = 4 * path_hops
    a, b = random_disjointness_instance(k, RandomSource(seed), disjoint)
    gadget = build_gamma_gadget(k, path_hops, weight if weighted else 1, a, b)
    diameter = (
        reference.weighted_diameter(gadget.graph)
        if weighted
        else reference.hop_diameter(gadget.graph)
    )
    correct = classify_disjointness_from_diameter(gadget, diameter) == disjoint
    partition_ok = verify_simulation_partition(gadget, path_hops // 2)
    measurement = measure_cut_traffic(
        build_gamma_gadget(k, path_hops, 1, a, b),
        ModelConfig(rng_seed=1),
        lambda network: approximate_diameter(network, GatherDiameter()),
    )
    return [
        [
            "weighted" if weighted else "unweighted",
            "disjoint" if disjoint else "intersecting",
            gadget.node_count,
            round(diameter, 1),
            correct,
            partition_ok,
            measurement.total_rounds,
            measurement.cut_bits,
            int(measurement.required_bits),
        ]
    ]


# --------------------------------------------------------------------------- E8
def _e8_plan(scale: str) -> list[ShardPlan]:
    n = 180 if scale == "small" else 400
    return [
        ShardPlan(family=f"locality-x{int(100 * x)}", seed=int(100 * x), params={"n": n, "x": x})
        for x in (0.3, 0.5, 0.7)
    ]


@register_sweep(
    "E8",
    plan=_e8_plan,
    finalize=plain_table(
        "E8",
        "Simulating one CLIQUE round on a skeleton (Corollary 4.1)",
        ["n", "x (skeleton ≈ n^x)", "skeleton size", "HYBRID rounds / CLIQUE round", "s²/n + √s"],
        [
            "The per-round simulation cost grows with the skeleton size; at this scale "
            "it is dominated by the Routing-Preparation local floods of the underlying "
            "token-routing instance (a polylog-factor additive term in Corollary 4.1), "
            "with the |S|²/n + √|S| global term on top.",
        ],
    ),
)
def clique_simulation_shard(scale: str, seed: int, params: dict[str, object]) -> list[list[object]]:
    """Corollary 4.1: HYBRID cost of one simulated CLIQUE round at one density."""
    n, x = params["n"], params["x"]
    graph = _locality_graph(n, seed=2)
    network = _network(graph, seed=int(100 * x))
    skeleton = compute_skeleton(network, n ** (x - 1.0), ensure_connected=True)
    transport = HybridCliqueTransport(network, skeleton)
    before = network.metrics.total_rounds
    repeats = 3
    for _ in range(repeats):
        transport.exchange({})
    per_round = (network.metrics.total_rounds - before) / repeats
    return [
        [
            n,
            x,
            skeleton.size,
            round(per_round, 1),
            round(predicted_simulation_rounds(n, skeleton.size), 1),
        ]
    ]


# --------------------------------------------------------------------------- E9
def _e9_plan(scale: str) -> list[ShardPlan]:
    n = 150 if scale == "small" else 400
    return [
        ShardPlan(
            family=f"random-p{int(100 * p)}",
            seed=int(p * 100),
            params={"n": n, "p": p, "audit_seed": 3},
        )
        for p in (0.1, 0.25, 0.5)
    ]


@register_sweep(
    "E9",
    plan=_e9_plan,
    finalize=plain_table(
        "E9",
        "Skeleton graph properties (Lemmas C.1 / C.2)",
        [
            "n",
            "sampling p",
            "skeleton size",
            "skeleton edges",
            "h",
            "connected",
            "distance preserving",
            "max gap (hops)",
        ],
        [
            "Every audited skeleton is connected and preserves exact distances between "
            "sampled nodes; the largest skeleton-free stretch on audited shortest paths "
            "stays below the hop length h, as Lemma C.1 promises w.h.p.",
        ],
    ),
    reseedable=True,
)
def skeleton_shard(scale: str, seed: int, params: dict[str, object]) -> list[list[object]]:
    """Lemmas C.1 / C.2: skeleton audit at one sampling probability."""
    n, p = params["n"], params["p"]
    graph = _random_graph(n, seed=5)
    network = _network(graph, seed=seed)
    skeleton = compute_skeleton(network, p)
    report = audit_skeleton(
        graph, skeleton.nodes, skeleton.hop_length, RandomSource(params["audit_seed"]), 40
    )
    return [
        [
            n,
            p,
            report.node_count,
            report.edge_count,
            skeleton.hop_length,
            report.connected,
            report.distance_preserving,
            report.max_gap_hops,
        ]
    ]


# -------------------------------------------------------------------------- E10
def _e10_plan(scale: str) -> list[ShardPlan]:
    n = 160 if scale == "small" else 400
    return [
        ShardPlan(
            family=f"locality-p{int(100 * probability)}-k{tokens}",
            seed=tokens,
            params={"n": n, "probability": probability, "tokens": tokens},
        )
        for probability, tokens in ((0.1, 4), (0.1, 64), (0.3, 16))
    ]


@register_sweep(
    "E10",
    plan=_e10_plan,
    finalize=plain_table(
        "E10",
        "Helper sets (Definition 2.1 / Lemma 2.2)",
        ["n", "members", "k", "µ", "min helper count", "max load", "max radius", "rounds"],
        [
            "Helper sets reach the target size µ, no node serves many members, and "
            "helpers stay within Õ(µ) hops -- the three properties Definition 2.1 needs.",
        ],
    ),
)
def helper_set_shard(scale: str, seed: int, params: dict[str, object]) -> list[list[object]]:
    """Lemma 2.2: the three helper-set properties at one (p, k) setting."""
    n, probability, tokens = params["n"], params["probability"], params["tokens"]
    graph = _locality_graph(n, seed=9)
    members = sample_nodes(range(n), probability, RandomSource(int(probability * 100))) or [0]
    network = _network(graph, seed=tokens)
    helpers = compute_helper_sets(network, members, tokens_per_member=tokens)
    return [
        [
            n,
            len(members),
            tokens,
            helpers.mu,
            helpers.min_helper_count(),
            helpers.max_membership_load(),
            helpers.max_helper_radius(network),
            helpers.rounds_charged,
        ]
    ]


# -------------------------------------------------------------------------- E11
def _e11_plan(scale: str) -> list[ShardPlan]:
    n = 150 if scale == "small" else 400
    return [
        ShardPlan(family=strategy, seed=1, params={"n": n, "strategy": strategy})
        for strategy in ("routing", "broadcast")
    ]


@register_sweep(
    "E11",
    plan=_e11_plan,
    finalize=plain_table(
        "E11",
        "Ablation: routing point-to-point tokens vs broadcasting them",
        ["strategy", "K", "rounds", "global messages", "busiest node received"],
        [
            "Broadcasting forces the whole workload through every node's global budget; "
            "routing touches only the endpoints' helper sets (Section 2's motivation).",
        ],
    ),
)
def routing_ablation_shard(scale: str, seed: int, params: dict[str, object]) -> list[list[object]]:
    """Ablation: one strategy (routing / broadcast) on the shared workload."""
    n, strategy = params["n"], params["strategy"]
    graph = _locality_graph(n, seed=13)
    rng = RandomSource(13)
    senders = rng.sample(list(range(n)), n // 5)
    tokens = make_tokens(
        {s: [(rng.randrange(n), ("w", s, i)) for i in range(16)] for s in senders}
    )
    network = _network(graph, seed=1)
    if strategy == "routing":
        label, result = "token routing (Thm 2.2)", route_tokens(network, tokens)
    else:
        label, result = "broadcast (Lemma B.1)", route_tokens_by_broadcast(network, tokens)
    return [
        [
            label,
            len(tokens),
            result.rounds,
            network.metrics.global_messages,
            network.max_total_received(),
        ]
    ]


# -------------------------------------------------------------------------- E12
def _e12_plan(scale: str) -> list[ShardPlan]:
    n = 150 if scale == "small" else 400
    shards = [
        ShardPlan(
            family=f"dissemination-k{per_node}",
            seed=per_node,
            params={"n": n, "protocol": "dissemination", "per_node": per_node},
        )
        for per_node in (1, 4, 16)
    ]
    shards.append(
        ShardPlan(family="aggregation", seed=99, params={"n": n, "protocol": "aggregation"})
    )
    return shards


@register_sweep(
    "E12",
    plan=_e12_plan,
    finalize=plain_table(
        "E12",
        "Token dissemination (Lemma B.1) and NCC aggregation (Lemma B.2)",
        ["protocol", "n", "k values", "total rounds", "global rounds", "paper shape"],
        [
            "Total dissemination rounds at this scale are dominated by the cluster "
            "construction's local floods (capped at D); the global-mode rounds grow "
            "with √k / log n as Lemma B.1's bandwidth argument predicts.  The "
            "aggregation completes in O(log n) global rounds.",
        ],
    ),
)
def dissemination_shard(scale: str, seed: int, params: dict[str, object]) -> list[list[object]]:
    """Lemma B.1 (token dissemination) or Lemma B.2 (aggregation), one shard."""
    n = params["n"]
    graph = _locality_graph(n, seed=15)
    if params["protocol"] == "dissemination":
        per_node = params["per_node"]
        tokens = {node: [("t", node, i) for i in range(per_node)] for node in range(n)}
        network = _network(graph, seed=per_node)
        result = disseminate_tokens(network, tokens)
        total = n * per_node
        return [
            [
                "dissemination",
                n,
                total,
                result.rounds,
                network.metrics.global_rounds,
                round(math.sqrt(total) + per_node + total / n, 1),
            ]
        ]
    network = _network(graph, seed=99)
    aggregate_max(network, {node: float(node) for node in range(n)})
    return [
        [
            "aggregation (max)",
            n,
            n,
            network.metrics.total_rounds,
            network.metrics.global_rounds,
            round(math.log2(n), 1),
        ]
    ]


# -------------------------------------------------------------------------- E13
def _e13_plan(scale: str) -> list[ShardPlan]:
    return [
        ShardPlan(family=name, seed=seed, params={"scenario": name})
        for name, seed in (("power-law", 21), ("grid+highways", 22), ("hierarchical-isp", 23))
    ]


def _e13_graph(scenario: str, scale: str):
    if scale == "small":
        builders = {
            "power-law": lambda: generators.power_law_graph(200, RandomSource(21), attachment=2),
            "grid+highways": lambda: generators.grid_with_highways_graph(
                10, 16, 8, RandomSource(22)
            ),
            "hierarchical-isp": lambda: generators.hierarchical_isp_graph(
                5, 3, 6, RandomSource(23)
            ),
        }
    else:
        builders = {
            "power-law": lambda: generators.power_law_graph(1024, RandomSource(21), attachment=2),
            "grid+highways": lambda: generators.grid_with_highways_graph(
                24, 32, 24, RandomSource(22)
            ),
            "hierarchical-isp": lambda: generators.hierarchical_isp_graph(
                8, 6, 16, RandomSource(23)
            ),
        }
    return builders[scenario]()


def _e13_finalize(scale: str, payloads: list[object]) -> ExperimentTable:
    # The wall-clock measurement lives next to the rows (not inside them), so
    # the deterministic part of the shard payload stays bit-identical between
    # runs; it is re-attached as the table's last column here.
    rows = [
        payload["rows"][0] + [round(payload["wall_time_seconds"], 3)] for payload in payloads
    ]
    return ExperimentTable(
        "E13",
        "Scenario families unlocked by the CSR core (SSSP end-to-end)",
        ["scenario", "n", "m", "D", "rounds", "skeleton size", "exact", "seconds"],
        rows,
        notes=[
            "Each family stresses a different resource: power-law graphs load the "
            "global mode's per-hub capacity, grid-with-highways makes weighted d_h "
            "diverge from hop counts, and the ISP hierarchy has LAN-dense leaves "
            "behind a small backbone.  All runs stay exact; benchmarks/BENCH_core.json "
            "tracks the wall-clock trajectory.",
        ],
    )


@register_sweep("E13", plan=_e13_plan, finalize=_e13_finalize)
def scenario_scaling_shard(scale: str, seed: int, params: dict[str, object]) -> dict[str, object]:
    """One scenario family of the Theorem 1.3 SSSP pipeline, run end-to-end.

    Verifies exactness against the sequential oracle and records wall-clock
    time per instance; the families are the ones the CSR backend unlocked --
    preferential-attachment ("internet-like"), grid-with-highways
    ("road-network-like") and three-tier hierarchical ISP topologies.
    """
    name = params["scenario"]
    graph = _e13_graph(name, scale)
    n = graph.node_count
    network = _network(graph, seed=n)
    # repro-lint: waive[RL001] -- E13 wall-clock column; rides outside the hashed payload
    started = time.perf_counter()
    result = sssp_exact(network, source=0)
    # repro-lint: waive[RL001] -- E13 wall-clock column; rides outside the hashed payload
    elapsed = time.perf_counter() - started
    truth = reference.single_source_distances(graph, 0)
    exact = all(abs(result.distance(v) - d) <= 1e-9 for v, d in truth.items())
    return {
        "rows": [
            [
                name,
                n,
                graph.edge_count,
                int(graph.hop_diameter()),
                result.rounds,
                result.skeleton_size,
                exact,
            ]
        ],
        "wall_time_seconds": elapsed,
    }


# -------------------------------------------------------------------------- E14
def _e14_parameters(scale: str):
    if scale == "small":
        return 120, [0, 7]
    if scale == "medium":
        return 300, [0, 7, 31, 64]
    return 800, [0, 7, 31, 64, 127, 256]


def _e14_plan(scale: str) -> list[ShardPlan]:
    n, sssp_sources = _e14_parameters(scale)
    # A session serves its queries sequentially (later queries reuse earlier
    # preprocessing), so the whole workload is one shard.
    return [ShardPlan(family="session", seed=n, params={"n": n, "sssp_sources": sssp_sources})]


@register_sweep(
    "E14",
    plan=_e14_plan,
    finalize=plain_table(
        "E14",
        "Multi-query amortization on one HybridSession",
        [
            "query",
            "amortized rounds",
            "new prep rounds",
            "cold-equivalent rounds",
            "one-shot rounds",
            "cold/warm",
            "answers agree",
        ],
        [
            "The session pays the skeleton exploration, edge publication and helper-set "
            "construction once; every later query keeps only its own phases (the "
            "cold/warm column is the amortization factor).  One-shot rounds differ "
            "slightly from the cold-equivalent column because the one-shot functions "
            "choose their own per-theorem skeleton density.",
        ],
    ),
)
def session_amortization_shard(
    scale: str, seed: int, params: dict[str, object]
) -> list[list[object]]:
    """Multi-query amortization: a HybridSession vs one-shot calls per query.

    Runs a mixed APSP / SSSP / diameter workload against one
    :class:`~repro.session.HybridSession` and, side by side, against fresh
    one-shot function calls on identical fresh networks.  Per query the rows
    show the amortized rounds (warm session), the session's cold-equivalent
    accounting (amortized + shared preparation), and the one-shot rounds.
    Every distance/diameter answer is cross-checked between the two paths.
    """
    n, sssp_sources = params["n"], list(params["sssp_sources"])
    graph = _locality_graph(n, seed=n + 29)

    session = HybridSession(graph, ModelConfig(rng_seed=n))
    workload = [("apsp", None)] + [("sssp", s) for s in sssp_sources] + [("diameter", None)]
    answers = {}
    for kind, argument in workload:
        if kind == "apsp":
            answers[(kind, argument)] = session.apsp()
        elif kind == "sssp":
            answers[(kind, argument)] = session.sssp(argument)
        else:
            answers[(kind, argument)] = session.diameter()

    rows = []
    truth = reference.all_pairs_distances(graph)
    true_diameter = graph.hop_diameter()
    for record, (kind, argument) in zip(session.queries, workload, strict=True):
        one_shot_network = _network(graph, seed=n)
        if kind == "apsp":
            one_shot = apsp_exact(one_shot_network)
            agree = all(
                abs(answers[(kind, argument)].distance(u, v) - one_shot.distance(u, v)) <= 1e-9
                for u in range(n)
                for v, _ in truth[u].items()
            )
        elif kind == "sssp":
            one_shot = sssp_exact(one_shot_network, source=argument)
            agree = all(
                abs(answers[(kind, argument)].distance(v) - one_shot.distance(v)) <= 1e-9
                for v in range(n)
            )
        else:
            one_shot = approximate_diameter(one_shot_network, GatherDiameter())
            session_result = answers[(kind, argument)]
            # Both paths must bracket the true diameter within their declared
            # guarantee (with the local branch -- the regime at these scales --
            # both answer D exactly).
            agree = all(
                true_diameter - 1e-9
                <= result.estimate
                <= result.guaranteed_alpha() * true_diameter + 1e-9
                for result in (session_result, one_shot)
            )
        label = kind if argument is None else f"{kind}({argument})"
        rows.append(
            [
                label,
                record.amortized_rounds,
                record.preparation_rounds,
                record.cold_rounds,
                one_shot.rounds,
                round(record.cold_rounds / max(1, record.amortized_rounds), 2),
                agree,
            ]
        )
    rows.append(
        [
            "TOTAL",
            sum(r.amortized_rounds for r in session.queries),
            session.preprocessing_rounds,
            sum(r.cold_rounds for r in session.queries),
            "-",
            "-",
            True,
        ]
    )
    return rows


# -------------------------------------------------------------------------- E15
def _e15_parameters(scale: str):
    if scale == "small":
        return 64, ("locality", "power-law"), (0.0, 0.05, 0.2)
    if scale == "medium":
        return 200, ("locality", "power-law", "random"), (0.0, 0.05, 0.2)
    return 400, ("locality", "power-law", "random"), (0.0, 0.05, 0.2, 0.4)


def _e15_plan(scale: str) -> list[ShardPlan]:
    n, families, drop_rates = _e15_parameters(scale)
    return [
        ShardPlan(
            family=f"{family}-d{int(1000 * rate)}",
            seed=41 + index,
            params={"family": family, "n": n, "drop_rate": rate},
        )
        for index, (family, rate) in enumerate(
            (family, rate) for family in families for rate in drop_rates
        )
    ]


def _e15_graph(family: str, n: int):
    if family == "locality":
        return _locality_graph(n, seed=31)
    if family == "power-law":
        return generators.power_law_graph(n, RandomSource(31), attachment=2)
    return _random_graph(n, seed=31)


_E15_HEADERS = [
    "family",
    "n",
    "drop rate",
    "ideal rounds",
    "rounds under loss",
    "overhead",
    "dropped",
    "retransmitted",
    "delivered",
    "exact",
]


def _e15_finalize(scale: str, payloads: list[object]) -> ExperimentTable:
    rows = flatten_rows(payloads)
    return ExperimentTable(
        "E15",
        "Robustness under message loss: retransmitting SSSP vs the ideal model",
        _E15_HEADERS,
        rows,
        notes=[
            summarize_robustness(
                rows, _E15_HEADERS.index("drop rate"), _E15_HEADERS.index("overhead")
            ),
            "Every completed run stays exact: the acknowledged-retransmission layer "
            "either delivers all protocol traffic (results then equal the ideal "
            "model's bit for bit) or raises instead of returning a partial answer.  "
            "The drop_rate=0 rows pin the fault-free identity -- overhead exactly 1, "
            "zero dropped/retransmitted messages.",
        ],
    )


@register_sweep("E15", plan=_e15_plan, finalize=_e15_finalize, reseedable=True)
def robustness_shard(scale: str, seed: int, params: dict[str, object]) -> list[list[object]]:
    """E15: SSSP round overhead and accuracy at one (family, drop rate) point.

    Runs the Theorem 1.3 pipeline twice on the same graph -- once on the
    ideal model, once under a seeded i.i.d. drop schedule with the
    loss-tolerant protocols -- and reports the round overhead, the fault
    counters and exactness against the sequential oracle.
    """
    family, n, drop_rate = params["family"], params["n"], params["drop_rate"]
    graph = _e15_graph(family, n)
    truth = reference.single_source_distances(graph, 0)

    ideal_network = _network(graph, seed=seed)
    ideal = sssp_exact(ideal_network, source=0)

    faults = FaultModel(drop_rate=drop_rate, seed=seed, max_attempts=16)
    faulty_network = HybridNetwork(graph, ModelConfig(rng_seed=seed, faults=faults))
    delivered = True
    result = None
    try:
        result = sssp_exact(faulty_network, source=0)
    except FaultToleranceExceededError:
        delivered = False
    exact = delivered and all(
        abs(result.distance(v) - d) <= 1e-9 for v, d in truth.items()
    )
    rounds = result.rounds if delivered else faulty_network.metrics.total_rounds
    # A beaten schedule aborted mid-run: its round count is a truncation, not
    # an overhead, so the overhead column stays non-numeric and
    # summarize_robustness excludes it from the per-rate means.
    overhead = round(rounds / max(1, ideal.rounds), 3) if delivered else "beaten"
    return [
        [
            family,
            n,
            drop_rate,
            ideal.rounds,
            rounds,
            overhead,
            faulty_network.metrics.global_dropped,
            faulty_network.metrics.global_retried,
            delivered,
            exact,
        ]
    ]


# -------------------------------------------------------------------------- E16
def _e16_parameters(scale: str) -> tuple[int, int]:
    if scale == "small":
        return 64, 8
    if scale == "medium":
        return 256, 40
    return 512, 64


def _e16_plan(scale: str) -> list[ShardPlan]:
    n, queries = _e16_parameters(scale)
    return [ShardPlan(family="serving", seed=7, params={"n": n, "queries": queries})]


_E16_HEADERS = [
    "n",
    "queries",
    "batched passes",
    "sequential passes",
    "batched rounds",
    "sequential rounds",
    "round ratio",
    "identical",
    "batched qps",
    "batched p50 ms",
    "batched p99 ms",
    "sequential qps",
]


def _e16_finalize(scale: str, payloads: list[object]) -> ExperimentTable:
    # Deterministic columns come from the hashed rows; the serving-quality
    # wall measurements ride next to them under the payload's hash-excluded
    # wall_time_seconds slot (the E13 pattern) and are re-attached here.
    rows = []
    for payload in payloads:
        wall = payload["wall_time_seconds"]
        rows.append(
            payload["rows"][0]
            + [
                wall["batched_qps"],
                wall["batched_p50_ms"],
                wall["batched_p99_ms"],
                wall["sequential_qps"],
            ]
        )
    return ExperimentTable(
        "E16",
        "Serving layer: cross-query batching vs one-query-per-pass (QPS, tails)",
        _E16_HEADERS,
        rows,
        notes=[
            "The round ratio (sequential / batched total network rounds, shared "
            "preprocessing included) is deterministic at the fixed seed and is "
            "what the regression gate pins; QPS and latency percentiles are "
            "wall-clock serving quality and stay outside the hashed payload.  "
            "The identical column asserts the DESIGN.md §11 contract: batching "
            "changes cost, never answers.",
        ],
    )


@register_sweep("E16", plan=_e16_plan, finalize=_e16_finalize)
def serving_shard(scale: str, seed: int, params: dict[str, object]) -> dict[str, object]:
    """E16: one serving workload, batched and sequential, on fresh servers.

    Drives :func:`repro.serving.benchmark.run_comparison` -- a multi-tenant
    SSSP-heavy request mix answered by the asyncio query server with
    coalescing on and off -- and reports the deterministic cost profile next
    to the wall-clock QPS/latency measurements (DESIGN.md §11).
    """
    from repro.serving import benchmark as serving_benchmark

    summary = serving_benchmark.run_comparison(
        int(params["n"]), int(params["queries"]), seed
    )
    batched = summary["modes"]["batched"]
    sequential = summary["modes"]["sequential"]
    return {
        "rows": [
            [
                summary["n"],
                summary["query_count"],
                batched["passes"],
                sequential["passes"],
                batched["total_rounds"],
                sequential["total_rounds"],
                summary["round_throughput_ratio"],
                summary["responses_identical"],
            ]
        ],
        "wall_time_seconds": {
            "batched_qps": batched["qps"],
            "batched_p50_ms": batched["p50_ms"],
            "batched_p99_ms": batched["p99_ms"],
            "sequential_qps": sequential["qps"],
            "elapsed": batched["elapsed_s"] + sequential["elapsed_s"],
        },
    }


# -------------------------------------------------------------------------- E17
def _e17_parameters(scale: str) -> tuple[int, int]:
    if scale == "small":
        return 64, 4
    if scale == "medium":
        return 256, 6
    return 512, 8


def _e17_plan(scale: str) -> list[ShardPlan]:
    n, events = _e17_parameters(scale)
    return [
        ShardPlan(family=family, seed=17, params={"n": n, "events": events, "family": family})
        for family in ("random", "locality")
    ]


_E17_HEADERS = [
    "family",
    "n",
    "events",
    "repaired",
    "rebuilt",
    "repair tail rounds",
    "rebuild tail rounds",
    "amortized repair",
    "amortized rebuild",
    "round ratio",
    "identical",
]

_E17_NOTES = [
    "Both sessions answer an identical warm-APSP workload over an identical "
    "mutation schedule; the repair row reuses the warm SkeletonContext "
    "through the HybridSession delta log while the rebuild column pays a "
    "cold context per mutation (enable_repair=False).  The identical column "
    "pins the DESIGN.md \u00a712 determinism contract: repaired answers are "
    "bit-identical to cold ones.  Amortized columns are tail rounds per "
    "mutate-then-query event and the ratio is rebuild/repair (higher is a "
    "bigger repair win).  On the random family most events stay under the "
    "damage threshold; on the locality family a ring edge can sit on most "
    "shortest paths, so more events are refused and rebuilt cold -- the "
    "repaired/rebuilt split shows the threshold doing its job while the "
    "amortized win survives the mix.",
]


def _e17_graph(family: str, n: int, seed: int, max_weight: int):
    if family == "random":
        return generators.connected_workload(
            n, RandomSource(seed), weighted=True, max_weight=max_weight
        )
    return generators.random_geometric_like_graph(
        n,
        neighbourhood=2,
        rng=RandomSource(seed),
        extra_edge_probability=0.01,
        max_weight=max_weight,
    )


@register_sweep("E17", plan=_e17_plan, finalize=plain_table(
    "E17",
    "Incremental sessions: delta repair vs cold rebuild over evolving graphs",
    _E17_HEADERS,
    _E17_NOTES,
))
def incremental_repair_shard(
    scale: str, seed: int, params: dict[str, object]
) -> list[list[object]]:
    """E17: amortized mutate-then-query rounds, repair vs cold rebuild.

    Two sessions over bit-identical graphs of one family are warmed with one
    APSP each, then driven through the same deterministic schedule of
    single-edge weight *increases* on heavy off-skeleton edges (increases
    only invalidate rows whose shortest path used the edge, so the damage
    estimate stays informative); after every mutation both answer APSP
    again.  The repair session patches its warm context through the delta
    log (DESIGN.md \u00a712) while the baseline rebuilds cold, and the shard
    reports the post-warmup ("tail") round totals, per-event amortized costs
    and the answer-identity check.
    """
    n = int(params["n"])
    events = int(params["events"])
    family = str(params["family"])
    max_weight = 8

    repair_session = HybridSession(
        _e17_graph(family, n, seed, max_weight), ModelConfig(rng_seed=seed)
    )
    rebuild_session = HybridSession(
        _e17_graph(family, n, seed, max_weight),
        ModelConfig(rng_seed=seed),
        enable_repair=False,
    )

    identical = bool(
        (repair_session.apsp().matrix == rebuild_session.apsp().matrix).all()
    )
    repair_warm = repair_session.network.metrics.total_rounds
    rebuild_warm = rebuild_session.network.metrics.total_rounds

    # The mutation schedule: a random heavy edge away from the skeleton gets
    # heavier.  Off-skeleton keeps repair *eligible*; whether it is *chosen*
    # is the damage threshold's call, which is exactly what the repaired /
    # rebuilt columns report.
    skeleton_nodes = set(repair_session.context().skeleton.nodes)
    rng = RandomSource(seed).fork("e17:events")
    for _ in range(events):
        heavy = sorted(
            (u, v)
            for u, v, weight in repair_session.graph.edges()
            if u not in skeleton_nodes
            and v not in skeleton_nodes
            and weight >= max_weight // 2
        )
        u, v = heavy[rng.randrange(len(heavy))]
        new_weight = repair_session.graph.weight(u, v) + 1 + rng.randrange(4)
        repair_session.update_weight(u, v, new_weight)
        rebuild_session.update_weight(u, v, new_weight)
        identical = identical and bool(
            (repair_session.apsp().matrix == rebuild_session.apsp().matrix).all()
        )

    repair_tail = repair_session.network.metrics.total_rounds - repair_warm
    rebuild_tail = rebuild_session.network.metrics.total_rounds - rebuild_warm
    repaired = sum(1 for record in repair_session.repairs if record.action == "repaired")
    rebuilt = sum(1 for record in repair_session.repairs if record.action == "rebuilt")
    return [
        [
            family,
            n,
            events,
            repaired,
            rebuilt,
            repair_tail,
            rebuild_tail,
            round(repair_tail / events, 2),
            round(rebuild_tail / events, 2),
            round(rebuild_tail / repair_tail, 3) if repair_tail else float("inf"),
            identical,
        ]
    ]
