"""Graph generators for experiments, examples and tests.

The paper's algorithms are for arbitrary connected graphs; the generators here
cover the workload families used in the benchmarks:

* random connected graphs (the default workload for round-complexity sweeps),
* structured topologies with large hop diameter (paths, cycles, grids, tori)
  where the LOCAL model alone would need ``Θ(D)`` rounds,
* motivating-scenario topologies from the introduction: a wireless/ISP-style
  clustered network and a data-center-style fat-tree-ish network, and
* weight assignment helpers (weights in ``[1, W]`` with ``W`` poly(n)).

The lower-bound gadget families (Figure 1 and Figure 2) live in
:mod:`repro.lower_bounds` because they carry extra metadata (which nodes play
which role in the reduction).
"""

from __future__ import annotations

from repro.graphs.graph import WeightedGraph
from repro.util.rand import RandomSource


def assign_random_weights(
    graph: WeightedGraph, max_weight: int, rng: RandomSource
) -> WeightedGraph:
    """Return a copy of ``graph`` with uniform random weights in ``[1, max_weight]``."""
    if max_weight < 1:
        raise ValueError("max_weight must be at least 1")
    result = WeightedGraph(graph.node_count)
    for u, v, _ in graph.edges():
        result.add_edge(u, v, rng.randint(1, max_weight))
    return result


def path_graph(n: int, weight: int = 1) -> WeightedGraph:
    """A path ``0 - 1 - ... - n-1``; hop diameter ``n - 1``."""
    graph = WeightedGraph(n)
    for i in range(n - 1):
        graph.add_edge(i, i + 1, weight)
    return graph


def cycle_graph(n: int, weight: int = 1) -> WeightedGraph:
    """A cycle on ``n >= 3`` nodes; hop diameter ``⌊n/2⌋``."""
    if n < 3:
        raise ValueError("a cycle needs at least 3 nodes")
    graph = path_graph(n, weight)
    graph.add_edge(n - 1, 0, weight)
    return graph


def star_graph(n: int, weight: int = 1) -> WeightedGraph:
    """A star with centre 0 and ``n - 1`` leaves."""
    graph = WeightedGraph(n)
    for leaf in range(1, n):
        graph.add_edge(0, leaf, weight)
    return graph


def complete_graph(n: int, weight: int = 1) -> WeightedGraph:
    """The complete graph ``K_n``."""
    graph = WeightedGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            graph.add_edge(u, v, weight)
    return graph


def grid_graph(rows: int, cols: int, weight: int = 1) -> WeightedGraph:
    """A ``rows x cols`` grid; hop diameter ``rows + cols - 2``."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    graph = WeightedGraph(rows * cols)
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                graph.add_edge(node, node + 1, weight)
            if r + 1 < rows:
                graph.add_edge(node, node + cols, weight)
    return graph


def torus_graph(rows: int, cols: int, weight: int = 1) -> WeightedGraph:
    """A ``rows x cols`` torus (grid with wraparound edges)."""
    if rows < 3 or cols < 3:
        raise ValueError("torus dimensions must be at least 3")
    graph = WeightedGraph(rows * cols)
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            right = r * cols + (c + 1) % cols
            down = ((r + 1) % rows) * cols + c
            if not graph.has_edge(node, right):
                graph.add_edge(node, right, weight)
            if not graph.has_edge(node, down):
                graph.add_edge(node, down, weight)
    return graph


def random_tree(n: int, rng: RandomSource, weight: int = 1) -> WeightedGraph:
    """A uniformly-ish random tree: node ``i`` attaches to a random earlier node."""
    graph = WeightedGraph(n)
    for node in range(1, n):
        parent = rng.randrange(node)
        graph.add_edge(node, parent, weight)
    return graph


def random_connected_graph(
    n: int,
    average_degree: float,
    rng: RandomSource,
    max_weight: int = 1,
) -> WeightedGraph:
    """A connected Erdős–Rényi-style graph with roughly the given average degree.

    A random spanning tree guarantees connectivity; additional edges are added
    uniformly at random until the target edge count ``n * average_degree / 2``
    is reached.  Weights are uniform in ``[1, max_weight]``.
    """
    if n < 2:
        raise ValueError("need at least 2 nodes")
    if average_degree < 1:
        raise ValueError("average_degree must be at least 1 to stay connected")
    graph = random_tree(n, rng)
    target_edges = max(n - 1, int(round(n * average_degree / 2.0)))
    max_possible = n * (n - 1) // 2
    target_edges = min(target_edges, max_possible)
    attempts = 0
    attempt_limit = 50 * target_edges + 100
    while graph.edge_count < target_edges and attempts < attempt_limit:
        attempts += 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, 1)
    if max_weight > 1:
        graph = assign_random_weights(graph, max_weight, rng)
    return graph


def random_geometric_like_graph(
    n: int,
    neighbourhood: int,
    rng: RandomSource,
    extra_edge_probability: float = 0.05,
    max_weight: int = 1,
) -> WeightedGraph:
    """A "wireless mesh"-style graph: a ring of nodes with links to nearby IDs.

    Models the introduction's mobile-device scenario: each device connects to
    the ``neighbourhood`` devices closest to it (locality), plus a few random
    long links.  The hop diameter grows like ``n / neighbourhood``, so the
    LOCAL model alone is slow and the global mode genuinely helps.
    """
    if neighbourhood < 1:
        raise ValueError("neighbourhood must be positive")
    graph = WeightedGraph(n)
    for u in range(n):
        for offset in range(1, neighbourhood + 1):
            v = (u + offset) % n
            if u != v and not graph.has_edge(u, v):
                graph.add_edge(u, v, 1)
    extra = int(extra_edge_probability * n)
    for _ in range(extra):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, 1)
    if max_weight > 1:
        graph = assign_random_weights(graph, max_weight, rng)
    return graph


def clustered_isp_graph(
    cluster_count: int,
    cluster_size: int,
    rng: RandomSource,
    intra_degree: float = 4.0,
    inter_edges_per_cluster: int = 2,
    max_weight: int = 1,
) -> WeightedGraph:
    """An ISP/enterprise-style topology: dense sites joined by sparse backbone links.

    This mirrors the introduction's "company combines its LAN with the
    Internet" scenario: local communication is plentiful inside a site, global
    communication crosses sites.  The backbone is a ring over the clusters plus
    a few random chords, so the hop diameter scales with ``cluster_count``.
    """
    if cluster_count < 2 or cluster_size < 2:
        raise ValueError("need at least 2 clusters of at least 2 nodes")
    n = cluster_count * cluster_size
    graph = WeightedGraph(n)

    def cluster_nodes(cluster: int) -> list[int]:
        base = cluster * cluster_size
        return list(range(base, base + cluster_size))

    # Dense intra-cluster connectivity: a cycle plus random chords.
    for cluster in range(cluster_count):
        nodes = cluster_nodes(cluster)
        for index in range(len(nodes)):
            graph.add_edge(nodes[index], nodes[(index + 1) % len(nodes)], 1)
        extra_edges = int(cluster_size * max(0.0, intra_degree - 2.0) / 2.0)
        for _ in range(extra_edges):
            u = rng.choice(nodes)
            v = rng.choice(nodes)
            if u != v and not graph.has_edge(u, v):
                graph.add_edge(u, v, 1)
    # Sparse inter-cluster backbone: ring over clusters plus random chords.
    for cluster in range(cluster_count):
        neighbour = (cluster + 1) % cluster_count
        for _ in range(inter_edges_per_cluster):
            u = rng.choice(cluster_nodes(cluster))
            v = rng.choice(cluster_nodes(neighbour))
            if not graph.has_edge(u, v):
                graph.add_edge(u, v, 1)
    if max_weight > 1:
        graph = assign_random_weights(graph, max_weight, rng)
    return graph


def datacenter_pod_graph(
    pod_count: int,
    racks_per_pod: int,
    servers_per_rack: int,
    rng: RandomSource | None = None,
) -> WeightedGraph:
    """A simplified data-center topology (pods of racks of servers).

    Models the "augment the wired data-center network with optical/wireless
    links" motivation: servers connect to their top-of-rack switch, racks to a
    pod aggregation switch, pods to a core ring.  Node layout::

        core switches        : one per pod
        aggregation switches : one per (pod)
        rack switches        : one per (pod, rack)
        servers              : servers_per_rack per rack

    The returned graph is connected and unweighted.
    """
    if pod_count < 2 or racks_per_pod < 1 or servers_per_rack < 1:
        raise ValueError("invalid data-center dimensions")
    core = list(range(pod_count))
    agg_base = pod_count
    rack_base = agg_base + pod_count
    server_base = rack_base + pod_count * racks_per_pod
    n = server_base + pod_count * racks_per_pod * servers_per_rack
    graph = WeightedGraph(n)
    # Core ring connecting pods.
    for pod in range(pod_count):
        graph.add_edge(core[pod], core[(pod + 1) % pod_count], 1)
    for pod in range(pod_count):
        agg = agg_base + pod
        graph.add_edge(core[pod], agg, 1)
        for rack in range(racks_per_pod):
            rack_switch = rack_base + pod * racks_per_pod + rack
            graph.add_edge(agg, rack_switch, 1)
            for server in range(servers_per_rack):
                server_node = (
                    server_base
                    + (pod * racks_per_pod + rack) * servers_per_rack
                    + server
                )
                graph.add_edge(rack_switch, server_node, 1)
    return graph


def barbell_graph(clique_size: int, path_length: int) -> WeightedGraph:
    """Two cliques of ``clique_size`` nodes joined by a path of ``path_length`` edges.

    A standard "large diameter, locally dense" stress graph: the hop diameter is
    ``path_length + 2`` while most pairs of nodes are at distance 1.
    """
    if clique_size < 2 or path_length < 1:
        raise ValueError("need clique_size >= 2 and path_length >= 1")
    n = 2 * clique_size + max(0, path_length - 1)
    graph = WeightedGraph(n)
    left = list(range(clique_size))
    right = list(range(clique_size, 2 * clique_size))
    middle = list(range(2 * clique_size, n))
    for nodes in (left, right):
        for i, u in enumerate(nodes):
            for v in nodes[i + 1 :]:
                graph.add_edge(u, v, 1)
    chain = [left[-1]] + middle + [right[0]]
    for a, b in zip(chain, chain[1:], strict=False):
        graph.add_edge(a, b, 1)
    return graph


def caterpillar_graph(spine_length: int, legs_per_node: int) -> WeightedGraph:
    """A path ("spine") where every spine node has ``legs_per_node`` leaf nodes.

    Useful for k-SSP experiments: sources can be placed on leaves so that the
    hop diameter stays ``Θ(spine_length)`` while ``k`` grows with the leg count.
    """
    if spine_length < 2 or legs_per_node < 0:
        raise ValueError("need spine_length >= 2 and legs_per_node >= 0")
    n = spine_length * (1 + legs_per_node)
    graph = WeightedGraph(n)
    for i in range(spine_length - 1):
        graph.add_edge(i, i + 1, 1)
    next_leaf = spine_length
    for spine_node in range(spine_length):
        for _ in range(legs_per_node):
            graph.add_edge(spine_node, next_leaf, 1)
            next_leaf += 1
    return graph


def power_law_graph(
    n: int,
    rng: RandomSource,
    attachment: int = 2,
    max_weight: int = 1,
) -> WeightedGraph:
    """A preferential-attachment ("scale-free") graph à la Barabási–Albert.

    Models internet-like topologies: every new node attaches to ``attachment``
    existing nodes chosen proportionally to their current degree, giving a
    power-law degree distribution, a few high-degree hubs, and a small hop
    diameter.  For the HYBRID algorithms this is the regime where the *global*
    mode's per-node capacity (not distance) is the bottleneck: hubs see a
    disproportionate share of token-routing traffic.  Connected by
    construction.
    """
    if n < 2:
        raise ValueError("need at least 2 nodes")
    if attachment < 1:
        raise ValueError("attachment must be at least 1")
    graph = WeightedGraph(n)
    # Endpoint multiset: every edge contributes both endpoints, so sampling a
    # uniform element is degree-proportional sampling.
    endpoints: list[int] = [0]
    for node in range(1, n):
        chosen = set()
        wanted = min(attachment, node)
        while len(chosen) < wanted:
            chosen.add(endpoints[rng.randrange(len(endpoints))])
        # Sorted: the iteration order feeds the endpoint multiset and hence
        # every later degree-proportional draw, so it must not depend on set
        # internals (RL002).  tests/test_generators.py pins the result.
        for target in sorted(chosen):
            graph.add_edge(node, target, 1)
            endpoints.append(node)
            endpoints.append(target)
    if max_weight > 1:
        graph = assign_random_weights(graph, max_weight, rng)
    return graph


def grid_with_highways_graph(
    rows: int,
    cols: int,
    highway_count: int,
    rng: RandomSource,
    street_weight: int = 4,
    highway_weight: int = 1,
) -> WeightedGraph:
    """A road-network-style graph: a weighted grid plus a few long "highways".

    Models the introduction's street-level mesh: local links ("streets") form
    a ``rows x cols`` grid with weight ``street_weight``; ``highway_count``
    random long-range edges with the cheaper weight ``highway_weight`` connect
    distant intersections.  The hop diameter stays ``Θ(rows + cols)`` while
    shortest *weighted* paths want to detour through highways, so hop-limited
    distances ``d_h`` genuinely differ from hop counts -- the regime where the
    skeleton machinery earns its keep.
    """
    if highway_count < 0:
        raise ValueError("highway_count must be non-negative")
    graph = grid_graph(rows, cols, weight=street_weight)
    n = rows * cols
    added = 0
    attempts = 0
    while added < highway_count and attempts < 50 * (highway_count + 1):
        attempts += 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        manhattan = abs(u // cols - v // cols) + abs(u % cols - v % cols)
        if u != v and manhattan >= (rows + cols) // 4 and not graph.has_edge(u, v):
            graph.add_edge(u, v, highway_weight)
            added += 1
    return graph


def hierarchical_isp_graph(
    core_count: int,
    regionals_per_core: int,
    leaves_per_regional: int,
    rng: RandomSource,
    cross_links: int = 2,
    max_weight: int = 1,
) -> WeightedGraph:
    """A three-tier ISP topology: core ring, regional rings, access leaves.

    A deeper version of :func:`clustered_isp_graph` modelling a national
    carrier: ``core_count`` backbone routers in a ring, each serving a ring of
    ``regionals_per_core`` regional routers, each of which serves
    ``leaves_per_regional`` access nodes, plus a few random regional-to-
    regional cross links.  Node layout: cores first, then regionals grouped by
    core, then leaves grouped by regional.  Connected by construction; the hop
    diameter scales with the core ring while most nodes are leaves, matching
    the "LAN + Internet" motivation of the paper's introduction.
    """
    if core_count < 2 or regionals_per_core < 1 or leaves_per_regional < 0:
        raise ValueError("invalid hierarchy dimensions")
    regional_base = core_count
    regional_total = core_count * regionals_per_core
    leaf_base = regional_base + regional_total
    n = leaf_base + regional_total * leaves_per_regional
    graph = WeightedGraph(n)
    for core in range(core_count):
        if core_count > 1 and not graph.has_edge(core, (core + 1) % core_count):
            graph.add_edge(core, (core + 1) % core_count, 1)
    for core in range(core_count):
        regionals = [
            regional_base + core * regionals_per_core + i for i in range(regionals_per_core)
        ]
        for position, regional in enumerate(regionals):
            graph.add_edge(core, regional, 1)
            if len(regionals) > 2:
                neighbour = regionals[(position + 1) % len(regionals)]
                if not graph.has_edge(regional, neighbour):
                    graph.add_edge(regional, neighbour, 1)
            regional_index = regional - regional_base
            for leaf in range(leaves_per_regional):
                graph.add_edge(regional, leaf_base + regional_index * leaves_per_regional + leaf, 1)
    for _ in range(cross_links):
        u = regional_base + rng.randrange(regional_total)
        v = regional_base + rng.randrange(regional_total)
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, 1)
    if max_weight > 1:
        graph = assign_random_weights(graph, max_weight, rng)
    return graph


def connected_workload(
    n: int,
    rng: RandomSource,
    weighted: bool = False,
    max_weight: int = 16,
    average_degree: float = 4.0,
) -> WeightedGraph:
    """The default benchmark workload: a connected random graph of ``n`` nodes.

    ``max_weight`` defaults to a small polynomial-in-n-friendly value so both
    the weighted and unweighted branches of the algorithms get exercised.
    """
    return random_connected_graph(
        n,
        average_degree=average_degree,
        rng=rng,
        max_weight=max_weight if weighted else 1,
    )

