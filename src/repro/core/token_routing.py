"""The token routing protocol (Section 2, Theorem 2.2, Algorithms 2-4).

Problem: a set of sender nodes ``S`` must deliver point-to-point tokens of
``O(log n)`` bits to a set of receiver nodes ``R``; each sender sends at most
``k_S`` tokens, each receiver receives at most ``k_R``, and every receiver
knows the labels of the tokens it expects.  Theorem 2.2: if ``S`` and ``R``
are well spread (e.g. uniformly sampled), all tokens can be routed in
``Õ(K/n + √k_S + √k_R)`` rounds, where ``K`` is the total workload.

The protocol (Algorithms 2-4):

1. ``Compute-Helpers`` builds helper sets ``H_s`` / ``H'_r`` of size
   ``µ_S`` / ``µ_R`` for every sender and receiver (Algorithm 1).
2. ``Routing-Preparation`` distributes each sender's tokens and each
   receiver's expected labels evenly over its helpers via the local network.
3. ``Routing-Scheme`` funnels tokens from sender-helpers to receiver-helpers
   through pseudo-random intermediate nodes: the intermediate for token
   ``(s, r, i)`` is ``h(s, r, i)`` for a shared k-wise independent hash ``h``
   (Lemma D.2 keeps the per-node receive load at ``O(log n)`` w.h.p.).
   Receiver-helpers then *request* their labels from the same intermediates,
   which answer with the stored tokens.
4. Receivers finally collect their tokens from their helpers locally.

Representation (DESIGN.md §4): the router works on *label columns* -- three
int64 arrays of senders, receivers and indices -- and never sees a payload.
:meth:`TokenRouter.route` ships the routable tokens' sender/target columns
through the three global phases and returns the :class:`RoutingPlan`, whose
delivery order tells the caller which positions each receiver got; the
caller keeps its payloads in a column of its own and reads them by position.
The plan is a function of the labels alone, so a router reuses it when it
routes the same label set again.
:class:`RoutingToken` is only the public edge's form: :func:`route_tokens`
and :meth:`HybridSession.route_tokens <repro.session.HybridSession.route_tokens>`
validate and convert token lists with :func:`token_labels` and hand the
tokens back per receiver (:func:`deliver_tokens`).
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Sequence
from dataclasses import dataclass

import numpy as _np

from repro.core.helper_sets import HelperSets, compute_helper_sets, helper_parameter
from repro.hybrid.errors import ProtocolError
from repro.hybrid.network import ExchangeSchedule, HybridNetwork
from repro.localnet.aggregation import broadcast_value
from repro.util.hashing import hash_family_for_network


def _assign_round_robin(endpoints: _np.ndarray, helper_sets: HelperSets, role: str):
    """Per token, the helper its endpoint deals it to (``c % helper_count``).

    ``endpoints[i]`` is token ``i``'s sender (or receiver); token number ``c``
    of an endpoint goes to that endpoint's helper ``c % len(helpers)``.  With
    ``c`` from one stable sort of the endpoints, that is one gather from the
    helper column: ``nodes[bounds[slot] + c % count[slot]]``.
    """
    if not endpoints.size:
        return _np.empty(0, dtype=_np.int64)
    members = helper_sets.members
    slot = _np.minimum(_np.searchsorted(members, endpoints), members.size - 1)
    unknown = members[slot] != endpoints
    if unknown.any():
        endpoint = int(endpoints[unknown].min())
        raise ProtocolError(f"token {role} {endpoint} is not in the {role} set")
    order = _np.argsort(endpoints, kind="stable")
    sorted_endpoints = endpoints[order]
    position = _np.arange(order.size)
    first = _np.concatenate(([True], sorted_endpoints[1:] != sorted_endpoints[:-1]))
    rank = _np.empty(order.size, dtype=_np.int64)
    rank[order] = position - _np.maximum.accumulate(_np.where(first, position, 0))
    counts = helper_sets.counts()[slot]
    return helper_sets.nodes[helper_sets.bounds[slot] + rank % counts]


@dataclass(frozen=True)
class RoutingToken:
    """One token of the routing problem, labelled ``(sender, receiver, index)``.

    The public form of a token: :func:`route_tokens` and
    :meth:`HybridSession.route_tokens <repro.session.HybridSession.route_tokens>`
    take and return these, and convert to label columns
    (:func:`token_labels`) on entry.
    """

    sender: int
    receiver: int
    index: int
    payload: Hashable = None

    @property
    def label(self) -> tuple[int, int, int]:
        """The token's unique label ``(s, r, i)`` used for hashing and requests."""
        return (self.sender, self.receiver, self.index)


#: A label set as three parallel int64 columns: senders, receivers, indices.
LabelColumns = tuple[_np.ndarray, _np.ndarray, _np.ndarray]


def make_tokens(assignments: dict[int, Sequence[tuple[int, Hashable]]]) -> list[RoutingToken]:
    """Build labelled tokens from ``sender -> [(receiver, payload), ...]``.

    Indices enumerate the tokens of each (sender, receiver) pair, matching the
    labelling convention of Section 2.2.
    """
    tokens: list[RoutingToken] = []
    counters: dict[tuple[int, int], int] = {}
    for sender, items in assignments.items():
        for receiver, payload in items:
            key = (sender, receiver)
            index = counters.get(key, 0)
            counters[key] = index + 1
            tokens.append(RoutingToken(sender, receiver, index, payload))
    return tokens


def token_labels(tokens: Sequence[RoutingToken], n: int) -> LabelColumns:
    """The tokens' label columns, validated for an ``n``-node network.

    Raises :class:`ValueError` naming the offending field for an endpoint
    outside ``[0, n)``, a negative index, or a repeated ``(sender, receiver,
    index)`` label -- the hash and the receivers' label requests both assume
    labels are unique.
    """
    count = len(tokens)
    senders = _np.fromiter((token.sender for token in tokens), _np.int64, count)
    receivers = _np.fromiter((token.receiver for token in tokens), _np.int64, count)
    indices = _np.fromiter((token.index for token in tokens), _np.int64, count)
    for field, column in (("sender", senders), ("receiver", receivers)):
        outside = (column < 0) | (column >= n)
        if outside.any():
            bad = int(column[outside][0])
            raise ValueError(f"token {field} {bad} outside the network [0, {n})")
    if (indices < 0).any():
        raise ValueError(f"token index {int(indices[indices < 0][0])} is negative")
    order = _np.lexsort((indices, receivers, senders))
    repeated = (
        (senders[order][1:] == senders[order][:-1])
        & (receivers[order][1:] == receivers[order][:-1])
        & (indices[order][1:] == indices[order][:-1])
    )
    if repeated.any():
        position = int(order[_np.flatnonzero(repeated)[0]])
        label = (int(senders[position]), int(receivers[position]), int(indices[position]))
        raise ValueError(f"token label {label} is repeated")
    return senders, receivers, indices


def endpoint_loads(labels: LabelColumns) -> tuple[list[int], list[int], int, int]:
    """Distinct senders and receivers of a label set and their ``k_S`` / ``k_R``."""
    senders, sender_loads = _np.unique(labels[0], return_counts=True)
    receivers, receiver_loads = _np.unique(labels[1], return_counts=True)
    return (
        senders.tolist(),
        receivers.tolist(),
        int(sender_loads.max()),
        int(receiver_loads.max()),
    )


@dataclass(frozen=True, eq=False)
class RoutingPlan:
    """The deterministic part of one routing instance (see TokenRouter.plan).

    Everything here is a pure function of the label columns, the router's
    shared hash function and the network's caps, and refers to tokens by
    their *position* in the label columns: the routable (not self-addressed)
    positions, each routable token's intermediate node and round-robin
    helper on both sides, the three global phases' exchange schedules, and
    the per-receiver delivery order.  Payloads never enter the plan, so one
    plan serves every routing instance over the same label set, and a reused
    plan schedules nothing.
    """

    senders: _np.ndarray
    receivers: _np.ndarray
    indices: _np.ndarray
    #: Positions of the tokens that travel (sender != receiver), ascending.
    routable: _np.ndarray
    #: Per routable token: ``h(s, r, i)``, its sender-helper, its receiver-helper.
    intermediates: _np.ndarray
    sender_helper_of: _np.ndarray
    receiver_helper_of: _np.ndarray
    #: The push, request and respond phases' exchange schedules: the
    #: columns above never change, so neither do the schedules.
    push_schedule: ExchangeSchedule
    request_schedule: ExchangeSchedule
    respond_schedule: ExchangeSchedule
    #: All positions grouped per receiver: receivers holding a
    #: self-addressed token come first (in order of that token), then the
    #: rest ascending; within a receiver, self-addressed tokens precede
    #: routed ones, each in label order.
    delivery_order: _np.ndarray

    def matches(self, senders: _np.ndarray, receivers: _np.ndarray, indices: _np.ndarray) -> bool:
        """Whether the plan was computed for exactly these label columns."""
        return (
            _np.array_equal(self.senders, senders)
            and _np.array_equal(self.receivers, receivers)
            and _np.array_equal(self.indices, indices)
        )

    def deliveries(self, present: _np.ndarray | None = None) -> tuple[_np.ndarray, list[int]]:
        """The delivered positions in delivery order and each receiver's run.

        ``present`` (a boolean column over the positions) keeps only the
        positions it marks.  Returns ``(order, bounds)``: one receiver gets
        ``order[bounds[j]:bounds[j + 1]]`` for each ``j``.
        """
        order = self.delivery_order
        if present is not None:
            order = order[present[order]]
        receivers = self.receivers[order]
        if not order.size:
            return order, [0]
        starts = _np.flatnonzero(receivers[1:] != receivers[:-1]) + 1
        return order, [0, *starts.tolist(), order.size]


@dataclass
class TokenRoutingResult:
    """Outcome of one token-routing execution.

    Attributes
    ----------
    delivered:
        ``receiver -> list of tokens`` it received (all tokens addressed to it).
    rounds:
        Total rounds (local + global) consumed, including helper-set
        construction unless a pre-built :class:`TokenRouter` was reused.
    mu_senders / mu_receivers:
        The helper parameters ``µ_S`` and ``µ_R`` actually used.
    sender_helpers / receiver_helpers:
        The helper families (for property auditing in tests and benchmarks).
    """

    delivered: dict[int, list[RoutingToken]]
    rounds: int
    mu_senders: int
    mu_receivers: int
    sender_helpers: HelperSets | None = None
    receiver_helpers: HelperSets | None = None
    token_count: int = 0


class TokenRouter:
    """Reusable token-routing endpoint for a fixed sender/receiver population.

    The CLIQUE simulation (Corollary 4.1) runs one routing instance per
    simulated CLIQUE round with the *same* senders and receivers; building the
    helper sets once and reusing them across rounds mirrors the paper, which
    also computes them a single time before the simulation loop.  Tokens are
    label columns here (:meth:`route`); the plan of the last label set is
    kept, so routing the same labels again -- every single-message CLIQUE
    round, a warm APSP with unchanged connectors -- skips :meth:`plan`.
    """

    def __init__(
        self,
        network: HybridNetwork,
        senders: Sequence[int],
        receivers: Sequence[int],
        max_tokens_per_sender: int,
        max_tokens_per_receiver: int,
        phase: str = "token-routing",
    ) -> None:
        if not senders or not receivers:
            raise ValueError("senders and receivers must be non-empty")
        self.network = network
        self.phase = phase
        self.senders = sorted(set(senders))
        self.receivers = sorted(set(receivers))
        self.max_tokens_per_sender = max(1, max_tokens_per_sender)
        self.max_tokens_per_receiver = max(1, max_tokens_per_receiver)

        self.mu_senders = helper_parameter(network.n, len(self.senders), self.max_tokens_per_sender)
        self.mu_receivers = helper_parameter(
            network.n, len(self.receivers), self.max_tokens_per_receiver
        )
        rounds_before = network.metrics.total_rounds
        self.sender_helpers = compute_helper_sets(
            network, self.senders, self.max_tokens_per_sender, phase=phase + ":sender-helpers"
        )
        self.receiver_helpers = compute_helper_sets(
            network, self.receivers, self.max_tokens_per_receiver, phase=phase + ":receiver-helpers"
        )
        # The randomly seeded hash function is shared by broadcasting its seed
        # (O(log^2 n) bits, Lemma 2.3); we charge the O(log n)-round broadcast.
        seed_rng = network.fork_rng(phase + ":hash-seed")
        self.hash_function = hash_family_for_network(network.n, seed_rng)
        broadcast_value(network, seed_rng.seed, source=self.senders[0], phase=phase + ":hash-seed")
        self.setup_rounds = network.metrics.total_rounds - rounds_before
        self._plan: RoutingPlan | None = None

    # ------------------------------------------------------------------ route
    def plan(self, senders, receivers, indices) -> RoutingPlan:
        """Compute the deterministic routing plan for a label set.

        The plan -- the self-delivered split, each routable token's hashed
        intermediate and its round-robin helper on both sides, the delivery
        order -- depends only on the labels and the router's fixed hash
        function, exactly like the paper evaluates the shared hash per label
        once.  :meth:`route` calls this only when the label set differs from
        the one it routed last.
        """
        senders = _np.array(senders, dtype=_np.int64)
        receivers = _np.array(receivers, dtype=_np.int64)
        indices = _np.array(indices, dtype=_np.int64)
        self_addressed = senders == receivers
        routable = _np.flatnonzero(~self_addressed)
        routed_senders = senders[routable]
        routed_receivers = receivers[routable]
        # Each label is hashed exactly once -- the whole batch in one
        # vectorised field evaluation over the (sender, receiver, index)
        # lanes, the keys the scalar hash sees on RoutingToken.label.
        intermediates = self.hash_function.many(
            (routed_senders, routed_receivers, indices[routable])
        )
        # Helper assignment deals each endpoint's tokens round-robin: token
        # number c of an endpoint goes to helper ``c % helper_count``, the
        # balanced ⌈k/µ⌉-per-helper split of Fact 2.4.
        sender_helper_of = _assign_round_robin(routed_senders, self.sender_helpers, "sender")
        receiver_helper_of = _assign_round_robin(
            routed_receivers, self.receiver_helpers, "receiver"
        )
        # Everything queued is delivered, so the per-receiver grouping is
        # label-determined as well: rank the receivers (self-addressed first
        # in label order, then the rest ascending) and sort the positions by
        # (receiver rank, routed-after-self, position).
        self_receivers = receivers[self_addressed]
        _, first = _np.unique(self_receivers, return_index=True)
        leading = self_receivers[_np.sort(first)]
        ranked = _np.concatenate((leading, _np.setdiff1d(routed_receivers, leading)))
        by_value = _np.argsort(ranked)
        rank = by_value[_np.searchsorted(ranked[by_value], receivers)]
        delivery_order = _np.lexsort((_np.arange(senders.size), ~self_addressed, rank))
        # The global phases' columns are fixed here, and so are their schedules.
        schedule = self.network.schedule_exchange
        return RoutingPlan(
            senders=senders,
            receivers=receivers,
            indices=indices,
            routable=routable,
            intermediates=intermediates,
            sender_helper_of=sender_helper_of,
            receiver_helper_of=receiver_helper_of,
            push_schedule=schedule(sender_helper_of, intermediates),
            request_schedule=schedule(receiver_helper_of, intermediates),
            respond_schedule=schedule(intermediates, receiver_helper_of),
            delivery_order=delivery_order,
        )

    def route(self, senders, receivers, indices) -> RoutingPlan:
        """Execute Routing-Preparation + Routing-Scheme for one label set.

        The tokens are the label columns ``(senders[i], receivers[i],
        indices[i])``; their payloads stay with the caller, who reads them by
        position through the returned plan's delivery order.  The rounds are
        charged to the network; the one-time helper-set construction cost is
        ``setup_rounds`` (the :func:`route_tokens` wrapper includes it).

        Tokens whose sender equals their receiver are delivered directly (the
        node already has them); everything else flows through helpers and
        intermediates.  Raises :class:`ProtocolError` for an endpoint outside
        the router's populations, or if a token fails to reach its receiver
        (which would indicate an engine bug).
        """
        network = self.network
        log_factor = network.config.log_rounds(network.n)

        plan = self._plan
        if plan is None or not plan.matches(senders, receivers, indices):
            plan = self._plan = self.plan(senders, receivers, indices)
        intermediates = plan.intermediates
        sender_helper_of = plan.sender_helper_of
        receiver_helper_of = plan.receiver_helper_of

        # ---------------------------------------------- Routing-Preparation
        # Two local flooding loops bounded by 2(µ_S + µ_R)⌈log n⌉ rounds each:
        # helpers detect whom they help, then tokens / labels reach the
        # helpers.  As with the clustering, we charge the flood depth the
        # protocol actually needs -- twice the real cluster radii -- capped by
        # the paper's worst-case bound.
        sender_radius = self.sender_helpers.radius
        receiver_radius = self.receiver_helpers.radius
        paper_bound = max(1, 2 * (self.mu_senders + self.mu_receivers) * log_factor)
        preparation_rounds = max(1, min(2 * (sender_radius + receiver_radius), paper_bound))
        network.charge_local_rounds(preparation_rounds, self.phase + ":preparation-detect")
        network.charge_local_rounds(preparation_rounds, self.phase + ":preparation-distribute")

        # -------------------------------------------------- Routing-Scheme
        # The three phases ship their traffic as sender/target columns taken
        # straight from the plan's helper/intermediate arrays (one message
        # per routable token and phase) by the plan's schedules, so a reused
        # plan only accounts them.  Each phase runs as a
        # *reliable* exchange: on the ideal model that is plain
        # run_global_exchange (bit-identical rounds), under an active
        # FaultModel it retransmits unacknowledged messages within the retry
        # budget and raises FaultToleranceExceededError when beaten -- so a
        # completed exchange always delivered every queued message, and the
        # request an intermediate receives for a label and the token it
        # stores for that label are the same routable position: phase C's
        # traffic is phase B's reversed.
        # Phase A: sender-helpers push tokens to their intermediate nodes.
        network.run_reliable_exchange(
            sender_helper_of, intermediates, self.phase + ":push", schedule=plan.push_schedule
        )
        # Phase B: receiver-helpers request their labels from the intermediates.
        network.run_reliable_exchange(
            receiver_helper_of,
            intermediates,
            self.phase + ":request",
            schedule=plan.request_schedule,
        )
        # Phase C: intermediates answer every request with the stored token.
        responded, _ = network.run_reliable_exchange(
            intermediates,
            receiver_helper_of,
            self.phase + ":respond",
            schedule=plan.respond_schedule,
        )

        # Receivers collect the fetched tokens from their helpers locally.
        collection_bound = max(1, 2 * self.mu_receivers * log_factor)
        collection_rounds = max(1, min(2 * receiver_radius, collection_bound))
        network.charge_local_rounds(collection_rounds, self.phase + ":collect")
        # The exchange must have carried one response per routed token; with
        # the count verified, each receiver's tokens are the plan's delivery
        # group (label-determined) instead of a per-message fold of the inbox.
        if responded.size != plan.routable.size:
            raise ProtocolError(
                f"token routing delivered {responded.size} of {plan.routable.size} routed tokens"
            )
        return plan


def deliver_tokens(
    router: TokenRouter, tokens: Sequence[RoutingToken], labels: LabelColumns
) -> TokenRoutingResult:
    """Route ``tokens`` (with their :func:`token_labels`) and regroup them per receiver."""
    rounds_before = router.network.metrics.total_rounds
    plan = router.route(*labels)
    order, bounds = plan.deliveries()
    positions = order.tolist()
    delivered = {
        tokens[positions[begin]].receiver: [tokens[position] for position in positions[begin:end]]
        for begin, end in zip(bounds[:-1], bounds[1:], strict=True)
    }
    return TokenRoutingResult(
        delivered=delivered,
        rounds=router.network.metrics.total_rounds - rounds_before,
        mu_senders=router.mu_senders,
        mu_receivers=router.mu_receivers,
        sender_helpers=router.sender_helpers,
        receiver_helpers=router.receiver_helpers,
        token_count=len(tokens),
    )


def route_tokens(
    network: HybridNetwork,
    tokens: Sequence[RoutingToken],
    phase: str = "token-routing",
) -> TokenRoutingResult:
    """One-shot Theorem 2.2: build helper sets for the tokens' endpoints and route.

    ``k_S`` and ``k_R`` are derived from the token list (maximum per sender /
    per receiver), matching the problem statement in Section 1.3.  The labels
    are validated (:func:`token_labels`) before any round is charged.
    """
    if not tokens:
        return TokenRoutingResult(
            delivered={}, rounds=0, mu_senders=1, mu_receivers=1, token_count=0
        )
    labels = token_labels(tokens, network.n)
    senders, receivers, max_per_sender, max_per_receiver = endpoint_loads(labels)
    router = TokenRouter(
        network,
        senders=senders,
        receivers=receivers,
        max_tokens_per_sender=max_per_sender,
        max_tokens_per_receiver=max_per_receiver,
        phase=phase,
    )
    result = deliver_tokens(router, tokens, labels)
    result.rounds += router.setup_rounds
    return result


def predicted_routing_rounds(
    n: int,
    sender_count: int,
    receiver_count: int,
    tokens_per_sender: int,
    tokens_per_receiver: int,
) -> float:
    """The Theorem 2.2 bound ``K/n + √k_S + √k_R`` (without polylog factors).

    Benchmarks compare measured rounds against this quantity to validate the
    claimed shape.
    """
    workload = sender_count * tokens_per_sender + receiver_count * tokens_per_receiver
    return (
        workload / max(n, 1)
        + math.sqrt(max(tokens_per_sender, 0))
        + math.sqrt(max(tokens_per_receiver, 0))
    )
