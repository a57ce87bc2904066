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
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Sequence
from dataclasses import dataclass

import numpy as _np

from repro.core.helper_sets import HelperSets, compute_helper_sets, helper_parameter
from repro.hybrid.batch import MessageBatch
from repro.hybrid.errors import ProtocolError
from repro.hybrid.network import HybridNetwork
from repro.localnet.aggregation import broadcast_value
from repro.util.hashing import hash_family_for_network


def _assign_round_robin(endpoints: Sequence[int], helper_lists: dict[int, list[int]], role: str):
    """Per token, the helper its endpoint deals it to (``c % helper_count``).

    ``endpoints[i]`` is token ``i``'s sender (or receiver); token number ``c``
    of an endpoint goes to that endpoint's helper ``c % len(helpers)``.  Large
    batches group the positions per endpoint and assign them with one take
    per endpoint instead of dict lookups per token.
    """
    if len(endpoints) < 64:
        result: list[int] = [0] * len(endpoints)
        counters: dict[int, int] = {}
        for position, endpoint in enumerate(endpoints):
            helpers = helper_lists.get(endpoint)
            if helpers is None:
                raise ProtocolError(f"token {role} {endpoint} is not in the {role} set")
            count = counters.get(endpoint, 0)
            counters[endpoint] = count + 1
            result[position] = helpers[count % len(helpers)]
        return result
    arr = _np.asarray(endpoints, dtype=_np.int64)
    order = _np.argsort(arr, kind="stable")
    sorted_endpoints = arr[order]
    starts = _np.flatnonzero(
        _np.concatenate(([True], sorted_endpoints[1:] != sorted_endpoints[:-1]))
    )
    bounds = _np.concatenate((starts, [order.size]))
    result_arr = _np.empty(arr.size, dtype=_np.int64)
    for begin, end in zip(bounds[:-1].tolist(), bounds[1:].tolist(), strict=True):
        endpoint = int(sorted_endpoints[begin])
        helpers = helper_lists.get(endpoint)
        if helpers is None:
            raise ProtocolError(f"token {role} {endpoint} is not in the {role} set")
        result_arr[order[begin:end]] = _np.take(
            _np.asarray(helpers, dtype=_np.int64),
            _np.arange(end - begin) % len(helpers),
        )
    return result_arr


@dataclass(frozen=True)
class RoutingToken:
    """One token of the routing problem, labelled ``(sender, receiver, index)``."""

    sender: int
    receiver: int
    index: int
    payload: Hashable = None

    @property
    def label(self) -> tuple[int, int, int]:
        """The token's unique label ``(s, r, i)`` used for hashing and requests."""
        return (self.sender, self.receiver, self.index)


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


@dataclass
class RoutingPlan:
    """The deterministic part of one routing instance (see TokenRouter.plan).

    Everything here is a pure function of the token labels and the router's
    shared hash function: the routable/self-delivered split, each token's
    intermediate node, the round-robin helper on both sides, and the final
    per-receiver grouping.  Reusable across :meth:`TokenRouter.route` calls
    with the same token list.
    """

    tokens: Sequence[RoutingToken]
    routable: list[RoutingToken]
    intermediates: Sequence[int]
    sender_helper_of: Sequence[int]
    receiver_helper_of: Sequence[int]
    delivered_by_receiver: dict[int, list[RoutingToken]]

    @property
    def token_count(self) -> int:
        """Number of tokens the plan was computed for."""
        return len(self.tokens)


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
    also computes them a single time before the simulation loop.
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

    # ------------------------------------------------------------------ route
    def plan(self, tokens: Sequence[RoutingToken]) -> "RoutingPlan":
        """Precompute the deterministic routing plan for a token list.

        The plan -- the self-delivered split, each routable token's hashed
        intermediate and its round-robin helper on both sides -- depends only
        on the token *labels* and the router's fixed hash function, so a
        caller routing the same label set every round (the CLIQUE simulation
        routes one token per ordered skeleton pair per round) computes it
        once and passes it to :meth:`route`, exactly like the paper evaluates
        the shared hash per label once.
        """
        direct: dict[int, list[RoutingToken]] = {}
        routable: list[RoutingToken] = []
        for token in tokens:
            if token.sender == token.receiver:
                direct.setdefault(token.receiver, []).append(token)
            else:
                routable.append(token)

        # Each token's label is hashed exactly once -- the whole batch in one
        # vectorised field evaluation.  The lanes must spell out
        # RoutingToken.label's (sender, receiver, index) convention so the
        # batch evaluates the same keys as the scalar hash on token.label.
        token_senders = [token.sender for token in routable]
        token_receivers = [token.receiver for token in routable]
        intermediates = self.hash_function.many(
            (token_senders, token_receivers, [token.index for token in routable])
        )
        # Helper assignment deals each endpoint's tokens round-robin: token
        # number c of an endpoint goes to helper ``c % helper_count``, the
        # balanced ⌈k/µ⌉-per-helper split of Fact 2.4.  Both sides are
        # assigned by grouping the token positions per endpoint (one pass of
        # array ops per endpoint, not per token).
        sender_helper_of = _assign_round_robin(
            token_senders, self.sender_helpers.helpers, "sender"
        )
        receiver_helper_of = _assign_round_robin(
            token_receivers, self.receiver_helpers.helpers, "receiver"
        )
        # The final per-receiver token lists are label-determined as well
        # (everything queued is delivered), so the grouping is part of the
        # plan; route() hands out fresh copies.
        delivered_by_receiver: dict[int, list[RoutingToken]] = {
            receiver: list(items) for receiver, items in direct.items()
        }
        for receiver, _, items in MessageBatch(
            token_senders, token_receivers, routable
        ).groupby_target():
            delivered_by_receiver.setdefault(receiver, []).extend(items)
        return RoutingPlan(
            tokens=tokens,
            routable=routable,
            intermediates=intermediates,
            sender_helper_of=sender_helper_of,
            receiver_helper_of=receiver_helper_of,
            delivered_by_receiver=delivered_by_receiver,
        )

    def route(
        self, tokens: Sequence[RoutingToken], plan: "RoutingPlan" | None = None
    ) -> TokenRoutingResult:
        """Execute Routing-Preparation + Routing-Scheme for the given tokens.

        The returned round count covers this routing instance only; the
        one-time helper-set construction cost is available as ``setup_rounds``
        (the :func:`route_tokens` convenience wrapper includes it).  A
        :meth:`plan` computed for this exact token list may be passed to skip
        re-deriving the hashes and helper assignments (they are deterministic
        per label set).

        Tokens whose sender equals their receiver are delivered directly (the
        node already has them); everything else flows through helpers and
        intermediates.  Raises :class:`ProtocolError` if a token fails to reach
        its receiver (which would indicate an engine bug).
        """
        network = self.network
        rounds_before = network.metrics.total_rounds
        log_factor = network.config.log_rounds(network.n)

        if plan is None:
            plan = self.plan(tokens)
        elif plan.tokens is not tokens:
            # Same-length-different-content misuse would silently deliver the
            # plan's tokens, so require the exact list the plan was built for.
            raise ValueError("routing plan was computed for a different token list")
        routable = plan.routable
        intermediates = plan.intermediates
        sender_helper_of = plan.sender_helper_of
        receiver_helper_of = plan.receiver_helper_of

        # ---------------------------------------------- Routing-Preparation
        # Two local flooding loops bounded by 2(µ_S + µ_R)⌈log n⌉ rounds each:
        # helpers detect whom they help, then tokens / labels reach the
        # helpers.  As with the clustering, we charge the flood depth the
        # protocol actually needs -- twice the real cluster radii -- capped by
        # the paper's worst-case bound.
        sender_radius = self.sender_helpers.clustering.radius
        receiver_radius = self.receiver_helpers.clustering.radius
        paper_bound = max(1, 2 * (self.mu_senders + self.mu_receivers) * log_factor)
        preparation_rounds = max(1, min(2 * (sender_radius + receiver_radius), paper_bound))
        network.charge_local_rounds(preparation_rounds, self.phase + ":preparation-detect")
        network.charge_local_rounds(preparation_rounds, self.phase + ":preparation-distribute")

        # -------------------------------------------------- Routing-Scheme
        # The three phases ship their traffic as MessageBatch columns built
        # straight from the token/helper/intermediate arrays (one message per
        # token and phase), so the engine schedules and accounts them with
        # whole-array operations.  Each phase runs as a *reliable* exchange:
        # on the ideal model that is plain run_global_exchange (bit-identical
        # rounds), under an active FaultModel it retransmits unacknowledged
        # messages within the retry budget and raises
        # FaultToleranceExceededError when beaten -- so a completed exchange
        # always delivered every queued message, and the request an
        # intermediate receives for a label and the token it stores for that
        # label both follow from the same array row: phase C's outboxes are
        # derived from it directly instead of re-keying a per-intermediate
        # store off the phase B inboxes.
        # Phase A: sender-helpers push tokens to their intermediate nodes.
        network.run_reliable_exchange(
            MessageBatch(sender_helper_of, intermediates, routable), self.phase + ":push"
        )
        # Phase B: receiver-helpers request their labels from the
        # intermediates (the payload stands for ``(label, requester)``).
        network.run_reliable_exchange(
            MessageBatch(receiver_helper_of, intermediates, routable),
            self.phase + ":request",
        )
        # Phase C: intermediates answer every request with the stored token.
        response_inboxes, _ = network.run_reliable_exchange(
            MessageBatch(intermediates, receiver_helper_of, routable),
            self.phase + ":respond",
        )

        # Receivers collect the fetched tokens from their helpers locally.
        collection_bound = max(1, 2 * self.mu_receivers * log_factor)
        collection_rounds = max(1, min(2 * receiver_radius, collection_bound))
        network.charge_local_rounds(collection_rounds, self.phase + ":collect")
        # The exchange must have carried one response per routed token; with
        # the count verified, the per-receiver token lists come from the plan
        # (label-determined) instead of a per-message fold of the inbox.
        if len(response_inboxes) != len(routable):
            raise ProtocolError(
                f"token routing delivered {len(response_inboxes)} of "
                f"{len(routable)} routed tokens"
            )
        delivered: dict[int, list[RoutingToken]] = {
            receiver: list(items) for receiver, items in plan.delivered_by_receiver.items()
        }

        expected = len(tokens)
        received = sum(len(items) for items in delivered.values())
        if received != expected:
            raise ProtocolError(
                f"token routing delivered {received} of {expected} tokens"
            )

        rounds = network.metrics.total_rounds - rounds_before
        return TokenRoutingResult(
            delivered=delivered,
            rounds=rounds,
            mu_senders=self.mu_senders,
            mu_receivers=self.mu_receivers,
            sender_helpers=self.sender_helpers,
            receiver_helpers=self.receiver_helpers,
            token_count=len(tokens),
        )


def route_tokens(
    network: HybridNetwork,
    tokens: Sequence[RoutingToken],
    phase: str = "token-routing",
) -> TokenRoutingResult:
    """One-shot Theorem 2.2: build helper sets for the tokens' endpoints and route.

    ``k_S`` and ``k_R`` are derived from the token list (maximum per sender /
    per receiver), matching the problem statement in Section 1.3.
    """
    if not tokens:
        return TokenRoutingResult(
            delivered={}, rounds=0, mu_senders=1, mu_receivers=1, token_count=0
        )
    per_sender: dict[int, int] = {}
    per_receiver: dict[int, int] = {}
    for token in tokens:
        per_sender[token.sender] = per_sender.get(token.sender, 0) + 1
        per_receiver[token.receiver] = per_receiver.get(token.receiver, 0) + 1
    router = TokenRouter(
        network,
        senders=list(per_sender),
        receivers=list(per_receiver),
        max_tokens_per_sender=max(per_sender.values()),
        max_tokens_per_receiver=max(per_receiver.values()),
        phase=phase,
    )
    result = router.route(tokens)
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
