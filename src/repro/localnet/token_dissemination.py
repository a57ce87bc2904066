"""Token dissemination: make k tokens known to every node (Lemma B.1).

The paper reuses the ``Õ(√k + ℓ)``-round token dissemination protocol of
Augustine et al. SODA'20 as a black box (Lemma B.1): ``k`` tokens of
``O(log n)`` bits, each node initially holding at most ``ℓ`` of them, must
become known to all nodes.

We implement an equivalent-complexity protocol built from the primitives of
this library (see the substitution table in DESIGN.md):

1. **Count** the tokens with an NCC aggregation -- ``O(log n)`` rounds.
2. **Relay.**  Every token is sent to a pseudo-random relay node (hash of its
   identity), ``O(log n)`` tokens per sender per round -- ``Õ(ℓ + k/n)``
   rounds, after which every relay holds ``Õ(k/n)`` tokens.
3. **Cluster.**  Build a ``(2µ+1, ·)``-ruling set with ``µ = ⌊√k⌋`` (clamped)
   and cluster every node around its closest ruler -- clusters have ``≥ µ``
   members and hop radius ``Õ(µ)``; costs ``Õ(µ)`` = ``Õ(√k)`` rounds.
4. **Fetch.**  Cluster member number ``i`` requests the contents of every
   relay ``r`` with ``r ≡ i (mod cluster size)``.  Each relay answers each
   requesting cluster once, so it sends ``Õ((k/n) · n/µ) = Õ(k/µ) = Õ(√k)``
   tokens and each member receives ``Õ(k/µ) = Õ(√k)`` tokens -- ``Õ(√k)``
   global rounds.
5. **Spread.**  Every member floods what it fetched through its cluster
   (radius ``Õ(µ)`` = ``Õ(√k)`` local rounds); collectively a cluster fetched
   every relay, so afterwards every node knows every token.

Total: ``Õ(√k + k/n + ℓ)`` rounds, matching Lemma B.1.

Relay placement hashes a *canonical* per-token key (a stable digest of the
token itself), not the token's discovery-order index, so the relay
assignment -- and therefore the measured round count -- is independent of the
order in which ``tokens_per_node`` was populated.  All three global phases
build their traffic as :class:`~repro.hybrid.batch.MessageBatch` columns and
the whole relay batch is hashed with one ``KWiseHashFunction.many`` call.

All three global phases go through
:meth:`~repro.hybrid.network.HybridNetwork.run_reliable_exchange`: on the
ideal model that is exactly ``run_global_exchange`` (bit-identical rounds and
phases), while under an active :class:`~repro.hybrid.faults.FaultModel` each
phase retransmits unacknowledged messages within the model's retry budget --
the dissemination either completes exactly or raises
:class:`~repro.hybrid.errors.FaultToleranceExceededError` (DESIGN.md §8).
"""

from __future__ import annotations

import math
import zlib
from collections.abc import Hashable, Sequence
from dataclasses import dataclass

import numpy as _np

from repro.hybrid.batch import MessageBatch
from repro.hybrid.network import HybridNetwork
from repro.localnet.aggregation import aggregate_sum
from repro.localnet.clustering import cluster_around_rulers
from repro.localnet.ruling_set import compute_ruling_set
from repro.util.hashing import hash_family_for_network

Token = Hashable


def _canonical_token_key(token: Token) -> int:
    """A stable integer key identifying ``token`` regardless of discovery order.

    Equal tokens repr identically, so the digest only depends on the token
    itself; a (harmless) digest collision merely makes two tokens share a
    relay.
    """
    return zlib.crc32(repr(token).encode("utf-8", "backslashreplace"))


def _canonical_token_keys(tokens: Sequence[Token]):
    """Canonical keys for a whole batch.

    Integer tokens are their own canonical key (clipped into the hash field's
    key range), skipping the digest entirely; anything else goes through
    :func:`_canonical_token_key`.  Either way the key depends only on the
    token's value, never on discovery order.
    """
    if all(type(token) is int and token.bit_length() < 63 for token in tokens):
        return _np.asarray(tokens, dtype=_np.int64) & ((1 << 62) - 1)
    crc32 = zlib.crc32
    return [crc32(text.encode("utf-8", "backslashreplace")) for text in map(repr, tokens)]


@dataclass
class DisseminationResult:
    """Outcome of one token-dissemination run.

    Attributes
    ----------
    tokens:
        The full token set, now known to every node.
    token_count:
        ``k``, the number of distinct tokens disseminated.
    rounds:
        Total rounds (local + global) consumed by this dissemination,
        measured as the difference of the network's round counter.
    """

    tokens: list[Token]
    token_count: int
    rounds: int


def disseminate_tokens(
    network: HybridNetwork,
    tokens_per_node: dict[int, Sequence[Token]],
    phase: str = "token-dissemination",
    store_key: str | None = None,
) -> DisseminationResult:
    """Make every token known to every node (Lemma B.1).

    Parameters
    ----------
    network:
        The HYBRID network to run on.
    tokens_per_node:
        Initial token placement; a token held by several nodes is disseminated
        once (tokens are identified by equality).
    phase:
        Accounting label for the rounds this protocol consumes.
    store_key:
        When given, the resulting token list is additionally stored in every
        node's state under this key.
    """
    rounds_before = network.metrics.total_rounds
    n = network.n

    all_tokens: list[Token] = []
    seen = set()
    holders: list[int] = []
    for node, tokens in tokens_per_node.items():
        for token in tokens:
            if token not in seen:
                seen.add(token)
                all_tokens.append(token)
                holders.append(node)
    k = len(all_tokens)

    # Step 1: every node learns k (needed to agree on the cluster radius µ).
    aggregate_sum(
        network,
        {node: float(len(tokens)) for node, tokens in tokens_per_node.items()},
        phase=phase + ":count",
    )

    if k == 0:
        rounds = network.metrics.total_rounds - rounds_before
        return DisseminationResult(tokens=[], token_count=0, rounds=rounds)

    # Step 2: relay every token to a pseudo-random node.  The whole batch is
    # hashed in one vectorised field evaluation over canonical token keys.
    hash_function = hash_family_for_network(n, network.fork_rng(phase + ":hash"))
    relays = hash_function.many((_canonical_token_keys(all_tokens), [1] * k))
    relay_batch = MessageBatch(holders, relays, list(all_tokens))
    relay_inboxes, _ = network.run_reliable_exchange(relay_batch, phase + ":relay")
    relay_tokens: dict[int, list[Token]] = {
        relay: tokens for relay, _, tokens in relay_inboxes.groupby_target()
    }

    # Step 3: clusters of >= µ members with hop radius Õ(µ).
    mu = max(1, min(int(math.isqrt(k)), n))
    ruling = compute_ruling_set(network, mu, phase=phase + ":ruling-set")
    clustering = cluster_around_rulers(network, ruling.rulers, mu, phase=phase + ":clustering")

    # Step 4: members fetch disjoint relay shares.  A request is one message
    # (relay, requester); a response ships one token per message.
    occupied_relays = _np.array(sorted(relay_tokens), dtype=_np.int64)
    request_senders: list[int] = []
    request_targets: list[int] = []
    request_payloads: list[int] = []
    for members in clustering.members.values():
        size = len(members)
        shares = occupied_relays % size
        for index, member in enumerate(members):
            share = occupied_relays[shares == index]
            request_senders.extend([member] * share.size)
            request_targets.extend(share.tolist())
            request_payloads.extend([member] * share.size)
    request_inboxes, _ = network.run_reliable_exchange(
        MessageBatch(request_senders, request_targets, request_payloads),
        phase + ":requests",
    )

    # Each relay answers every requester with its full token list, one token
    # per message, in request-arrival order.
    response_senders: list[int] = []
    response_targets: list[int] = []
    response_payloads: list[Token] = []
    for relay, _, requesters in request_inboxes.groupby_target():
        tokens_here = relay_tokens.get(relay, [])
        if not tokens_here:
            continue
        response_senders.extend([relay] * (len(requesters) * len(tokens_here)))
        for requester in requesters:
            response_targets.extend([requester] * len(tokens_here))
            response_payloads.extend(tokens_here)
    response_inboxes, _ = network.run_reliable_exchange(
        MessageBatch(response_senders, response_targets, response_payloads),
        phase + ":responses",
    )

    fetched: dict[int, list[Token]] = {
        member: tokens for member, _, tokens in response_inboxes.groupby_target()
    }
    # Original holders keep their own tokens as well.
    for node, tokens in tokens_per_node.items():
        if tokens:
            fetched.setdefault(node, []).extend(tokens)

    # Step 5: flood the fetched tokens within each cluster.  The flood depth is
    # the cluster radius (every member reaches every other member).
    spread_depth = max(1, 2 * clustering.radius)
    network.charge_local_rounds(spread_depth, phase + ":spread")

    if store_key is not None:
        for node in range(n):
            network.state(node)[store_key] = all_tokens

    rounds = network.metrics.total_rounds - rounds_before
    return DisseminationResult(tokens=list(all_tokens), token_count=k, rounds=rounds)
