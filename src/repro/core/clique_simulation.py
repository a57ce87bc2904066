"""Simulating the CLIQUE model on a skeleton of a HYBRID network (Corollary 4.1).

Corollary 4.1: if ``S ⊆ V`` is obtained by sampling every node with
probability ``1/n^{1-x}``, one CLIQUE round on ``S`` can be simulated in
``Õ(n^{2x-1} + n^{x/2})`` HYBRID rounds.  The simulation is a direct
application of token routing: in a CLIQUE round every node of ``S`` sends and
receives at most ``|S|`` messages, which is exactly a token-routing instance
with senders = receivers = ``S`` and ``k_S = k_R = |S|``.

:class:`HybridCliqueTransport` implements the
:class:`~repro.clique.interfaces.CliqueTransport` protocol on top of a
:class:`~repro.core.token_routing.TokenRouter`, so any CLIQUE algorithm from
:mod:`repro.clique` can be executed unchanged inside a HYBRID network.

A CLIQUE round arrives as a :class:`~repro.hybrid.batch.MessageBatch` of
skeleton indices and leaves as the batch of delivered messages; in between
only the routing labels' sender/target columns cross the global network,
and the payloads are read back by position.  Every round routes
the same label set -- ``(s, r, 0)`` for each ordered pair of skeleton nodes,
built once as label columns -- and maps each pair's position
(``sender * |S| + target``) to the batch message that fills it, so the
router reuses one routing plan for every round whose pairs carry at most one
message each; an empty slot is padding and never reaches the result.
"""

from __future__ import annotations

import math

import numpy as _np

from repro.clique.model import check_round
from repro.core.skeleton import Skeleton
from repro.core.token_routing import TokenRouter
from repro.hybrid.batch import MessageBatch
from repro.hybrid.network import HybridNetwork
from repro.localnet.token_dissemination import disseminate_tokens


class HybridCliqueTransport:
    """A CLIQUE round transport backed by token routing on a HYBRID network.

    Construction makes the skeleton membership public knowledge (one token
    dissemination of ``|S|`` IDs, ``Õ(√|S|)`` rounds -- every simulated node
    must know whom it may receive messages from) and builds the helper sets
    used by every subsequent routing instance once.
    """

    def __init__(
        self, network: HybridNetwork, skeleton: Skeleton, phase: str = "clique-simulation"
    ) -> None:
        if skeleton.size < 1:
            raise ValueError("cannot simulate a CLIQUE on an empty skeleton")
        self.network = network
        self.skeleton = skeleton
        self.phase = phase
        self.size = skeleton.size
        self._rounds = 0

        disseminate_tokens(
            network,
            {node: [("skeleton-member", node)] for node in skeleton.nodes},
            phase=phase + ":announce-members",
        )
        self.router = TokenRouter(
            network,
            senders=skeleton.nodes,
            receivers=skeleton.nodes,
            max_tokens_per_sender=skeleton.size,
            max_tokens_per_receiver=skeleton.size,
            phase=phase + ":routing",
        )
        # Every CLIQUE round routes one token per ordered node pair; pairs
        # without an algorithm message carry a padding token.  Pair
        # (sender, target) of skeleton indices is label (s, r, 0) of original
        # IDs at position ``sender * size + target``; the label columns never
        # change, so the router plans them once.
        original_ids = _np.asarray(
            [skeleton.original_id(index) for index in range(self.size)], dtype=_np.int64
        )
        pairs = self.size * self.size
        self._padding_labels = (
            _np.repeat(original_ids, self.size),
            _np.tile(original_ids, self.size),
            _np.zeros(pairs, dtype=_np.int64),
        )

    @property
    def rounds_used(self) -> int:
        """Number of CLIQUE rounds simulated so far."""
        return self._rounds

    def exchange(self, batch: MessageBatch) -> MessageBatch:
        """Simulate one CLIQUE round among the skeleton nodes.

        ``batch`` uses *skeleton indices* (``0..|S|-1``), as does the returned
        batch of delivered messages, grouped per receiver.  Every ordered pair
        of skeleton nodes exchanges exactly one token per round (pairs without
        an algorithm message carry a padding token), matching the proof of
        Corollary 4.1 where each node is sender and receiver of exactly
        ``|S|`` messages and therefore knows the label set it expects.  A
        pair's second and later messages are extra tokens with indices 1, 2,
        ... -- pairs in the order of their first message, each pair's extras
        in queue order (the labelling of Section 2.2); only such a round
        routes a new label set.  The round must pass
        :func:`~repro.clique.model.check_round`: the helper sets are sized
        for ``k_S = k_R = |S|``.
        """
        size = self.size
        check_round(batch, size)
        pairs = size * size
        slots = batch.senders * size + batch.targets
        # The first message of each pair fills the pair's padding label.
        first_slots, first_messages, pair_of = _np.unique(
            slots, return_index=True, return_inverse=True
        )
        present = _np.zeros(pairs, dtype=bool)
        present[first_slots] = True
        message_of = _np.zeros(pairs, dtype=_np.int64)
        message_of[first_slots] = first_messages

        senders, receivers, indices = self._padding_labels
        if first_slots.size < slots.size:
            # A message's index is its rank within its pair (queue order); the
            # extra tokens are listed by their pair's first message, then rank.
            by_pair = _np.argsort(pair_of, kind="stable")
            counts = _np.bincount(pair_of)
            pair_starts = _np.cumsum(counts) - counts
            ranks = _np.empty_like(slots)
            ranks[by_pair] = _np.arange(slots.size) - pair_starts[pair_of[by_pair]]
            extra = _np.flatnonzero(ranks)
            extra = extra[_np.argsort(first_messages[pair_of[extra]], kind="stable")]
            extra_slots = slots[extra]
            senders = _np.concatenate((senders, senders[extra_slots]))
            receivers = _np.concatenate((receivers, receivers[extra_slots]))
            indices = _np.concatenate((indices, ranks[extra]))
            present = _np.concatenate((present, _np.ones(extra.size, dtype=bool)))
            message_of = _np.concatenate((message_of, extra))

        plan = self.router.route(senders, receivers, indices)
        self._rounds += 1
        # The plan's delivery order groups the positions per receiver in the
        # order each receiver collects them; padding positions are skipped.
        delivered, _ = plan.deliveries(present)
        return batch.take(message_of[delivered])


def predicted_simulation_rounds(n: int, skeleton_size: int) -> float:
    """The Corollary 4.1 bound ``|S|^2/n + √|S|`` per CLIQUE round (no polylogs)."""
    return skeleton_size * skeleton_size / max(n, 1) + math.sqrt(max(skeleton_size, 0))
