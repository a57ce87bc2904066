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

Every round routes the same label set -- ``(s, r, 0)`` for each ordered pair
of skeleton nodes, built once as label columns -- and keeps the round's
payloads in a column indexed by pair (``sender * |S| + target``), so the
router reuses one routing plan for every round whose pairs carry at most one
message each; an empty slot is padding and never reaches an inbox.
"""

from __future__ import annotations

import math

import numpy as _np

from repro.core.skeleton import Skeleton
from repro.core.token_routing import TokenRouter
from repro.hybrid.errors import CapacityExceededError
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

    def exchange(
        self, outboxes: dict[int, list[tuple[int, object]]]
    ) -> dict[int, list[tuple[int, object]]]:
        """Simulate one CLIQUE round among the skeleton nodes.

        ``outboxes`` use *skeleton indices* (``0..|S|-1``), as do the returned
        inboxes.  Every ordered pair of skeleton nodes exchanges exactly one
        token per round (pairs without an algorithm message carry a padding
        token), matching the proof of Corollary 4.1 where each node is sender
        and receiver of exactly ``|S|`` messages and therefore knows the label
        set it expects.  A pair's second and later messages are extra tokens
        with indices 1, 2, ...; only such a round routes a new label set.
        A node sending or receiving more than ``|S|`` messages raises
        :class:`~repro.hybrid.errors.CapacityExceededError`, like
        ``CliqueNetwork(strict=True)``: the helper sets are sized for
        ``k_S = k_R = |S|``.
        """
        size = self.size
        pairs = size * size
        payloads: list[object] = [None] * pairs
        occupied = bytearray(pairs)
        received = [0] * size
        repeated = False
        for sender_index, messages in outboxes.items():
            if not 0 <= sender_index < size:
                raise ValueError(f"sender index {sender_index} outside the skeleton")
            if len(messages) > size:
                raise CapacityExceededError(
                    f"skeleton node {sender_index} sent {len(messages)} messages in one "
                    f"CLIQUE round (cap {size})"
                )
            base = sender_index * size
            for target_index, payload in messages:
                if not 0 <= target_index < size:
                    raise ValueError(f"target index {target_index} outside the skeleton")
                received[target_index] += 1
                slot = base + target_index
                if occupied[slot]:
                    repeated = True
                else:
                    occupied[slot] = 1
                    payloads[slot] = payload
        busiest = max(received)
        if busiest > size:
            raise CapacityExceededError(
                f"skeleton node {received.index(busiest)} received {busiest} messages "
                f"in one CLIQUE round (cap {size})"
            )

        senders, receivers, indices = self._padding_labels
        slots = _np.arange(pairs)
        present = _np.frombuffer(occupied, dtype=bool)
        if repeated:
            extra_slots, extra_indices, extra_payloads = _extra_tokens(outboxes, size)
            senders = _np.concatenate((senders, senders[extra_slots]))
            receivers = _np.concatenate((receivers, receivers[extra_slots]))
            indices = _np.concatenate((indices, extra_indices))
            slots = _np.concatenate((slots, extra_slots))
            present = _np.concatenate((present, _np.ones(extra_slots.size, dtype=bool)))
            payloads.extend(extra_payloads)

        plan = self.router.route(senders, receivers, indices)
        self._rounds += 1

        # The plan's delivery order groups the positions per receiver in the
        # order each receiver collects them; padding positions are skipped.
        delivered, bounds = plan.deliveries(present)
        delivered_slots = slots[delivered]
        sender_indices = (delivered_slots // size).tolist()
        receiver_indices = (delivered_slots % size).tolist()
        contents = [payloads[position] for position in delivered.tolist()]
        return {
            receiver_indices[begin]: list(
                zip(sender_indices[begin:end], contents[begin:end], strict=True)
            )
            for begin, end in zip(bounds[:-1], bounds[1:], strict=True)
        }


def _extra_tokens(outboxes: dict[int, list[tuple[int, object]]], size: int):
    """The tokens beyond each pair's first message: slots, indices, payloads.

    Pairs appear in the order of their first message and each pair's extras
    in queue order, with indices 1, 2, ... (the labelling of Section 2.2).
    """
    per_pair: dict[int, list[object]] = {}
    for sender_index, messages in outboxes.items():
        for target_index, payload in messages:
            per_pair.setdefault(sender_index * size + target_index, []).append(payload)
    extra_slots: list[int] = []
    extra_indices: list[int] = []
    extra_payloads: list[object] = []
    for slot, contents in per_pair.items():
        for index in range(1, len(contents)):
            extra_slots.append(slot)
            extra_indices.append(index)
            extra_payloads.append(contents[index])
    return (
        _np.asarray(extra_slots, dtype=_np.int64),
        _np.asarray(extra_indices, dtype=_np.int64),
        extra_payloads,
    )


def predicted_simulation_rounds(n: int, skeleton_size: int) -> float:
    """The Corollary 4.1 bound ``|S|^2/n + √|S|`` per CLIQUE round (no polylogs)."""
    return skeleton_size * skeleton_size / max(n, 1) + math.sqrt(max(skeleton_size, 0))
