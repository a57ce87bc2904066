"""The per-message scalar scheduler: the oracle for the array message plane.

:class:`~repro.hybrid.network.HybridNetwork` schedules and accounts global
traffic with whole-array numpy operations.  :class:`ScalarPlaneNetwork` is the
same network with ``global_round`` and ``run_global_exchange`` replaced by the
textbook loop over single messages: senders take turns in ID order, rotated
by one position per round; a message is admitted while its sender's send
budget and its target's receive budget last; every delivered message is
counted one at a time; and every fault fate comes from
:meth:`~repro.hybrid.faults.FaultState.drops`.  The message-plane and fault
tests run the same traffic through both networks and require identical
rounds, ``RoundMetrics`` and deliveries -- the delivered messages in the
order they were sent (round by round, each round in its rotated scan order),
compared column by column with :func:`columns`.

The module also holds the dict-of-tuples forms of a batch that tests build
traffic from and read deliveries through: outboxes
``{sender: [(target, payload), ...]}`` and inboxes
``{receiver: [(sender, payload), ...]}``.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.hybrid import CapacityExceededError, HybridNetwork, MessageBatch

Outboxes = dict[int, list[tuple[int, object]]]
Inboxes = dict[int, list[tuple[int, object]]]


def from_messages(messages: Sequence[tuple[int, int, object]]) -> MessageBatch:
    """A batch of ``(sender, target, payload)`` triples, in that order."""
    return MessageBatch(
        [sender for sender, _, _ in messages],
        [target for _, target, _ in messages],
        [payload for _, _, payload in messages],
    )


def from_outboxes(outboxes: Mapping[int, Sequence[tuple[int, object]]]) -> MessageBatch:
    """Flatten dict-form outboxes (sender iteration order, then queue order)."""
    return from_messages(
        [
            (sender, target, payload)
            for sender, messages in outboxes.items()
            for target, payload in messages
        ]
    )


def from_inboxes(inboxes: Mapping[int, Sequence[tuple[int, object]]]) -> MessageBatch:
    """Flatten dict-form inboxes; per-target message order is preserved."""
    return from_messages(
        [
            (sender, target, payload)
            for target, messages in inboxes.items()
            for sender, payload in messages
        ]
    )


def to_outboxes(batch: MessageBatch) -> Outboxes:
    """The dict-of-tuples outbox form (per-sender queue order kept)."""
    outboxes: Outboxes = {}
    for sender, target, payload in zip(batch.senders, batch.targets, batch.payloads, strict=True):
        outboxes.setdefault(int(sender), []).append((int(target), payload))
    return outboxes


def to_inboxes(batch: MessageBatch) -> Inboxes:
    """The dict-of-tuples inbox form (per-receiver delivery order kept)."""
    inboxes: Inboxes = {}
    for sender, target, payload in zip(batch.senders, batch.targets, batch.payloads, strict=True):
        inboxes.setdefault(int(target), []).append((int(sender), payload))
    return inboxes


def columns(batch: MessageBatch) -> tuple[list, list, list]:
    """A batch's sender, target and payload columns as lists, in batch order."""
    payloads = batch.payloads
    return (
        batch.senders.tolist(),
        batch.targets.tolist(),
        payloads.tolist() if isinstance(payloads, np.ndarray) else list(payloads),
    )


class ScalarPlaneNetwork(HybridNetwork):
    """A :class:`HybridNetwork` whose global mode runs message by message."""

    def global_round(self, batch: MessageBatch, phase: str = "global") -> MessageBatch:
        if len(batch) == 0:
            return MessageBatch.empty()
        return from_messages(self._scalar_round(to_outboxes(batch), phase))

    def run_global_exchange(
        self, batch: MessageBatch, phase: str = "global"
    ) -> tuple[MessageBatch, int]:
        queues = to_outboxes(batch)
        delivered: list[tuple[int, int, object]] = []
        rounds = 0
        while queues:
            order = sorted(queues)
            offset = rounds % len(order)
            receive_budget: dict[int, int] = {}
            round_out: dict[int, list] = {}
            for sender in order[offset:] + order[:offset]:
                send_budget = self.send_cap
                sent, waiting = [], []
                for target, payload in queues[sender]:
                    target_budget = receive_budget.get(target, self.receive_cap)
                    if send_budget > 0 and target_budget > 0:
                        sent.append((target, payload))
                        send_budget -= 1
                        receive_budget[target] = target_budget - 1
                    else:
                        waiting.append((target, payload))
                if sent:
                    round_out[sender] = sent
                if waiting:
                    queues[sender] = waiting
                else:
                    del queues[sender]
            assert round_out, "scalar scheduler made no progress"
            delivered.extend(self._scalar_round(round_out, phase))
            rounds += 1
        return from_messages(delivered), rounds

    def _scalar_round(self, outboxes: Outboxes, phase: str) -> list[tuple[int, int, object]]:
        """Account one round; the delivered ``(sender, target, payload)`` in send order."""
        bits = self.config.message_bits
        fault_state = self._fault_state
        if fault_state is not None:
            fault_round = fault_state.next_round()
            threshold = fault_state.drop_threshold(fault_round)
            faulty = fault_state.faulty_nodes(fault_round)
            occurrences: dict[tuple[int, int], int] = {}
        delivered: list[tuple[int, int, object]] = []
        received: dict[int, int] = {}
        crossings = {name: 0 for name, _ in self._cut_watchers}
        sent_total = max_sent = dropped = 0
        for sender, messages in outboxes.items():
            if not 0 <= sender < self.n:
                raise ValueError(f"sender {sender} outside the network")
            if len(messages) > self.send_cap and self.config.strict_send:
                raise CapacityExceededError(f"node {sender} exceeded the send cap")
            max_sent = max(max_sent, len(messages))
            sent_total += len(messages)
            for target, payload in messages:
                if not 0 <= target < self.n:
                    raise ValueError(f"target {target} outside the network")
                if fault_state is not None:
                    occurrence = occurrences.get((sender, target), 0)
                    occurrences[(sender, target)] = occurrence + 1
                    fate = (fault_round, sender, target, occurrence, threshold, faulty)
                    if fault_state.drops(*fate):
                        dropped += 1
                        continue
                delivered.append((sender, target, payload))
                received[target] = received.get(target, 0) + 1
                for name, mask in self._cut_watchers:
                    if mask[sender] != mask[target]:
                        crossings[name] += 1
        max_received = max(received.values(), default=0)
        if max_received > self.receive_cap and self.config.strict_receive:
            raise CapacityExceededError(f"a node received {max_received} messages in one round")
        for target, count in received.items():
            self.received_totals[target] += count
        self.metrics.charge_global(1, phase)
        self.metrics.record_global_traffic(
            messages=sent_total,
            bits=sent_total * bits,
            max_sent=max_sent,
            max_received=max_received,
            receive_cap=self.receive_cap,
        )
        if dropped:
            self.metrics.record_fault_losses(dropped=dropped)
        for name, count in crossings.items():
            if count:
                self.metrics.record_cut_bits(name, count * bits)
        return delivered


#: The message planes the identity tests compare, by name.
PLANES = {"scalar": ScalarPlaneNetwork, "vectorized": HybridNetwork}
