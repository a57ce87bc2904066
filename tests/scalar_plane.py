"""The per-message scalar scheduler: the oracle for the array message plane.

:class:`~repro.hybrid.network.HybridNetwork` schedules and accounts global
traffic with whole-array numpy operations.  :class:`ScalarPlaneNetwork` is the
same network with ``global_round``, ``run_global_exchange`` and ``account``
replaced by the textbook loop over single messages: a round scans its
messages one at a time in send order; an exchange queues each sender's
message positions, lets the senders take turns in ID order, rotated by one
position per round, and admits a message while its sender's send budget and
its target's receive budget last; a given schedule (``account``, which the
one-exchange aggregation primitives call directly) is sent one round at a
time; every delivered message is counted one at a time; and every fault fate
comes from :meth:`~repro.hybrid.faults.FaultState.drops`.  Both take the same
sender/target columns as the engine and return the delivered positions in
the order they were sent (round by round, each round in its rotated scan
order).  The message-plane and fault tests run the same traffic through both
networks and require identical rounds, ``RoundMetrics`` and positions.

The module also holds the dict-of-tuples forms tests build traffic from and
read deliveries through: outboxes ``{sender: [(target, payload), ...]}`` and
inboxes ``{receiver: [(sender, payload), ...]}``, converted to and from a
:class:`~repro.hybrid.batch.MessageBatch` whose payload column holds the
Python objects unchanged.  A global call takes the batch's ``senders`` and
``targets``; ``batch.take(positions)`` reads the delivered messages
(:func:`deliver_round` and :func:`deliver_exchange` do both).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.hybrid import CapacityExceededError, HybridNetwork, MessageBatch
from repro.hybrid.config import MESSAGE_BITS

Outboxes = dict[int, list[tuple[int, object]]]
Inboxes = dict[int, list[tuple[int, object]]]


def from_messages(messages: Sequence[tuple[int, int, object]]) -> MessageBatch:
    """A batch of ``(sender, target, payload)`` triples, in that order."""
    payloads = np.empty(len(messages), dtype=object)
    for index, (_, _, payload) in enumerate(messages):
        payloads[index] = payload
    return MessageBatch(
        [sender for sender, _, _ in messages], [target for _, target, _ in messages], payloads
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
    for sender, target, payload in zip(*columns(batch), strict=True):
        outboxes.setdefault(sender, []).append((target, payload))
    return outboxes


def to_inboxes(batch: MessageBatch) -> Inboxes:
    """The dict-of-tuples inbox form (per-receiver delivery order kept)."""
    inboxes: Inboxes = {}
    for sender, target, payload in zip(*columns(batch), strict=True):
        inboxes.setdefault(target, []).append((sender, payload))
    return inboxes


def columns(batch: MessageBatch) -> tuple[list, list, list]:
    """A batch's sender, target and payload columns as lists, in batch order."""
    return batch.senders.tolist(), batch.targets.tolist(), batch.payloads.tolist()


def deliver_round(network: HybridNetwork, outboxes: Outboxes, phase: str = "global") -> Inboxes:
    """One ``global_round`` of dict-form outboxes; the delivered messages as inboxes."""
    batch = from_outboxes(outboxes)
    return to_inboxes(batch.take(network.global_round(batch.senders, batch.targets, phase)))


def deliver_exchange(
    network: HybridNetwork, outboxes: Outboxes, phase: str = "global"
) -> tuple[Inboxes, int]:
    """``run_global_exchange`` of dict-form outboxes; inboxes (delivery order) and rounds."""
    batch = from_outboxes(outboxes)
    delivered, rounds = network.run_global_exchange(batch.senders, batch.targets, phase)
    return to_inboxes(batch.take(delivered)), rounds


class ScalarPlaneNetwork(HybridNetwork):
    """A :class:`HybridNetwork` whose global mode runs message by message."""

    def global_round(self, senders, targets, phase: str = "global") -> np.ndarray:
        if not len(senders):
            return np.arange(0)
        return self._scalar_round(senders, targets, range(len(senders)), phase)

    def run_global_exchange(
        self, senders, targets, phase: str = "global", schedule=None
    ) -> tuple[np.ndarray, int]:
        # A schedule the caller holds (a routing plan's) is ignored: the
        # oracle scans every round itself.
        queues: dict[int, list[int]] = {}
        for position, sender in enumerate(senders.tolist()):
            queues.setdefault(sender, []).append(position)
        delivered: list[np.ndarray] = [np.arange(0)]
        rounds = 0
        while queues:
            order = sorted(queues)
            offset = rounds % len(order)
            receive_budget: dict[int, int] = {}
            scanned: list[int] = []
            for sender in order[offset:] + order[:offset]:
                send_budget = self.send_cap
                waiting = []
                for position in queues[sender]:
                    target = int(targets[position])
                    target_budget = receive_budget.get(target, self.receive_cap)
                    if send_budget > 0 and target_budget > 0:
                        scanned.append(position)
                        send_budget -= 1
                        receive_budget[target] = target_budget - 1
                    else:
                        waiting.append(position)
                if waiting:
                    queues[sender] = waiting
                else:
                    del queues[sender]
            assert scanned, "scalar scheduler made no progress"
            delivered.append(self._scalar_round(senders, targets, scanned, phase))
            rounds += 1
        return np.concatenate(delivered), rounds

    def account(self, schedule, senders, targets, phase: str = "global") -> np.ndarray:
        # The caller's schedule fixes each round's messages; every round is
        # scanned and accounted by itself, in the schedule's order.
        delivered: list[np.ndarray] = [np.arange(0)]
        for start, end in zip(schedule.bounds[:-1], schedule.bounds[1:], strict=True):
            positions = schedule.order[start:end].tolist()
            delivered.append(self._scalar_round(senders, targets, positions, phase))
        return np.concatenate(delivered)

    def _scalar_round(self, senders, targets, positions, phase: str) -> np.ndarray:
        """Account one round of the messages at ``positions``, scanned in that
        order; the delivered positions in scan order."""
        fault_state = self._fault_state
        if fault_state is not None:
            fault_round = fault_state.advance(1)
            threshold = fault_state.drop_threshold(fault_round)
            occurrences: dict[tuple[int, int], int] = {}
        sent: dict[int, int] = {}
        for position in positions:
            sender, target = int(senders[position]), int(targets[position])
            if not 0 <= sender < self.n:
                raise ValueError(f"sender {sender} outside the network")
            if not 0 <= target < self.n:
                raise ValueError(f"target {target} outside the network")
            sent[sender] = sent.get(sender, 0) + 1
        max_sent = max(sent.values())
        if max_sent > self.send_cap:
            busiest = min(node for node, count in sent.items() if count == max_sent)
            raise CapacityExceededError(
                f"node {busiest} tried to send {max_sent} global messages in one round "
                f"(cap {self.send_cap})"
            )
        delivered: list[int] = []
        received: dict[int, int] = {}
        crossings = {name: 0 for name, _ in self._cut_watchers}
        dropped = 0
        for position in positions:
            sender, target = int(senders[position]), int(targets[position])
            if fault_state is not None:
                occurrence = occurrences.get((sender, target), 0)
                occurrences[(sender, target)] = occurrence + 1
                if fault_state.drops(fault_round, sender, target, occurrence, threshold):
                    dropped += 1
                    continue
            delivered.append(position)
            received[target] = received.get(target, 0) + 1
            for name, mask in self._cut_watchers:
                if mask[sender] != mask[target]:
                    crossings[name] += 1
        max_received = max(received.values(), default=0)
        for target, count in received.items():
            self.received_totals[target] += count
        self.metrics.charge_global(1, phase)
        self.metrics.record_global_traffic(
            messages=len(positions),
            bits=len(positions) * MESSAGE_BITS,
            max_sent=max_sent,
            max_received=max_received,
            receive_cap=self.receive_cap,
        )
        if dropped:
            self.metrics.record_fault_losses(dropped=dropped)
        for name, count in crossings.items():
            if count:
                self.metrics.record_cut_bits(name, count * MESSAGE_BITS)
        return np.asarray(delivered, dtype=np.int64)


#: The message planes the identity tests compare, by name.
PLANES = {"scalar": ScalarPlaneNetwork, "vectorized": HybridNetwork}
