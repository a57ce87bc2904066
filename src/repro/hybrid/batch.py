"""Batched representation of global-mode (NCC) message traffic.

The engine's scalar interface moves global messages as
``dict[sender, list[(target, payload)]]`` outboxes and the mirror-image
``dict[receiver, list[(sender, payload)]]`` inboxes.  That shape forces a
Python-level loop per message on both the protocol side (building the dicts
one tuple at a time) and the engine side (draining them one tuple at a time).

:class:`MessageBatch` is the array-backed form the engine runs on
(DESIGN.md §4): one batch of messages is three parallel columns

* ``senders`` -- integer array, ``senders[i]`` sent message ``i``,
* ``targets`` -- integer array, ``targets[i]`` receives message ``i``, and
* ``payloads`` -- the message payloads, either a Python list or a numpy
  array (token routing and token dissemination ship int64 token positions,
  see DESIGN.md §4),

so the engine can do all round accounting (per-sender counts, per-receiver
``np.bincount``, cut crossings, budget scheduling) with whole-array
operations and only ever touches payloads to slice them (:meth:`take`: a
fancy index on an array column, a list comprehension on a list).  Message ``i`` of a
batch is *earlier* than message ``j > i``: within one sender the array order
is the sender's queue order, exactly like the list order of a dict-form
outbox.

The same class serves as the batched inbox (messages in delivery order), and
:meth:`to_inboxes` / :meth:`to_outboxes` convert to the scalar dict forms for
interoperability.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as _np

Outboxes = dict[int, list[tuple[int, object]]]
Inboxes = dict[int, list[tuple[int, object]]]

def _as_index_column(values) -> _np.ndarray:
    """Coerce a sender/target column to an int64 array."""
    return _np.asarray(values, dtype=_np.int64)


class MessageBatch:
    """One batch of global messages as parallel sender/target/payload columns."""

    __slots__ = ("senders", "targets", "payloads")

    def __init__(self, senders, targets, payloads: Sequence[object]) -> None:
        self.senders = _as_index_column(senders)
        self.targets = _as_index_column(targets)
        self.payloads = (
            payloads if isinstance(payloads, (list, _np.ndarray)) else list(payloads)
        )
        if not (len(self.senders) == len(self.targets) == len(self.payloads)):
            raise ValueError(
                f"column lengths differ: {len(self.senders)} senders, "
                f"{len(self.targets)} targets, {len(self.payloads)} payloads"
            )

    # ------------------------------------------------------------ constructors
    @classmethod
    def empty(cls) -> "MessageBatch":
        """A batch with no messages."""
        return cls([], [], [])

    @classmethod
    def from_outboxes(cls, outboxes: Mapping[int, Sequence[tuple[int, object]]]) -> "MessageBatch":
        """Flatten dict-form outboxes (sender iteration order, then queue order)."""
        senders: list[int] = []
        targets: list[int] = []
        payloads: list[object] = []
        for sender, messages in outboxes.items():
            for target, payload in messages:
                senders.append(sender)
                targets.append(target)
                payloads.append(payload)
        return cls(senders, targets, payloads)

    @classmethod
    def from_inboxes(cls, inboxes: Mapping[int, Sequence[tuple[int, object]]]) -> "MessageBatch":
        """Flatten dict-form inboxes; per-target message order is preserved."""
        senders: list[int] = []
        targets: list[int] = []
        payloads: list[object] = []
        for target, messages in inboxes.items():
            for sender, payload in messages:
                senders.append(sender)
                targets.append(target)
                payloads.append(payload)
        return cls(senders, targets, payloads)

    @classmethod
    def concat(cls, batches: Sequence["MessageBatch"]) -> "MessageBatch":
        """Concatenate batches in order (earlier batches are earlier messages)."""
        batches = [batch for batch in batches if len(batch)]
        if not batches:
            return cls.empty()
        if len(batches) == 1:
            return batches[0]
        senders = _np.concatenate([batch.senders for batch in batches])
        targets = _np.concatenate([batch.targets for batch in batches])
        columns = [batch.payloads for batch in batches]
        if all(isinstance(column, _np.ndarray) for column in columns):
            return cls(senders, targets, _np.concatenate(columns))
        return cls(senders, targets, [payload for column in columns for payload in column])

    def take(self, indices) -> "MessageBatch":
        """The messages at ``indices`` (an integer array or boolean mask), in that order."""
        indices = _np.asarray(indices)
        if indices.dtype == bool:
            indices = _np.flatnonzero(indices)
        payloads = self.payloads
        if isinstance(payloads, _np.ndarray):
            payloads = payloads[indices]
        else:
            payloads = [payloads[i] for i in indices.tolist()]
        return MessageBatch(self.senders[indices], self.targets[indices], payloads)

    # ------------------------------------------------------------- conversions
    def __len__(self) -> int:
        return len(self.payloads)

    def to_outboxes(self) -> Outboxes:
        """The scalar dict-of-tuples outbox form (per-sender queue order kept)."""
        outboxes: Outboxes = {}
        for sender, target, payload in zip(self.senders, self.targets, self.payloads, strict=True):
            outboxes.setdefault(int(sender), []).append((int(target), payload))
        return outboxes

    def to_inboxes(self) -> Inboxes:
        """The scalar dict-of-tuples inbox form (per-receiver delivery order kept)."""
        inboxes: Inboxes = {}
        for sender, target, payload in zip(self.senders, self.targets, self.payloads, strict=True):
            inboxes.setdefault(int(target), []).append((int(sender), payload))
        return inboxes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MessageBatch(messages={len(self)})"
