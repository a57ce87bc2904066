"""Batched representation of global-mode (NCC) message traffic.

:class:`MessageBatch` is the one form global messages travel in
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
is the sender's queue order.  The same class serves as the batched inbox
(messages in delivery order).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as _np


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

    def __len__(self) -> int:
        return len(self.payloads)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MessageBatch(messages={len(self)})"
