"""The CLIQUE round format: one batch of messages as parallel columns.

A simulated CLIQUE round (DESIGN.md §4) is one :class:`MessageBatch` of three
parallel columns

* ``senders`` -- int64 array, ``senders[i]`` sent message ``i``,
* ``targets`` -- int64 array, ``targets[i]`` receives message ``i``, and
* ``payloads`` -- a numpy array, ``payloads[i]`` is message ``i``'s content
  (Bellman–Ford distances, gathered edge positions),

so a CLIQUE algorithm builds and reads its rounds with whole-array
operations.  Message ``i`` of a batch is *earlier* than message ``j > i``:
within one sender the array order is the sender's queue order.  The same
class is the delivered inbox.  The NCC message plane itself carries no
payloads: :class:`~repro.hybrid.network.HybridNetwork` takes sender and
target columns and returns delivered positions.
"""

from __future__ import annotations

import numpy as _np


class MessageBatch:
    """One CLIQUE round as parallel sender/target/payload columns."""

    __slots__ = ("senders", "targets", "payloads")

    def __init__(self, senders, targets, payloads) -> None:
        self.senders = _np.asarray(senders, dtype=_np.int64)
        self.targets = _np.asarray(targets, dtype=_np.int64)
        self.payloads = _np.asarray(payloads)
        if not (len(self.senders) == len(self.targets) == len(self.payloads)):
            raise ValueError(
                f"column lengths differ: {len(self.senders)} senders, "
                f"{len(self.targets)} targets, {len(self.payloads)} payloads"
            )

    @classmethod
    def empty(cls) -> "MessageBatch":
        """A batch with no messages."""
        return cls([], [], [])

    def take(self, indices) -> "MessageBatch":
        """The messages at ``indices`` (an integer array or boolean mask), in that order."""
        return MessageBatch(
            self.senders[indices], self.targets[indices], self.payloads[indices]
        )

    def __len__(self) -> int:
        return len(self.senders)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MessageBatch(messages={len(self)})"
