"""Standalone CLIQUE (congested clique) model simulator.

The CLIQUE model (footnote 4 of the paper): in every synchronous round every
node may send one ``O(log n)``-bit message to every other node; with Lenzen's
routing scheme this is equivalent to every node sending and receiving up to
``n`` messages with arbitrary targets per round.

:class:`CliqueNetwork` simulates this directly on
:class:`~repro.hybrid.batch.MessageBatch` rounds, the format every CLIQUE
transport speaks.  It exists so the plug-in algorithms of
:mod:`repro.clique` can be unit-tested in their native model (with their
declared round complexity checked) before they are simulated inside a
HYBRID network via Corollary 4.1.  :func:`check_round` is the round contract
both transports enforce.
"""

from __future__ import annotations

import numpy as _np

from repro.hybrid.batch import MessageBatch
from repro.hybrid.errors import CapacityExceededError


def check_round(batch: MessageBatch, size: int) -> None:
    """Raise unless ``batch`` is a legal CLIQUE round on ``size`` nodes.

    An index outside ``0..size-1`` raises :class:`ValueError`; a node sending
    or receiving more than ``size`` messages (Lenzen routing) raises
    :class:`~repro.hybrid.errors.CapacityExceededError`.
    """
    for role, column in (("sender", batch.senders), ("target", batch.targets)):
        outside = column[(column < 0) | (column >= size)]
        if outside.size:
            raise ValueError(f"{role} index {int(outside[0])} outside the {size} CLIQUE nodes")
    for verb, column in (("sent", batch.senders), ("received", batch.targets)):
        counts = _np.bincount(column, minlength=size)
        busiest = int(counts.argmax())
        if counts[busiest] > size:
            raise CapacityExceededError(
                f"CLIQUE node {busiest} {verb} {int(counts[busiest])} messages in one "
                f"CLIQUE round (cap {size})"
            )


class CliqueNetwork:
    """A congested clique on ``size`` nodes with per-round accounting."""

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError("a clique needs at least one node")
        self.size = size
        self._rounds = 0
        self._messages = 0

    @property
    def rounds_used(self) -> int:
        """CLIQUE rounds executed so far."""
        return self._rounds

    @property
    def messages_sent(self) -> int:
        """Total messages moved so far."""
        return self._messages

    def exchange(self, batch: MessageBatch) -> MessageBatch:
        """Execute one CLIQUE round (see :func:`check_round` for its limits).

        Every message is delivered; the result groups them per receiver in
        ascending receiver order, each receiver's in batch order.
        """
        check_round(batch, self.size)
        self._messages += len(batch)
        self._rounds += 1
        return batch.take(_np.argsort(batch.targets, kind="stable"))
