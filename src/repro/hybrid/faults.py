"""Fault injection for unreliable HYBRID networks.

The paper's HYBRID model is synchronous: every node survives and every local
edge carries every round.  What can fail is the w.h.p. delivery of capped
global messages, which the paper's analyses cover by success amplification.
:class:`FaultModel` describes a seeded lossy global plane on top of the same
engine:

* **i.i.d. message drop** -- every global message is lost independently with
  probability ``drop_rate``, and
* **burst drop** -- with probability ``burst_rate`` per global round a burst
  starts and elevates the drop probability to ``burst_drop_rate`` for
  ``burst_length`` consecutive rounds (a crude Gilbert-Elliott channel).

The LOCAL mode is never faulty.

Faults are *deterministic given the model's seed*: each message's fate is a
pure function of ``(seed, global round index, sender, target, occurrence)``
where the occurrence index counts the round's earlier messages between the
same (sender, target) pair.  The engine evaluates that splitmix64 function
column-wise on ``uint64`` arrays (:meth:`FaultState.keep_mask`); the
per-message Python-integer evaluation (:meth:`FaultState.drops`) is the
reference the tests check it against, message for message
(tests/test_faults.py).

Dropped messages still consume the sender's bandwidth (they were sent; the
send cap and the per-round message/bit totals count them) but are never
delivered: they are excluded from inboxes, receive maxima, cumulative
receive totals and cut crossings, and are tallied in
:attr:`~repro.hybrid.metrics.RoundMetrics.global_dropped`.  Recovery is the
*protocols'* job: see :meth:`HybridNetwork.run_reliable_exchange` and
DESIGN.md §8.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as _np

_MASK64 = (1 << 64) - 1
#: splitmix64 constants (Steele et al.); the golden-ratio increment separates
#: the hash lanes, the two multipliers are the finalizer's avalanche steps.
_PHI = 0x9E3779B97F4A7C15
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB

#: Domain-separation tags so per-message and per-round decisions never share
#: a hash stream.
MESSAGE_LANE = 1
BURST_LANE = 2


def _mix64(value: int) -> int:
    """The splitmix64 finalizer on one Python integer (mod 2^64)."""
    value &= _MASK64
    value = ((value ^ (value >> 30)) * _MULT1) & _MASK64
    value = ((value ^ (value >> 27)) * _MULT2) & _MASK64
    return value ^ (value >> 31)


def fault_hash(seed: int, *lanes: int) -> int:
    """A 64-bit hash of ``(seed, lanes...)``; uniform over ``[0, 2^64)``.

    The scalar reference evaluation.  :func:`fault_hash_array` computes the
    same function column-wise; tests pin that the two agree bit for bit.
    """
    state = _mix64((seed & _MASK64) ^ _PHI)
    for lane in lanes:
        state = _mix64(state ^ ((lane * _PHI) & _MASK64))
    return state


def fault_hash_from_prefix(prefix: int, *lanes: int) -> int:
    """Fold further lanes into an already-computed :func:`fault_hash` prefix.

    ``fault_hash_from_prefix(fault_hash(s, a, b), c) == fault_hash(s, a, b, c)``
    by construction -- the hash is a left fold, so the shared lanes (seed,
    domain tag, round index) can be mixed once per round and only the
    per-message lanes folded per message.
    """
    state = prefix & _MASK64
    for lane in lanes:
        state = _mix64(state ^ ((lane * _PHI) & _MASK64))
    return state


def _mix64_array(values):
    """The splitmix64 finalizer on a ``uint64`` array (wrapping arithmetic)."""
    values = values ^ (values >> _np.uint64(30))
    values = values * _np.uint64(_MULT1)
    values = values ^ (values >> _np.uint64(27))
    values = values * _np.uint64(_MULT2)
    return values ^ (values >> _np.uint64(31))


def fault_hash_array(prefix: int, *columns):
    """Fold integer columns into a prefix hash, column-wise.

    ``prefix`` is the scalar :func:`fault_hash` of the shared lanes (seed,
    domain tag, round index); each column is folded with exactly the
    arithmetic of the scalar loop, so
    ``fault_hash_array(fault_hash(s, a), xs)[i] == fault_hash(s, a, xs[i])``.
    """
    state = _np.full(columns[0].shape, prefix, dtype=_np.uint64)
    for column in columns:
        state = _mix64_array(state ^ (column.astype(_np.uint64) * _np.uint64(_PHI)))
    return state


def _drop_threshold(rate: float) -> int:
    """The integer threshold a 64-bit hash is compared against for ``rate``."""
    if rate <= 0.0:
        return 0
    if rate >= 1.0:
        return 1 << 64
    return int(rate * float(1 << 64))


@dataclass(frozen=True)
class FaultModel:
    """A seeded description of how an unreliable HYBRID network misbehaves.

    Attach it to :attr:`~repro.hybrid.config.ModelConfig.faults` (or pass it
    as :class:`~repro.session.HybridSession`'s ``fault_model=``).  The
    default-constructed model injects nothing: a network configured with
    ``FaultModel()`` is bit-identical to one configured with ``faults=None``
    (the network checks :attr:`enabled` once and takes the lossless path).
    Semantics, retransmission layer and the fault-free-identity contract:
    DESIGN.md §8.

    Attributes
    ----------
    drop_rate:
        Per-message i.i.d. loss probability on the global plane.
    burst_rate / burst_length / burst_drop_rate:
        Per-round probability that a loss burst starts, how many global
        rounds a burst lasts, and the drop probability while one is active
        (it replaces ``drop_rate`` for those rounds).
    max_attempts:
        Retransmission budget of one :meth:`HybridNetwork.run_reliable_exchange`
        call (send + ACK counts as one attempt).  Retrying ``Θ(log n)`` times
        amplifies a constant per-attempt success probability to w.h.p.,
        matching the paper's analysis style; when the budget is exhausted
        with messages still undelivered the engine raises
        :class:`~repro.hybrid.errors.FaultToleranceExceededError` instead of
        silently returning a partial result.  The default is the constant 8,
        and attempts run back to back, so one burst can cover several of
        them (DESIGN.md §8).
    seed:
        Root seed of every fault decision (independent of the protocol RNG).
    """

    drop_rate: float = 0.0
    burst_rate: float = 0.0
    burst_length: int = 0
    burst_drop_rate: float = 1.0
    max_attempts: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("drop_rate", "burst_rate", "burst_drop_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate!r}")
        if self.burst_length < 0:
            raise ValueError("burst_length must be non-negative")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")

    @property
    def enabled(self) -> bool:
        """Whether the model can ever drop a global message."""
        return self.drop_rate > 0.0 or (
            self.burst_rate > 0.0 and self.burst_length > 0 and self.burst_drop_rate > 0.0
        )


class FaultState:
    """Per-network runtime of one :class:`FaultModel`: the global-round clock
    plus the per-message drop decisions.

    The clock counts *every* executed global round of the network, so a
    message's fate is stable across metric scopes and resets are explicit
    (:meth:`HybridNetwork.reset_metrics` re-creates the state, replaying the
    same fault schedule for e.g. benchmark repetitions).
    """

    def __init__(self, model: FaultModel) -> None:
        self.model = model
        self.round_index = 0
        self._iid_threshold = _drop_threshold(model.drop_rate)
        self._burst_threshold = _drop_threshold(model.burst_drop_rate)
        self._burst_start_threshold = _drop_threshold(model.burst_rate)
        # Memoized per-round context (see round_context): one entry suffices
        # because a round's decisions are all made before the clock advances.
        self._context_round = -1
        self._context: tuple[int, int] = (0, 0)

    def advance(self, rounds: int) -> int:
        """Advance the clock by ``rounds`` global rounds; returns the first of them."""
        index = self.round_index
        self.round_index += rounds
        return index

    # ----------------------------------------------------------- round status
    def in_burst(self, round_index: int) -> bool:
        """Whether a loss burst covers this global round."""
        model = self.model
        if self._burst_start_threshold <= 0 or model.burst_length <= 0:
            return False
        earliest = max(0, round_index - model.burst_length + 1)
        return any(
            fault_hash(model.seed, BURST_LANE, start) < self._burst_start_threshold
            for start in range(earliest, round_index + 1)
        )

    def drop_threshold(self, round_index: int) -> int:
        """The message-hash drop threshold in effect this round."""
        if self.in_burst(round_index):
            return self._burst_threshold
        return self._iid_threshold

    def round_context(self, round_index: int) -> tuple[int, int]:
        """``(drop threshold, message-hash prefix)`` for a round.

        Both are pure functions of the round index, so they are computed
        once per global round and memoized rather than re-derived per message
        (the burst check alone re-hashes ``burst_length`` lanes): the
        reference :meth:`drops` folds the per-message lanes onto the returned
        prefix via :func:`fault_hash_from_prefix`.  The engine's
        :meth:`keep_mask` computes the same two column-wise for every round
        of an exchange at once.
        """
        if round_index != self._context_round:
            self._context = (
                self.drop_threshold(round_index),
                fault_hash(self.model.seed, MESSAGE_LANE, round_index),
            )
            self._context_round = round_index
        return self._context

    # ------------------------------------------------------- per-message fate
    def drops(
        self,
        round_index: int,
        sender: int,
        target: int,
        occurrence: int,
        threshold: int,
    ) -> bool:
        """The drop decision for one message (the reference for :meth:`keep_mask`)."""
        if threshold <= 0:
            return False
        # Fold only the per-message lanes onto the round's memoized prefix;
        # identical to hashing the full (seed, lane, round, ...) chain.
        prefix = self.round_context(round_index)[1]
        coin = fault_hash_from_prefix(prefix, sender, target, occurrence)
        return coin < threshold

    def keep_mask(self, senders, targets, rounds, n: int):
        """The engine's keep mask for the messages of one or more rounds (None = keep all).

        ``senders`` / ``targets`` are the messages in delivery order and
        ``rounds`` is each message's global round index (one int for a
        single round).  Every message gets its own round's drop threshold
        and hash prefix, both computed column-wise, the burst windows from
        the burst-start hashes of the rounds involved.  The occurrence index
        (rank among the same round's earlier messages of the same (sender,
        target) pair) is recovered with one stable sort, so the mask equals
        the per-message decisions of :meth:`drops` exactly.
        """
        count = int(senders.size)
        if count == 0:
            return None
        rounds = _np.broadcast_to(_np.asarray(rounds, dtype=_np.int64), senders.shape)
        first = int(rounds.min())
        span = int(rounds.max()) - first + 1
        in_burst = self._bursts(first, span)[rounds - first]
        # The messages of burst and of ordinary rounds, each with its threshold.
        rates = ((~in_burst, self._iid_threshold), (in_burst, self._burst_threshold))
        classes = [(mask, threshold) for mask, threshold in rates if threshold > 0 and mask.any()]
        drop = _np.zeros(count, dtype=bool)
        if any(threshold < (1 << 64) for _, threshold in classes):
            hashes = fault_hash_array(
                fault_hash(self.model.seed, MESSAGE_LANE),
                rounds,
                senders,
                targets,
                self._occurrences(senders, targets, rounds - first, n),
            )
        for mask, threshold in classes:
            if threshold >= (1 << 64):
                drop |= mask
            else:
                drop |= mask & (hashes < _np.uint64(threshold))
        if not drop.any():
            return None
        return ~drop

    def _bursts(self, first: int, span: int):
        """Whether a loss burst covers each of the rounds ``first .. first + span - 1``."""
        model = self.model
        if self._burst_start_threshold <= 0 or model.burst_length <= 0:
            return _np.zeros(span, dtype=bool)
        # A burst covers round r iff one starts in [r - burst_length + 1, r].
        lowest = max(0, first - model.burst_length + 1)
        starts = _np.arange(lowest, first + span, dtype=_np.int64)
        if self._burst_start_threshold >= (1 << 64):
            started = _np.ones(starts.size, dtype=bool)
        else:
            hashes = fault_hash_array(fault_hash(model.seed, BURST_LANE), starts)
            started = hashes < _np.uint64(self._burst_start_threshold)
        running = _np.concatenate(([0], _np.cumsum(started)))
        covered = _np.arange(first, first + span)
        window_start = _np.maximum(covered - model.burst_length + 1, lowest)
        return running[covered - lowest + 1] > running[window_start - lowest]

    @staticmethod
    def _occurrences(senders, targets, rounds, n: int):
        """Each message's rank among its round's earlier messages of the same pair."""
        keys = (rounds * n + senders) * n + targets
        order = _np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        change = _np.empty(keys.size, dtype=bool)
        change[0] = True
        _np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=change[1:])
        positions = _np.arange(keys.size)
        starts = _np.maximum.accumulate(_np.where(change, positions, 0))
        occurrences = _np.empty(keys.size, dtype=_np.int64)
        occurrences[order] = positions - starts
        return occurrences
