"""Fault injection for unreliable HYBRID networks.

The paper's algorithms carry w.h.p. guarantees, but the engine historically
only simulated the *ideal* model: every global message admitted by the
capacity caps is delivered and every node survives.  :class:`FaultModel`
describes an adversarial-but-seeded environment on top of the same engine:

* **i.i.d. message drop** -- every global message is lost independently with
  probability ``drop_rate``,
* **burst drop** -- with probability ``burst_rate`` per global round a burst
  starts and elevates the drop probability to ``burst_drop_rate`` for
  ``burst_length`` consecutive rounds (a crude Gilbert-Elliott channel),
* **node crash / omission sets** -- a crashed node neither sends nor receives
  global messages from its crash round on; an omission set silences a node
  for exactly one round, and
* **local-edge outages** -- listed local edges are down for the whole run
  (the LOCAL mode computes on the graph minus those edges).

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

from collections.abc import Iterable, Mapping
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


def _normalize_pairs(value) -> tuple[tuple[int, int], ...]:
    """Coerce a mapping or iterable of pairs to a sorted tuple of int pairs."""
    if isinstance(value, Mapping):
        items = value.items()
    else:
        items = value
    return tuple(sorted((int(a), int(b)) for a, b in items))


@dataclass(frozen=True)
class FaultModel:
    """A seeded description of how an unreliable HYBRID network misbehaves.

    Attach it to :attr:`~repro.hybrid.config.ModelConfig.faults` (or pass it
    as :class:`~repro.session.HybridSession`'s ``fault_model=``).  The
    default-constructed model injects nothing: a network configured with
    ``FaultModel()`` is bit-identical to one configured with ``faults=None``
    (the engine checks :attr:`enabled` once and takes the ideal path).
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
    crash_schedule:
        ``node -> global round index`` (mapping or iterable of pairs): from
        that round on the node's sends and receives are all lost.
    omission_schedule:
        ``global round index -> nodes`` silenced for exactly that round
        (mapping or iterable of ``(round, nodes)`` pairs).
    edge_outages:
        Local edges (as ``(u, v)`` pairs, order-insensitive) that are down
        for the whole run; the LOCAL mode -- balls, hop-limited exploration,
        the diameter cap -- computes on the graph minus these edges.
    max_attempts:
        Retransmission budget of one :meth:`HybridNetwork.run_reliable_exchange`
        call (send + ACK counts as one attempt).  Retrying ``Θ(log n)`` times
        amplifies a constant per-attempt success probability to w.h.p.,
        matching the paper's analysis style; when the budget is exhausted
        with messages still undelivered the engine raises
        :class:`~repro.hybrid.errors.FaultToleranceExceededError` instead of
        silently returning a partial result.
    seed:
        Root seed of every fault decision (independent of the protocol RNG).
    """

    drop_rate: float = 0.0
    burst_rate: float = 0.0
    burst_length: int = 0
    burst_drop_rate: float = 1.0
    crash_schedule: Mapping[int, int] | Iterable[tuple[int, int]] = ()
    omission_schedule: Mapping[int, Iterable[int]] | Iterable[tuple[int, Iterable[int]]] = ()
    edge_outages: Iterable[tuple[int, int]] = ()
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
        # Duplicate keys in the pair forms merge rather than overwrite: a node
        # crashes at its *earliest* scheduled round, and a round's omission
        # set is the union of every pair naming it.
        crashes: dict[int, int] = {}
        for node, crash_round in _normalize_pairs(self.crash_schedule):
            if node not in crashes or crash_round < crashes[node]:
                crashes[node] = crash_round
        object.__setattr__(self, "crash_schedule", tuple(sorted(crashes.items())))
        omissions = self.omission_schedule
        if isinstance(omissions, Mapping):
            omission_items = omissions.items()
        else:
            omission_items = omissions
        merged: dict[int, set] = {}
        for round_index, nodes in omission_items:
            merged.setdefault(int(round_index), set()).update(int(node) for node in nodes)
        object.__setattr__(
            self,
            "omission_schedule",
            tuple(
                (round_index, tuple(sorted(nodes)))
                for round_index, nodes in sorted(merged.items())
            ),
        )
        object.__setattr__(
            self,
            "edge_outages",
            tuple(
                sorted(
                    (min(int(u), int(v)), max(int(u), int(v))) for u, v in self.edge_outages
                )
            ),
        )

    @property
    def affects_global(self) -> bool:
        """Whether any global-plane fault can ever fire."""
        return bool(
            self.drop_rate > 0.0
            or (self.burst_rate > 0.0 and self.burst_length > 0 and self.burst_drop_rate > 0.0)
            or self.crash_schedule
            or any(nodes for _, nodes in self.omission_schedule)
        )

    @property
    def enabled(self) -> bool:
        """Whether the model injects any fault at all (global or local)."""
        return self.affects_global or bool(self.edge_outages)


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
        self._crash_rounds: dict[int, int] = dict(model.crash_schedule)
        self._omissions: dict[int, frozenset[int]] = {
            round_index: frozenset(nodes) for round_index, nodes in model.omission_schedule
        }
        self._iid_threshold = _drop_threshold(model.drop_rate)
        self._burst_threshold = _drop_threshold(model.burst_drop_rate)
        self._burst_start_threshold = _drop_threshold(model.burst_rate)
        # Memoized per-round context (see round_context): one entry suffices
        # because a round's decisions are all made before the clock advances.
        self._context_round = -1
        self._context: tuple[int, frozenset[int], int] = (0, frozenset(), 0)

    def next_round(self) -> int:
        """Advance the global-round clock; returns the round just started."""
        index = self.round_index
        self.round_index += 1
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

    def faulty_nodes(self, round_index: int) -> frozenset[int]:
        """Nodes that neither send nor receive in this global round."""
        crashed = {
            node for node, crash_round in self._crash_rounds.items() if round_index >= crash_round
        }
        omitted = self._omissions.get(round_index)
        if omitted:
            crashed |= omitted
        return frozenset(crashed)

    def round_context(self, round_index: int) -> tuple[int, frozenset[int], int]:
        """``(drop threshold, faulty node set, message-hash prefix)`` for a round.

        All three are pure functions of the round index, so they are computed
        once per global round and memoized rather than re-derived per message
        (the burst check alone re-hashes ``burst_length`` lanes): the engine
        folds per-message lanes onto the returned prefix via
        :func:`fault_hash_array`, the reference :meth:`drops` via
        :func:`fault_hash_from_prefix`.
        """
        if round_index != self._context_round:
            self._context = (
                self.drop_threshold(round_index),
                self.faulty_nodes(round_index),
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
        faulty: frozenset[int],
    ) -> bool:
        """The drop decision for one message (the reference for :meth:`keep_mask`)."""
        if faulty and (sender in faulty or target in faulty):
            return True
        if threshold <= 0:
            return False
        # Fold only the per-message lanes onto the round's memoized prefix;
        # identical to hashing the full (seed, lane, round, ...) chain.
        prefix = self.round_context(round_index)[2]
        coin = fault_hash_from_prefix(prefix, sender, target, occurrence)
        return coin < threshold

    def keep_mask(self, senders, targets, round_index: int, n: int):
        """The engine's keep mask for one round (None = keep all).

        ``senders`` / ``targets`` are the round's messages in delivery scan
        order; the occurrence index (rank among the round's earlier messages
        of the same (sender, target) pair) is recovered with a stable sort,
        so the mask equals the per-message decisions of :meth:`drops` exactly.
        """
        count = int(senders.size)
        if count == 0:
            return None
        threshold, faulty, prefix = self.round_context(round_index)
        drop = None
        if threshold >= (1 << 64):
            drop = _np.ones(count, dtype=bool)
        elif threshold > 0:
            keys = senders.astype(_np.int64) * _np.int64(n) + targets.astype(_np.int64)
            order = _np.argsort(keys, kind="stable")
            sorted_keys = keys[order]
            change = _np.empty(count, dtype=bool)
            change[0] = True
            _np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=change[1:])
            positions = _np.arange(count)
            starts = _np.maximum.accumulate(_np.where(change, positions, 0))
            occurrences = _np.empty(count, dtype=_np.int64)
            occurrences[order] = positions - starts
            hashes = fault_hash_array(prefix, senders, targets, occurrences)
            drop = hashes < _np.uint64(threshold)
        if faulty:
            faulty_column = _np.fromiter(faulty, dtype=_np.int64, count=len(faulty))
            node_fault = _np.isin(senders, faulty_column) | _np.isin(targets, faulty_column)
            drop = node_fault if drop is None else (drop | node_fault)
        if drop is None or not drop.any():
            return None
        return ~drop
