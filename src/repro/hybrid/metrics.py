"""Round and message accounting for the HYBRID model engine.

Every theorem in the paper is a statement about *rounds*, and the global-mode
capacity constraint is what makes those statements non-trivial, so the engine
keeps detailed counters:

* local rounds and global rounds, separately and per named protocol phase,
* global messages sent/received in total and the per-node per-round maxima
  (Lemma D.2 asserts these stay at ``O(log n)`` w.h.p.), and
* total global bits, which the lower-bound experiments (Sections 6-7) compare
  against the information-theoretic requirements.

Counters can additionally be observed through *scopes*
(:meth:`RoundMetrics.scoped`): a scope is a fresh ``RoundMetrics`` that
receives a copy of every charge recorded while it is active, so a caller can
read off exactly what one query (or one protocol phase) cost -- including the
per-round maxima, which a subtract-two-snapshots scheme could not recover.
The session layer (:mod:`repro.session`) uses scopes for its per-query
amortized accounting.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field


#: Process-local stack of ambient observers (see :func:`ambient_observer`).
#: Every :class:`~repro.hybrid.network.HybridNetwork` created while an
#: observer is active attaches it to its metrics via
#: :meth:`RoundMetrics.attach_ambient_observers`, so one observer sees the
#: combined charges of *all* networks a code region builds.  The experiment
#: engine opens one observer per shard: because the stack is per process and
#: shards run one at a time within a worker, the per-shard metrics recorded
#: in the artifact store are bit-identical between serial and parallel runs.
_AMBIENT_OBSERVERS: list["RoundMetrics"] = []


@contextmanager
def ambient_observer() -> Iterator["RoundMetrics"]:
    """Observe every metrics charge of networks created inside the context.

    Yields a fresh :class:`RoundMetrics` that is appended, as a scope, to the
    metrics of every ``HybridNetwork`` constructed while the context is
    active (the same mirroring machinery as :meth:`RoundMetrics.scoped`).
    Charges on networks created *before* the context opened are not seen.
    """
    scope = RoundMetrics()
    # Per-process stack: each worker opens its own scope.
    _AMBIENT_OBSERVERS.append(scope)
    try:
        yield scope
    finally:
        for index, active in enumerate(_AMBIENT_OBSERVERS):
            if active is scope:
                del _AMBIENT_OBSERVERS[index]
                break


@dataclass
class PhaseBreakdown:
    """Rounds attributed to one named protocol phase."""

    local_rounds: int = 0
    global_rounds: int = 0

    @property
    def total_rounds(self) -> int:
        """Local plus global rounds of this phase."""
        return self.local_rounds + self.global_rounds


@dataclass
class RoundMetrics:
    """Counters collected while simulating one protocol execution.

    ``label`` is an optional free-form tag for scope bookkeeping (the serving
    layer labels per-tenant scopes ``tenant:<name>``, see DESIGN.md §11); it
    never participates in equality or accounting.
    """

    local_rounds: int = 0
    global_rounds: int = 0
    global_messages: int = 0
    global_bits: int = 0
    max_sent_per_round: int = 0
    max_received_per_round: int = 0
    receive_cap_violations: int = 0
    #: Global messages lost to an active :class:`~repro.hybrid.faults.FaultModel`
    #: (sent -- they consume bandwidth and count in ``global_messages`` -- but
    #: never delivered) and messages re-sent by reliable exchanges to recover
    #: from those losses.  Both stay 0 on the ideal fault-free paths.
    global_dropped: int = 0
    global_retried: int = 0
    phases: dict[str, PhaseBreakdown] = field(default_factory=lambda: defaultdict(PhaseBreakdown))
    cut_bits: dict[str, int] = field(default_factory=dict)
    label: str | None = field(default=None, repr=False, compare=False)
    _scopes: list["RoundMetrics"] = field(default_factory=list, repr=False, compare=False)

    @property
    def total_rounds(self) -> int:
        """The quantity every theorem bounds: local + global rounds."""
        return self.local_rounds + self.global_rounds

    def attach_ambient_observers(self) -> None:
        """Subscribe this metrics object to the active ambient observers.

        Called by ``HybridNetwork`` at construction (and on metrics reset) so
        that :func:`ambient_observer` scopes see the charges of every network
        born inside them.  Only top-level network metrics attach -- plain
        ``RoundMetrics`` used as accumulators (e.g. the session's
        ``preprocessing`` ledger) never do, so merged charges are counted
        exactly once.
        """
        for scope in _AMBIENT_OBSERVERS:
            self._scopes.append(scope)

    @contextmanager
    def scoped(self, label: str | None = None) -> Iterator["RoundMetrics"]:
        """Observe every charge recorded while the context is active.

        Yields a fresh :class:`RoundMetrics`; all charges (rounds, traffic,
        cut bits, merges) recorded on *this* object while the scope is open
        are mirrored into it.  Scopes nest -- an inner scope sees a subset of
        what the outer one sees -- and unlike a snapshot subtraction the
        scope's ``max_sent_per_round`` / ``max_received_per_round`` are the
        true per-round maxima *within* the scope.  ``label`` tags the scope
        (e.g. ``tenant:<name>`` in the serving layer) without affecting the
        accounting or equality.
        """
        scope = RoundMetrics(label=label)
        self._scopes.append(scope)
        try:
            yield scope
        finally:
            # Remove by identity: two nested scopes that observed the same
            # charges compare equal, so value-based list.remove would pop
            # the wrong one.
            for index, active in enumerate(self._scopes):
                if active is scope:
                    del self._scopes[index]
                    break

    def charge_local(self, rounds: int, phase: str = "local") -> None:
        """Add ``rounds`` local rounds attributed to ``phase``."""
        if rounds < 0:
            raise ValueError("rounds must be non-negative")
        self.local_rounds += rounds
        self.phases[phase].local_rounds += rounds
        for scope in self._scopes:
            scope.charge_local(rounds, phase)

    def charge_global(self, rounds: int, phase: str = "global") -> None:
        """Add ``rounds`` global rounds attributed to ``phase``."""
        if rounds < 0:
            raise ValueError("rounds must be non-negative")
        self.global_rounds += rounds
        self.phases[phase].global_rounds += rounds
        for scope in self._scopes:
            scope.charge_global(rounds, phase)

    def record_global_traffic(
        self,
        messages: int,
        bits: int,
        max_sent: int,
        max_received: int,
        receive_cap: int | None = None,
        violations: int | None = None,
    ) -> None:
        """Record the traffic of one global round, or of several folded into one.

        ``max_sent`` / ``max_received`` are the largest per-node counts of
        any of the rounds.  For one round, ``receive_cap`` decides whether it
        violated the receive cap; a folded record passes ``violations``, the
        number of its rounds that received more than the cap.
        """
        if violations is None:
            violations = int(receive_cap is not None and max_received > receive_cap)
        self.global_messages += messages
        self.global_bits += bits
        self.max_sent_per_round = max(self.max_sent_per_round, max_sent)
        self.max_received_per_round = max(self.max_received_per_round, max_received)
        self.receive_cap_violations += violations
        for scope in self._scopes:
            scope.record_global_traffic(
                messages, bits, max_sent, max_received, violations=violations
            )

    def record_fault_losses(self, dropped: int = 0, retried: int = 0) -> None:
        """Tally fault-injected message losses and the retransmissions that
        answer them.  Only called with non-zero counts, and only by the
        faulty engine paths, so fault-free metrics never even see the call."""
        self.global_dropped += dropped
        self.global_retried += retried
        for scope in self._scopes:
            scope.record_fault_losses(dropped, retried)

    def record_cut_bits(self, cut_name: str, bits: int) -> None:
        """Accumulate global bits that crossed a named cut (lower-bound experiments)."""
        self.cut_bits[cut_name] = self.cut_bits.get(cut_name, 0) + bits
        for scope in self._scopes:
            scope.record_cut_bits(cut_name, bits)

    def merge(self, other: "RoundMetrics") -> None:
        """Fold another metrics object into this one (used by nested protocols)."""
        for scope in self._scopes:
            scope.merge(other)
        self.local_rounds += other.local_rounds
        self.global_rounds += other.global_rounds
        self.global_messages += other.global_messages
        self.global_bits += other.global_bits
        self.max_sent_per_round = max(self.max_sent_per_round, other.max_sent_per_round)
        self.max_received_per_round = max(self.max_received_per_round, other.max_received_per_round)
        self.receive_cap_violations += other.receive_cap_violations
        self.global_dropped += other.global_dropped
        self.global_retried += other.global_retried
        for phase, breakdown in other.phases.items():
            self.phases[phase].local_rounds += breakdown.local_rounds
            self.phases[phase].global_rounds += breakdown.global_rounds
        for cut, bits in other.cut_bits.items():
            self.cut_bits[cut] = self.cut_bits.get(cut, 0) + bits

    def rounds_for_phase_prefix(self, prefix: str) -> int:
        """Total rounds of all phases whose name starts with ``prefix``.

        Protocol phases are named hierarchically (e.g. ``apsp:routing:push``),
        so the cost of a whole sub-protocol can be read off with its prefix.
        """
        return sum(
            breakdown.total_rounds
            for name, breakdown in self.phases.items()
            if name.startswith(prefix)
        )

    def phase_summary(self) -> list[str]:
        """Human-readable per-phase round counts (largest first)."""
        rows = sorted(self.phases.items(), key=lambda item: -item[1].total_rounds)
        return [
            f"{name}: {breakdown.total_rounds} rounds "
            f"({breakdown.local_rounds} local, {breakdown.global_rounds} global)"
            for name, breakdown in rows
        ]

    def as_dict(self) -> dict[str, float]:
        """Flat dictionary used by benchmarks' ``extra_info``."""
        return {
            "total_rounds": self.total_rounds,
            "local_rounds": self.local_rounds,
            "global_rounds": self.global_rounds,
            "global_messages": self.global_messages,
            "global_bits": self.global_bits,
            "max_sent_per_round": self.max_sent_per_round,
            "max_received_per_round": self.max_received_per_round,
            "receive_cap_violations": self.receive_cap_violations,
            "global_dropped": self.global_dropped,
            "global_retried": self.global_retried,
        }
