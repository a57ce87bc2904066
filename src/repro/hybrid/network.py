"""The HYBRID model engine.

A :class:`HybridNetwork` wraps the local communication graph ``G`` and gives
protocol implementations exactly the two communication modes of the model:

* **Local mode (LOCAL).**  Per-edge bandwidth is unbounded, so the engine does
  not move local messages one by one.  Protocols call
  :meth:`HybridNetwork.charge_local_rounds` with the number of rounds their
  local phase takes (e.g. flooding to depth ``d`` costs ``d`` rounds) and then
  compute the phase's outcome directly from the graph restricted to the
  corresponding neighbourhoods.  This is semantically what the LOCAL model
  allows and keeps Python simulations tractable (see DESIGN.md §2).

* **Global mode (NCC).**  Each round every node may send at most
  ``ModelConfig.send_cap(n)`` messages of ``O(log n)`` bits to arbitrary node
  IDs; the engine enforces the send budget, counts every round and message,
  and records the per-round receive maxima that Lemma D.2 bounds.  The
  engine charges only for who sends to whom, so a batch of messages is two
  int64 columns, ``senders`` and ``targets``, and every global call returns
  the *positions* of the delivered messages; a caller that needs a payload
  keeps it in a column of its own and indexes it with those positions.
  A global exchange is two steps.  :meth:`HybridNetwork.schedule_exchange`
  computes its :class:`ExchangeSchedule` -- the delivery order and the round
  bounds, a read-only value that depends only on the columns and the caps,
  so a caller that sends the same columns again (a reused routing plan)
  keeps it.  :meth:`HybridNetwork.account` then charges all of its rounds
  in one pass; ``global_round`` is a one-round schedule through the same
  call.  Both are whole-array numpy operations that make exactly the
  decisions of a per-message, round-by-round scan (the message-plane tests
  check the engine against such a scalar scheduler; DESIGN.md §4).

All counters live in :class:`~repro.hybrid.metrics.RoundMetrics`; the sum of
local and global rounds is the quantity the paper's theorems are about.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as _np

from repro.graphs.graph import WeightedGraph
from repro.hybrid.config import MESSAGE_BITS, ModelConfig
from repro.hybrid.errors import CapacityExceededError, FaultToleranceExceededError
from repro.hybrid.faults import FaultState
from repro.hybrid.metrics import RoundMetrics
from repro.util.rand import RandomSource


def _group_starts(keys):
    """For a key array whose equal keys are contiguous: index of each run's start."""
    length = keys.size
    change = _np.empty(length, dtype=bool)
    change[0] = True
    _np.not_equal(keys[1:], keys[:-1], out=change[1:])
    return _np.maximum.accumulate(_np.where(change, _np.arange(length), 0))


def _admit_scan(senders, targets, scan_positions, send_cap: int, receive_cap: int):
    """Which messages a per-message admission scan admits this round.

    :meth:`HybridNetwork.schedule_exchange` calls it only from the first
    contested round on; earlier rounds admit exactly each sender's next
    ``send_cap`` messages, which it schedules in closed form.  The arrays
    are in canonical order -- sorted by (sender, queue position), each
    sender's messages contiguous -- and ``scan_positions`` gives each
    message's rank in the round's rotated scan order (the rotation moves
    whole sender runs, so within a sender canonical order *is* scan order).
    A per-message scan admits a message iff, among messages scanned before
    it, fewer than ``send_cap`` of the same sender and fewer than
    ``receive_cap`` to the same target were admitted (skipped messages
    consume no budget).  That recurrence is solved by Jacobi iteration on
    whole-array prefix sums: re-evaluating every message against the
    previous iterate's admission vector fixes the decisions of the first
    ``k`` scan positions after ``k`` sweeps (each decision depends only on
    earlier positions), so the loop converges to the unique fixpoint -- the
    exact sequential outcome -- and in practice stops after two or three
    sweeps.
    """
    length = senders.size
    positions = _np.arange(length)
    sender_starts = _group_starts(senders)
    # One argsort orders the messages by (target, scan position); groupwise
    # exclusive prefix sums over it count each message's admitted
    # predecessors at the same target.
    target_order = _np.argsort(targets * _np.int64(length) + scan_positions)
    sorted_target_starts = _group_starts(targets[target_order])
    inverse = _np.empty(length, dtype=positions.dtype)
    inverse[target_order] = positions
    admitted = _np.ones(length, dtype=bool)
    for _ in range(length):
        exclusive = _np.cumsum(admitted) - admitted
        prior_sender = exclusive - exclusive[sender_starts]
        admitted_by_target = admitted[target_order]
        exclusive_target = _np.cumsum(admitted_by_target) - admitted_by_target
        prior_target = (exclusive_target - exclusive_target[sorted_target_starts])[inverse]
        refined = (prior_sender < send_cap) & (prior_target < receive_cap)
        if _np.array_equal(refined, admitted):
            break
        admitted = refined
    return admitted


def _closed_form_rounds(senders, planned, contested: int):
    """Delivery order and bounds of every round before the first contested one.

    ``senders`` is in canonical order (sorted by sender, each sender's queue
    in order) and ``planned`` is each message's planned round, rank
    ``// send_cap``.  Round ``t < contested`` delivers exactly its planned
    block (DESIGN.md §4), and a stable sort by planned round lists each
    block sorted by sender; the scan starts at sender run ``t % runs``, so
    the block is rotated there.  All blocks are rotated at once: position
    ``i`` of round ``t`` moves to ``bounds[t] + (i - split[t]) % length[t]``.
    Returns the canonical indices in delivery order and the round bounds.
    """
    by_round = _np.argsort(planned, kind="stable")[: _np.count_nonzero(planned < contested)]
    rounds = planned[by_round]
    block_senders = senders[by_round]
    bounds = _np.searchsorted(rounds, _np.arange(contested + 1))
    # A sender run ends where the sender changes or a new round's block
    # begins (one sender may close a block and open the next).
    run_start = _np.empty(by_round.size, dtype=bool)
    run_start[0] = True
    _np.not_equal(block_senders[1:], block_senders[:-1], out=run_start[1:])
    run_start[bounds[1:-1]] = True
    run_starts = _np.flatnonzero(run_start)
    runs = _np.bincount(rounds[run_starts], minlength=contested)
    first_run = _np.cumsum(runs) - runs
    split = run_starts[first_run + _np.arange(contested) % runs]
    lengths = _np.diff(bounds)
    destination = bounds[rounds] + (_np.arange(by_round.size) - split[rounds]) % lengths[rounds]
    rotated = _np.empty_like(by_round)
    rotated[destination] = by_round
    return rotated, bounds


def _endpoint_error(senders, targets, bounds, n: int) -> tuple[int, ValueError]:
    """The first round that names a node outside the network, and its error.

    Within that round a bad sender is reported before a bad target, each
    the first in the round's scan order -- the order a round-by-round
    validation meets them in.
    """
    bad_sender = (senders < 0) | (senders >= n)
    bad_target = (targets < 0) | (targets >= n)
    first_bad = int(_np.argmax(bad_sender | bad_target))
    failing = int(_np.searchsorted(bounds, first_bad, side="right")) - 1
    in_round = slice(int(bounds[failing]), int(bounds[failing + 1]))
    if bad_sender[in_round].any():
        bad = senders[in_round][bad_sender[in_round]][0]
        return failing, ValueError(f"sender {int(bad)} outside the network")
    bad = targets[in_round][bad_target[in_round]][0]
    return failing, ValueError(f"target {int(bad)} outside the network")


@dataclass(frozen=True, eq=False)
class ExchangeSchedule:
    """When each message of one global exchange is sent: a read-only value.

    ``order`` lists the batch positions in delivery order -- round by round,
    each round in its rotated scan order -- and round ``r`` sends
    ``order[bounds[r]:bounds[r + 1]]``.  A schedule is a pure function of
    the sender/target columns and the network's caps; fault fates never
    feed back into it (DESIGN.md §4).  So it is computed once per column
    pair (:meth:`HybridNetwork.schedule_exchange`) and can be sent any
    number of times (:meth:`HybridNetwork.account`).
    """

    order: _np.ndarray
    bounds: _np.ndarray

    def __post_init__(self) -> None:
        self.order.setflags(write=False)
        self.bounds.setflags(write=False)

    @property
    def rounds(self) -> int:
        """The number of global rounds the schedule takes."""
        return int(self.bounds.size) - 1

    @classmethod
    def single_round(cls, count: int) -> ExchangeSchedule:
        """All ``count`` messages in one round, in batch order."""
        return cls(_np.arange(count), _np.array([0, count]))

    @classmethod
    def chain(cls, schedules: Iterable[ExchangeSchedule]) -> ExchangeSchedule:
        """The schedules one after another, over their concatenated columns.

        Each schedule keeps its own rounds; its positions and bounds are
        offset by the messages of the schedules before it.
        """
        orders = [_np.arange(0)]
        bounds = [_np.zeros(1, dtype=_np.int64)]
        offset = 0
        for schedule in schedules:
            orders.append(schedule.order + offset)
            bounds.append(schedule.bounds[1:] + offset)
            offset += schedule.order.size
        return cls(_np.concatenate(orders), _np.concatenate(bounds))


class HybridNetwork:
    """One simulated HYBRID network: graph + global channel + accounting."""

    def __init__(self, graph: WeightedGraph, config: ModelConfig | None = None) -> None:
        self.graph = graph
        self.config = config or ModelConfig()
        self.n = graph.node_count
        self.metrics = RoundMetrics()
        # Shard-level accounting: the experiment engine observes every network
        # born inside one shard through an ambient scope (no-op otherwise).
        self.metrics.attach_ambient_observers()
        self.rng = RandomSource(self.config.rng_seed)
        self.send_cap = self.config.send_cap(self.n)
        self.receive_cap = self.config.receive_cap(self.n)
        # (name, membership mask) per registered cut.
        self._cut_watchers: list[tuple[str, _np.ndarray]] = []
        # Cumulative global messages received per node over the whole run;
        # the busiest node's total is the bandwidth bottleneck the paper's
        # trade-offs are about.
        self.received_totals = _np.zeros(self.n, dtype=_np.int64)
        # Fault injection (DESIGN.md §8).  A disabled/absent FaultModel keeps
        # every engine path on the lossless branch -- `_fault_state is None`
        # is the single check the hot loops make.
        faults = self.config.faults
        self._fault_state = FaultState(faults) if faults is not None and faults.enabled else None
        # Exchanges whose columns depend on n and the caps alone, keyed by
        # their builder (see fixed_exchange).
        self._fixed_exchanges: dict[Callable, tuple] = {}

    def reset_metrics(self) -> None:
        """Zero all counters (e.g. between benchmark repetitions).

        An active fault schedule restarts with the counters: the fault clock
        is part of the run being measured, so every repetition replays the
        same seeded drops.
        """
        self.metrics = RoundMetrics()
        self.metrics.attach_ambient_observers()
        if self._fault_state is not None:
            self._fault_state = FaultState(self._fault_state.model)

    def fork_rng(self, label: str) -> RandomSource:
        """A child random source for one protocol phase (reproducible per label)."""
        # repro-lint: waive[RL005] -- the blessed forwarding wrapper; RL005 audits its call sites
        return self.rng.fork(label)

    # ------------------------------------------------------------- local mode
    def hop_diameter(self) -> int:
        """The hop diameter ``D(G)``, with infinity clamped to ``n``.

        Delegates to the graph's own mutation-invalidated cache, so a session
        that mutates the graph between queries never charges local rounds
        against a stale diameter cap.
        """
        diameter = self.graph.hop_diameter()
        return self.n if diameter == float("inf") else int(diameter)

    def charge_local_rounds(self, rounds: int, phase: str = "local") -> None:
        """Account for a local-mode phase of the given length.

        The caller is responsible for only using information that ``rounds``
        rounds of flooding could have delivered (i.e. the ``rounds``-hop
        neighbourhood of each node); see the module docstring.

        The charge is capped at ``D(G)``: after ``D`` rounds of the unbounded
        local mode every node knows the entire graph state at the start of the
        phase, so no local phase ever needs more (the paper's "min(D, ·)"
        remark).
        """
        self.metrics.charge_local(min(rounds, self.hop_diameter()), phase)

    # ------------------------------------------------------------ global mode
    def add_cut_watcher(self, name: str, node_set: Iterable[int]) -> None:
        """Track global bits crossing between ``node_set`` and its complement.

        Used by the lower-bound experiments (Section 7): the Alice/Bob
        simulation argument only charges for information crossing the cut via
        the global network.
        """
        mask = _np.zeros(self.n, dtype=bool)
        for node in sorted(set(node_set)):
            mask[node] = True
        self._cut_watchers.append((name, mask))

    @property
    def lossless(self) -> bool:
        """Whether every global message arrives: no active global fault model.

        On a lossless plane a protocol's traffic cannot depend on delivery
        fates, so a protocol may compute all of its rounds up front and send
        them as one exchange (DESIGN.md §4); under faults the fates feed
        back, and reliable exchanges retransmit (§8).
        """
        return self._fault_state is None

    def fixed_exchange(self, build: Callable[[HybridNetwork], tuple]) -> tuple:
        """What ``build(self)`` returns, built on first use and kept.

        For traffic that depends on ``n`` and the caps alone (aggregation's
        tree levels and doubling rounds, :mod:`repro.localnet.aggregation`):
        ``build`` returns ``(senders, targets, schedule)`` with read-only
        columns, or a tuple of such exchanges, and every later call with the
        same ``build`` returns the same value.
        """
        exchange = self._fixed_exchanges.get(build)
        if exchange is None:
            exchange = self._fixed_exchanges[build] = build(self)
        return exchange

    def global_round(self, senders, targets, phase: str = "global") -> _np.ndarray:
        """Execute exactly one round of the global (NCC) mode.

        Parameters
        ----------
        senders, targets:
            The round's messages as two int64 columns: message ``i`` goes
            from ``senders[i]`` to ``targets[i]``.  A node exceeding the send
            budget raises :class:`~repro.hybrid.errors.CapacityExceededError`
            -- a correct protocol never does; receives over the receive
            budget are counted in ``metrics.receive_cap_violations``.
        phase:
            Name under which the round is accounted.

        Returns
        -------
        numpy.ndarray
            The positions of the delivered messages, ascending.  With an
            active :class:`~repro.hybrid.faults.FaultModel`, messages it drops
            are excluded and tallied in ``metrics.global_dropped``.
        """
        # No traffic means no use of the global mode: an empty round charges
        # zero global rounds (regression tests in tests/test_message_plane.py,
        # next to the n=1 cases) and leaves the fault clock untouched.
        if not senders.size:
            return _np.arange(0)
        return self.account(ExchangeSchedule.single_round(senders.size), senders, targets, phase)

    def schedule_exchange(self, senders, targets) -> ExchangeSchedule:
        """The round-by-round schedule of a batch of global messages.

        Each node sends its queued messages at most ``send_cap`` per round and
        receives at most ``receive_cap`` messages per round -- excess messages
        simply wait in their sender's queue for a later round.  Message ``i``
        goes from ``senders[i]`` to ``targets[i]`` (two int64 columns);
        within one sender the column order is the sender's queue order.

        Senders are served in round-robin order: the ID-sorted list of senders
        with pending messages is rotated by one position each round, so a
        contested receive budget is shared fairly.  (A fixed
        ``sorted(queues)`` order would hand low-ID senders the whole budget
        every round and starve high-ID senders behind a saturated receiver;
        see the regression test in tests/test_hybrid_engine.py.)  Every round
        makes progress: the receive budget is rebuilt per round, so the first
        message scanned is always admissible -- the scheduler asserts this
        invariant rather than charging idle rounds.

        The messages are sorted once by (sender, queue position).  A message
        of per-sender rank ``r`` is *planned* for round ``r // send_cap``, and
        one ``np.bincount`` of (planned round, target) pairs finds the first
        *contested* round, in which some target is planned more than
        ``receive_cap`` messages.  Every earlier round delivers exactly its
        planned block (DESIGN.md §4 has the induction), in the rotated scan
        order that :func:`_closed_form_rounds` computes for all of them at
        once.  From the first contested round on, the per-message admission
        scan (:func:`_admit_scan`) runs on the pending messages, which are
        still in canonical order; the rotated scan order is then a scan-rank
        array, and admitted messages leave the queue.  An out-of-range target
        skips the closed form, so :meth:`account` rejects it in the round it
        is sent.

        The schedule depends on the columns and the caps only: a message a
        fault drops has still used its sender's budget, so fault fates never
        feed back into it, and one schedule serves every exchange of the same
        columns (a :class:`~repro.core.token_routing.RoutingPlan` keeps its
        three).
        """
        if not senders.size:
            return ExchangeSchedule(_np.arange(0), _np.zeros(1, dtype=_np.int64))
        n = self.n
        send_cap = self.send_cap
        order = _np.argsort(senders, kind="stable")
        senders = senders[order]
        targets = targets[order]
        planned = (_np.arange(senders.size) - _group_starts(senders)) // send_cap
        last = int(planned.max())
        if int(targets.min()) < 0 or int(targets.max()) >= n:
            # An invalid target cannot be bincounted: leave it to the scan,
            # so account rejects it in the round it is sent.
            contested = 0
        else:
            over = _np.flatnonzero(_np.bincount(planned * n + targets) > self.receive_cap)
            contested = int(over[0]) // n if over.size else last + 1
        if last == 0 and contested:
            # One uncontested round: the canonical order is the scan order.
            return ExchangeSchedule(order, _np.array([0, order.size]))
        if contested:
            rotated, bounds = _closed_form_rounds(senders, planned, contested)
            if contested > last:
                return ExchangeSchedule(order[rotated], bounds)
            pieces = [order[rotated]]
            waiting = planned >= contested
            senders = senders[waiting]
            targets = targets[waiting]
            order = order[waiting]
        else:
            pieces = []
            bounds = _np.zeros(1, dtype=_np.int64)
        rounds = contested
        sizes = []
        while senders.size:
            length = senders.size
            run_bounds = _np.empty(length, dtype=bool)
            run_bounds[0] = True
            _np.not_equal(senders[1:], senders[:-1], out=run_bounds[1:])
            run_starts = _np.flatnonzero(run_bounds)
            offset = rounds % run_starts.size
            split = int(run_starts[offset])
            # The rotation moves the runs of senders ranked >= offset to the
            # front, which is an element-level rotation of the canonical
            # order at ``split`` -- expressed as a scan-rank array instead of
            # physically reordering the columns.
            scan_positions = _np.arange(length) - split
            scan_positions[scan_positions < 0] += length
            admitted = _admit_scan(senders, targets, scan_positions, send_cap, self.receive_cap)
            # Progress invariant: the first scanned message is always admitted.
            if not admitted.any():
                raise AssertionError("global exchange scheduler made no progress")
            admitted_at = _np.flatnonzero(admitted)
            # Deliveries are listed in scan order.
            pieces.append(order[admitted_at[_np.argsort(scan_positions[admitted_at])]])
            sizes.append(admitted_at.size)
            waiting = ~admitted
            senders = senders[waiting]
            targets = targets[waiting]
            order = order[waiting]
            rounds += 1
        return ExchangeSchedule(
            _np.concatenate(pieces), _np.concatenate((bounds, bounds[-1] + _np.cumsum(sizes)))
        )

    def account(
        self, schedule: ExchangeSchedule, senders, targets, phase: str = "global"
    ) -> _np.ndarray:
        """Send a schedule's messages: charge all of its rounds in one pass.

        ``schedule`` is :meth:`schedule_exchange` of these ``senders`` /
        ``targets`` columns (or :meth:`ExchangeSchedule.single_round`).  The
        rounds are folded with whole-array operations: per-round send and
        receive counts from one ``np.bincount`` of ``round * n + node`` cells
        per side (so the per-round maxima and the cumulative receive totals
        are reductions of them), drops and cut crossings over all delivered
        messages, and one
        :meth:`~repro.hybrid.metrics.RoundMetrics.charge_global` plus one
        traffic record for all rounds.  Under faults each message's fate uses
        its own round's index (:meth:`~repro.hybrid.faults.FaultState.keep_mask`
        takes the round column) and the fault clock advances by the number
        of rounds.  Sends -- message and bit totals, the send-cap check --
        count all attempted messages; receives (maxima, totals, cut
        crossings) only the delivered ones.

        A round that sends from or to a node outside the network raises
        ``ValueError``; one over the send cap raises
        :class:`~repro.hybrid.errors.CapacityExceededError`.  A round over the
        receive cap (after the fault drops) does not raise: the paper bounds
        receives only w.h.p. (Lemma D.2), so such rounds are counted in
        ``metrics.receive_cap_violations``.  The first failing
        round raises: every earlier round is charged in full, the failing
        round charges nothing, and the fault clock has ticked through it --
        exactly as a round-by-round execution would leave the network.

        Returns the positions of the delivered messages in delivery order.
        """
        rounds = schedule.rounds
        order = schedule.order
        if not rounds:
            return order
        n = self.n
        bounds = schedule.bounds
        # Per-round counts do not depend on the order within a round, so they
        # are taken over the columns as given; message ``at[i]`` of the
        # columns is the ``i``-th in delivery order.  ``rounds`` and
        # ``count`` shrink to the rounds before the first failing one and the
        # messages they send.
        at = order
        count = order.size
        sender_nodes = senders
        target_nodes = targets
        error: Exception | None = None
        ends = _np.concatenate((senders, targets))
        if int(ends.min()) < 0 or int(ends.max()) >= n:
            rounds, error = _endpoint_error(senders[order], targets[order], bounds, n)
            count = int(bounds[rounds])
            sender_nodes = senders[order[:count]]
            target_nodes = targets[order[:count]]
            at = _np.arange(count)
        widths = bounds[1 : rounds + 1] - bounds[:rounds]
        if rounds > 1:
            # Cell ``round * n + node``: one bincount per side counts every
            # round's sends per sender and deliveries per target.
            round_base = _np.empty(count, dtype=_np.int64)
            round_base[at] = _np.repeat(_np.arange(0, rounds * n, n), widths)
            sender_cells = round_base + sender_nodes
            target_cells = round_base + target_nodes
        else:
            sender_cells = sender_nodes
            target_cells = target_nodes
        fault_state = self._fault_state
        keep = None
        if fault_state is not None and count:
            # A fate depends on the scan order within its round.
            first_round = fault_state.round_index
            round_of = _np.repeat(_np.arange(first_round, first_round + rounds), widths)
            keep = fault_state.keep_mask(sender_nodes[at], target_nodes[at], round_of, n)
            if keep is not None:
                target_cells = target_cells[at[keep]]
        sent = _np.bincount(sender_cells, minlength=rounds * n).reshape(rounds, n)
        received = _np.bincount(target_cells, minlength=rounds * n).reshape(rounds, n)
        max_sent = int(sent.max(initial=0))
        max_received = int(received.max(initial=0))
        if max_sent > self.send_cap:
            rounds, error = self._first_over_cap(sent)
            count = int(bounds[rounds])
            sent = sent[:rounds]
            received = received[:rounds]
            keep = None if keep is None else keep[:count]
            max_sent = int(sent.max(initial=0))
            max_received = int(received.max(initial=0))
        if fault_state is not None:
            # The clock ticks once per round, the failing round included.
            fault_state.advance(rounds + (error is not None))
        positions = order[:count]
        if keep is not None:
            positions = positions[keep]
        if rounds:
            self.received_totals += received[0] if rounds == 1 else received.sum(axis=0)
            self.metrics.charge_global(rounds, phase)
            violations = 0
            if max_received > self.receive_cap:
                violations = int(_np.count_nonzero(received.max(axis=1) > self.receive_cap))
            self.metrics.record_global_traffic(
                messages=count,
                bits=count * MESSAGE_BITS,
                max_sent=max_sent,
                max_received=max_received,
                violations=violations,
            )
            if positions.size < count:
                self.metrics.record_fault_losses(dropped=count - int(positions.size))
            for name, mask in self._cut_watchers:
                crossings = int(
                    _np.count_nonzero(mask[senders[positions]] != mask[targets[positions]])
                )
                if crossings:
                    self.metrics.record_cut_bits(name, crossings * MESSAGE_BITS)
        if error is not None:
            raise error
        return positions

    def _first_over_cap(self, sent) -> tuple[int, CapacityExceededError]:
        """The first round over the send cap, and its error.

        ``sent`` holds each round's sends per sender.
        """
        max_sent = sent.max(axis=1)
        failing = int((max_sent > self.send_cap).argmax())
        return failing, CapacityExceededError(
            f"node {int(sent[failing].argmax())} tried to send {int(max_sent[failing])} "
            f"global messages in one round (cap {self.send_cap})"
        )

    def run_global_exchange(
        self, senders, targets, phase: str = "global", schedule: ExchangeSchedule | None = None
    ) -> tuple[_np.ndarray, int]:
        """Deliver an arbitrary-size batch of global messages over several rounds.

        The workhorse behind "send each of your tokens, Θ(log n) tokens at a
        time" style loops in the paper's pseudo-code: the batch is scheduled
        (:meth:`schedule_exchange`, unless the caller passes the ``schedule``
        it already holds for these columns) and every round of the schedule
        is charged in one pass (:meth:`account`).  Message ``i`` goes from
        ``senders[i]`` to ``targets[i]`` (two int64 columns); within one
        sender the column order is the sender's queue order.

        Returns the positions of the delivered messages in delivery order
        (round by round, each round in its rotated scan order) and the number
        of global rounds used.
        """
        if schedule is None:
            schedule = self.schedule_exchange(senders, targets)
        return self.account(schedule, senders, targets, phase), schedule.rounds

    def run_reliable_exchange(
        self, senders, targets, phase: str = "global", schedule: ExchangeSchedule | None = None
    ) -> tuple[_np.ndarray, int]:
        """Deliver *every* message of the batch despite an unreliable network.

        Without active global faults this is exactly
        :meth:`run_global_exchange` -- same rounds, same phases, same metrics,
        same delivery order -- so loss-tolerant protocols cost nothing on the
        ideal model (the bit-identity tests pin this).  With faults, the
        exchange runs the acknowledged-retransmission scheme the paper's
        w.h.p. analyses license: after each delivery attempt every receiver
        returns one ACK per arrived message (ACKs cross the same lossy global
        plane), and senders re-send everything unacknowledged.  Each attempt
        succeeds per message with constant probability, so
        ``max_attempts = Θ(log n)`` amplifies delivery to w.h.p. -- the
        classic success-amplification argument.  A message and its ACK are
        matched by the message's position in the batch, so duplicates caused
        by lost ACKs are absorbed here and callers keep exactly-once
        semantics.  A ``schedule`` the caller holds for these columns
        (:meth:`schedule_exchange`) sends the first attempt; retries and ACKs
        are new columns and are scheduled as they come.

        Returns the delivered positions and the total global rounds consumed,
        ACK rounds included; under faults the positions are all of them, in
        batch order, which is what full delivery means.  Raises
        :class:`~repro.hybrid.errors.FaultToleranceExceededError` if messages
        remain undelivered when the model's ``max_attempts`` budget runs out
        -- the injected faults beat the configured amplification, and a
        partial result must not masquerade as a correct one.
        """
        if self.lossless:
            return self.run_global_exchange(senders, targets, phase, schedule=schedule)
        total = senders.size
        pending = _np.arange(total)
        if not total:
            return pending, 0
        rounds = 0
        max_attempts = self._fault_state.model.max_attempts
        for attempt in range(max_attempts):
            if attempt:
                self.metrics.record_fault_losses(retried=int(pending.size))
            attempt_phase = phase if attempt == 0 else phase + ":retry"
            # The first attempt sends the whole batch, so a schedule the
            # caller holds for it applies; retries and ACKs are new columns.
            delivered, attempt_rounds = self.run_global_exchange(
                senders[pending],
                targets[pending],
                attempt_phase,
                schedule=schedule if attempt == 0 else None,
            )
            rounds += attempt_rounds
            if delivered.size:
                # One ACK per arrival, back over the same faulty plane.
                arrived = pending[delivered]
                acked, ack_rounds = self.run_global_exchange(
                    targets[arrived], senders[arrived], phase + ":ack"
                )
                rounds += ack_rounds
                pending = pending[~_np.isin(pending, arrived[acked])]
            if not pending.size:
                break
        if pending.size:
            raise FaultToleranceExceededError(
                f"{pending.size} of {total} messages undelivered after "
                f"{max_attempts} attempts in phase {phase!r}"
            )
        # Everything arrived (possibly more than once; duplicates are
        # dropped), so the delivered set is the whole batch.
        return _np.arange(total), rounds

    # ------------------------------------------------------------- shortcuts
    def max_total_received(self) -> int:
        """Largest cumulative global receive count of any node over the run."""
        return int(self.received_totals.max()) if self.n else 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HybridNetwork(n={self.n}, m={self.graph.edge_count}, "
            f"send_cap={self.send_cap}, rounds={self.metrics.total_rounds})"
        )
