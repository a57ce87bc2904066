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
  and records the per-round receive maxima that Lemma D.2 bounds.  Messages
  travel as an array-backed :class:`~repro.hybrid.batch.MessageBatch`,
  scheduled and accounted with whole-array numpy operations that make
  exactly the decisions of a per-message scan (the message-plane tests check
  the engine against such a scalar scheduler; DESIGN.md §4).

All counters live in :class:`~repro.hybrid.metrics.RoundMetrics`; the sum of
local and global rounds is the quantity the paper's theorems are about.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as _np

from repro.graphs.graph import WeightedGraph
from repro.hybrid.batch import MessageBatch
from repro.hybrid.config import ModelConfig
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

    The arrays are in canonical order -- sorted by (sender, queue position),
    each sender's messages contiguous -- and ``scan_positions`` gives each
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
        self._states: list[dict[str, object]] = [dict() for _ in range(self.n)]
        # (name, membership mask) per registered cut.
        self._cut_watchers: list[tuple[str, _np.ndarray]] = []
        # Cumulative global messages received per node over the whole run;
        # the busiest node's total is the bandwidth bottleneck the paper's
        # trade-offs are about.
        self.received_totals = _np.zeros(self.n, dtype=_np.int64)
        # Fault injection (DESIGN.md §8).  A disabled/absent FaultModel keeps
        # every engine path on the ideal branch -- `_fault_state is None` is
        # the single check the hot loops make.
        faults = self.config.faults
        self.faults = faults if faults is not None and faults.enabled else None
        self._fault_state = (
            FaultState(self.faults)
            if self.faults is not None and self.faults.affects_global
            else None
        )
        self._outage_graph: WeightedGraph | None = None
        self._outage_version: int | None = None

    # ------------------------------------------------------------------ state
    def state(self, node: int) -> dict[str, object]:
        """The mutable per-node knowledge dictionary of ``node``.

        Protocols must only read/write the state of the node they are
        currently acting as; tests rely on this discipline to check locality.
        """
        return self._states[node]

    def states(self) -> list[dict[str, object]]:
        """All node states (index = node ID)."""
        return self._states

    def clear_states(self) -> None:
        """Drop all per-node knowledge (keeps the metrics)."""
        # repro-lint: waive[RL008] -- protocol state, not graph-derived; the outage cache keys on graph.version
        self._states = [dict() for _ in range(self.n)]

    def reset_metrics(self) -> None:
        """Zero all counters (e.g. between benchmark repetitions).

        An active fault schedule restarts with the counters: the fault clock
        is part of the run being measured, so every repetition replays the
        same seeded drops.
        """
        # repro-lint: waive[RL008] -- accounting reset by design; no graph-derived cache reads metrics
        self.metrics = RoundMetrics()
        self.metrics.attach_ambient_observers()
        if self._fault_state is not None:
            # repro-lint: waive[RL008] -- fault clock restart, documented above; independent of the outage cache
            self._fault_state = FaultState(self.faults)

    def fork_rng(self, label: str) -> RandomSource:
        """A child random source for one protocol phase (reproducible per label)."""
        # repro-lint: waive[RL005] -- the blessed forwarding wrapper; RL005 audits its call sites
        return self.rng.fork(label)

    # ------------------------------------------------------------- local mode
    @property
    def local_graph(self) -> WeightedGraph:
        """The graph the LOCAL mode computes on.

        Identical to :attr:`graph` unless the fault model declares local-edge
        outages, in which case it is the graph minus the outage edges
        (rebuilt lazily when the underlying graph mutates).  The global plane
        is unaffected -- NCC messages travel point to point by node ID.
        """
        if self.faults is None or not self.faults.edge_outages:
            return self.graph
        if self._outage_graph is None or self._outage_version != self.graph.version:
            survivor = WeightedGraph(self.n)
            outages = set(self.faults.edge_outages)
            for u, v, weight in self.graph.edges():
                if (min(u, v), max(u, v)) not in outages:
                    survivor.add_edge(u, v, weight)
            self._outage_graph = survivor
            self._outage_version = self.graph.version
        return self._outage_graph

    def hop_diameter(self) -> int:
        """The hop diameter ``D(G)``, with infinity clamped to ``n``.

        Delegates to the graph's own mutation-invalidated cache, so a session
        that mutates the graph between queries never charges local rounds
        against a stale diameter cap.  Under local-edge outages the diameter
        of the surviving graph applies (a disconnected survivor clamps to
        ``n``): the paper's ``min(D, ·)`` shortcut only holds for edges that
        actually carry messages.
        """
        diameter = self.local_graph.hop_diameter()
        return self.n if diameter == float("inf") else int(diameter)

    def charge_local_rounds(self, rounds: int, phase: str = "local") -> None:
        """Account for a local-mode phase of the given length.

        The caller is responsible for only using information that ``rounds``
        rounds of flooding could have delivered (i.e. the ``rounds``-hop
        neighbourhood of each node); see the module docstring.

        When ``cap_local_at_diameter`` is enabled (the default), the charge is
        capped at ``D(G)``: after ``D`` rounds of the unbounded local mode
        every node knows the entire graph state at the start of the phase, so
        no local phase ever needs more (the paper's "min(D, ·)" remark).
        """
        if self.config.cap_local_at_diameter:
            rounds = min(rounds, self.hop_diameter())
        self.metrics.charge_local(rounds, phase)

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

    def global_round(self, batch: MessageBatch, phase: str = "global") -> MessageBatch:
        """Execute exactly one round of the global (NCC) mode.

        Parameters
        ----------
        batch:
            The round's messages as parallel sender/target/payload columns.
            With ``strict_send`` (default) a node exceeding the send budget
            raises :class:`~repro.hybrid.errors.CapacityExceededError` -- a
            correct protocol never does.
        phase:
            Name under which the round is accounted.

        Returns
        -------
        MessageBatch
            The delivered messages.  With an active
            :class:`~repro.hybrid.faults.FaultModel`, messages it drops are
            excluded and tallied in ``metrics.global_dropped``.
        """
        # No traffic means no use of the global mode: an empty round charges
        # zero global rounds (regression tests in tests/test_message_plane.py,
        # next to the n=1 cases) and leaves the fault clock untouched.
        if len(batch) == 0:
            return MessageBatch.empty()
        keep = self._account_round(batch.senders, batch.targets, phase)
        if keep is None:
            return batch
        payloads = batch.payloads
        return MessageBatch(
            batch.senders[keep],
            batch.targets[keep],
            [payloads[i] for i in _np.flatnonzero(keep).tolist()],
        )

    def _account_round(self, senders, targets, phase: str):
        """Validate and account one global round given as sender/target arrays.

        Per-sender counts for the send-cap check, ``np.bincount`` receive
        accounting, and mask comparisons for cut crossings.

        Returns the boolean keep mask of the messages the fault model let
        through, or ``None`` when every message was delivered (in particular
        always ``None`` on the ideal fault-free path).  Sends -- message and
        bit totals, the send-cap check -- count all attempted messages;
        receives (inboxes, maxima, cumulative totals, cut crossings) only the
        delivered ones.
        """
        n = self.n
        count = int(senders.size)
        max_sent = 0
        max_received = 0
        keep = None
        dropped = 0
        # The fault clock ticks once per round, before any validation.
        fault_round = self._fault_state.next_round() if self._fault_state is not None else None
        if count:
            if int(senders.min()) < 0 or int(senders.max()) >= n:
                bad = senders[(senders < 0) | (senders >= n)][0]
                raise ValueError(f"sender {int(bad)} outside the network")
            if int(targets.min()) < 0 or int(targets.max()) >= n:
                bad = targets[(targets < 0) | (targets >= n)][0]
                raise ValueError(f"target {int(bad)} outside the network")
            sent_counts = _np.bincount(senders, minlength=n)
            max_sent = int(sent_counts.max())
            if max_sent > self.send_cap and self.config.strict_send:
                offender = int(sent_counts.argmax())
                raise CapacityExceededError(
                    f"node {offender} tried to send {max_sent} global messages in one "
                    f"round (cap {self.send_cap})"
                )
            delivered_targets = targets
            delivered_senders = senders
            if fault_round is not None:
                keep = self._fault_state.keep_mask(senders, targets, fault_round, n)
                if keep is not None:
                    delivered_senders = senders[keep]
                    delivered_targets = targets[keep]
                    dropped = count - int(delivered_targets.size)
            if delivered_targets.size:
                receive_counts = _np.bincount(delivered_targets, minlength=n)
                max_received = int(receive_counts.max())
                if max_received > self.receive_cap and self.config.strict_receive:
                    raise CapacityExceededError(
                        f"a node received {max_received} global messages in one round "
                        f"(cap {self.receive_cap})"
                    )
                # repro-lint: waive[RL008] -- monotone traffic counter, never derived from the graph
                self.received_totals += receive_counts
        self.metrics.charge_global(1, phase)
        self.metrics.record_global_traffic(
            messages=count,
            bits=count * self.config.message_bits,
            max_sent=max_sent,
            max_received=max_received,
            receive_cap=self.receive_cap,
        )
        if dropped:
            self.metrics.record_fault_losses(dropped=dropped)
        if count and delivered_targets.size:
            for name, mask in self._cut_watchers:
                crossings = int(
                    _np.count_nonzero(mask[delivered_senders] != mask[delivered_targets])
                )
                if crossings:
                    self.metrics.record_cut_bits(name, crossings * self.config.message_bits)
        return keep

    def run_global_exchange(
        self,
        batch: MessageBatch,
        phase: str = "global",
        receiver_limited: bool = True,
    ) -> tuple[MessageBatch, int]:
        """Deliver an arbitrary-size batch of global messages over several rounds.

        Each node sends its queued messages at most ``send_cap`` per round and,
        when ``receiver_limited`` (the default), each node also receives at
        most ``receive_cap`` messages per round -- excess messages simply wait
        in their sender's queue for a later round.  This models the NCC-mode
        bandwidth constraint on both endpoints and is the workhorse behind
        "send each of your tokens, Θ(log n) tokens at a time" style loops in
        the paper's pseudo-code.

        Senders are served in round-robin order: the ID-sorted sender list is
        rotated by one position each round, so a contested receive budget is
        shared fairly.  (A fixed ``sorted(queues)`` order would hand low-ID
        senders the whole budget every round and starve high-ID senders
        behind a saturated receiver; see the regression test in
        tests/test_hybrid_engine.py.)  Every round makes progress: the receive
        budget is rebuilt per round, so the first message scanned is always
        admissible -- the scheduler asserts this invariant rather than
        charging idle rounds.

        The pending messages are kept sorted by (sender, queue position) --
        sorted once up front and filtered in place afterwards, which
        preserves the order -- so each round's rotated scan order (senders
        rank ``offset`` and up, then the wrap-around) is a single array
        rotation at the offset sender's first message, and the active sender
        list falls out of the run boundaries.  The admissible batch is
        computed from send/receive budget arrays (:func:`_admit_scan`),
        accounted via ``np.bincount`` and removed; everything else waits.
        Payloads are only sliced once, at the end, by the accumulated
        delivery order.  Returns the delivered messages and the number of
        global rounds used.
        """
        if len(batch) == 0:
            return MessageBatch.empty(), 0
        order = _np.argsort(batch.senders, kind="stable")
        senders = batch.senders[order]
        targets = batch.targets[order]
        indices = order
        delivered_senders: list[object] = []
        delivered_targets: list[object] = []
        delivered_indices: list[object] = []
        send_cap = self.send_cap
        rounds = 0
        while senders.size:
            length = senders.size
            run_bounds = _np.empty(length, dtype=bool)
            run_bounds[0] = True
            _np.not_equal(senders[1:], senders[:-1], out=run_bounds[1:])
            run_starts = _np.flatnonzero(run_bounds)
            offset = rounds % run_starts.size
            split = int(run_starts[offset])
            positions = _np.arange(length)
            # The rotation moves the runs of senders ranked >= offset to the
            # front, which is an element-level rotation of the canonical
            # order at ``split`` -- expressed as a scan-rank array instead of
            # physically reordering the columns.
            scan_positions = positions - split
            scan_positions[scan_positions < 0] += length
            if receiver_limited:
                admitted = _admit_scan(
                    senders, targets, scan_positions, send_cap, self.receive_cap
                )
            else:
                admitted = (positions - _group_starts(senders)) < send_cap
            # Progress invariant: the first scanned message is always admitted.
            if not admitted.any():
                raise AssertionError("global exchange scheduler made no progress")
            admitted_at = _np.flatnonzero(admitted)
            # Deliveries are recorded in scan order.
            in_round = admitted_at[_np.argsort(scan_positions[admitted_at])]
            keep = self._account_round(senders[in_round], targets[in_round], phase)
            if keep is not None:
                # Fault-dropped messages consumed their sender's budget this
                # round but never arrived; they are simply not delivered (the
                # engine does not retry -- see run_reliable_exchange).
                in_round = in_round[keep]
            delivered_senders.append(senders[in_round])
            delivered_targets.append(targets[in_round])
            delivered_indices.append(indices[in_round])
            waiting = ~admitted
            senders = senders[waiting]
            targets = targets[waiting]
            indices = indices[waiting]
            rounds += 1
        payloads = batch.payloads
        delivery_order = _np.concatenate(delivered_indices)
        inbox = MessageBatch(
            _np.concatenate(delivered_senders),
            _np.concatenate(delivered_targets),
            [payloads[i] for i in delivery_order.tolist()],
        )
        return inbox, rounds

    def run_reliable_exchange(
        self,
        batch: MessageBatch,
        phase: str = "global",
        receiver_limited: bool = True,
    ) -> tuple[MessageBatch, int]:
        """Deliver *every* message of ``batch`` despite an unreliable network.

        Without active global faults this is exactly
        :meth:`run_global_exchange` -- same rounds, same phases, same metrics
        -- so loss-tolerant protocols cost nothing on the ideal model (the
        bit-identity tests pin this).  With faults, the exchange runs the
        acknowledged-retransmission scheme the paper's w.h.p. analyses
        license: after each delivery attempt every receiver returns one ACK
        per arrived message (ACKs cross the same lossy global plane), and
        senders re-send everything unacknowledged.  Each attempt succeeds
        per message with constant probability, so
        ``max_attempts = Θ(log n)`` amplifies delivery to w.h.p. -- the
        classic success-amplification argument.  Duplicates caused by lost
        ACKs are absorbed here (receivers deduplicate by message identity),
        so callers keep exactly-once semantics.

        Returns the delivered messages (in the order of ``batch``, which is
        what full delivery means) and the total global rounds consumed,
        ACK rounds included.  Raises
        :class:`~repro.hybrid.errors.FaultToleranceExceededError` if messages
        remain undelivered when the model's ``max_attempts`` budget runs out
        -- the injected faults beat the configured amplification, and a
        partial result must not masquerade as a correct one.
        """
        if self._fault_state is None:
            return self.run_global_exchange(batch, phase, receiver_limited)
        total = len(batch)
        if total == 0:
            return MessageBatch.empty(), 0
        senders = batch.senders
        targets = batch.targets
        payloads = batch.payloads
        pending = list(range(total))
        rounds = 0
        max_attempts = self.faults.max_attempts
        for attempt in range(max_attempts):
            if attempt:
                self.metrics.record_fault_losses(retried=len(pending))
            attempt_phase = phase if attempt == 0 else phase + ":retry"
            # Payloads ride with their original batch index so receivers can
            # acknowledge (and deduplicate) by message identity.
            sub_batch = MessageBatch(
                [int(senders[i]) for i in pending],
                [int(targets[i]) for i in pending],
                [(i, payloads[i]) for i in pending],
            )
            inbox, attempt_rounds = self.run_global_exchange(
                sub_batch, attempt_phase, receiver_limited
            )
            rounds += attempt_rounds
            arrived = [identity for identity, _ in inbox.payloads]
            acked: set = set()
            if arrived:
                # One ACK per arrival, back over the same faulty plane.
                ack_inbox, ack_rounds = self.run_global_exchange(
                    MessageBatch(inbox.targets, inbox.senders, arrived),
                    phase + ":ack",
                    receiver_limited,
                )
                rounds += ack_rounds
                acked = set(ack_inbox.payloads)
            if acked:
                pending = [i for i in pending if i not in acked]
            if not pending:
                break
        if pending:
            raise FaultToleranceExceededError(
                f"{len(pending)} of {total} messages undelivered after "
                f"{max_attempts} attempts in phase {phase!r}"
            )
        # Everything arrived (possibly more than once; duplicates are
        # dropped), so the delivered set is the original batch itself.
        return MessageBatch(senders, targets, list(payloads)), rounds

    # ------------------------------------------------------------- shortcuts
    def max_total_received(self) -> int:
        """Largest cumulative global receive count of any node over the run."""
        return int(max(self.received_totals)) if self.n else 0

    def local_ball(self, node: int, radius: int) -> list[int]:
        """The ``radius``-hop neighbourhood of ``node`` (no rounds charged).

        Computed on :attr:`local_graph`, so local-edge outages shrink the
        ball exactly as they would shrink real flooding.
        """
        return self.local_graph.ball(node, radius)

    def local_hop_limited_distances(self, node: int, hop_limit: int) -> dict[int, float]:
        """``d_h(node, ·)`` for the node's local exploration (no rounds charged).

        Callers must separately charge the exploration depth via
        :meth:`charge_local_rounds`; splitting the two keeps phase accounting
        explicit in the protocol code.  Computed on :attr:`local_graph`.
        """
        return self.local_graph.hop_limited_distances(node, hop_limit)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HybridNetwork(n={self.n}, m={self.graph.edge_count}, "
            f"send_cap={self.send_cap}, rounds={self.metrics.total_rounds})"
        )
