"""Asyncio query server over one shared :class:`HybridSession` (DESIGN.md §11).

Request lifecycle: **accept → batch window → coalesce → simulate → fan out**.
:meth:`QueryServer.submit` validates and admits a request, parks it in the
bounded queue and wakes the batcher task; the batcher sleeps one batch
window, drains the queue, plans coalesced groups
(:func:`repro.serving.batching.plan_batches`) and runs each group as a single
simulation pass on a one-thread executor -- the session itself additionally
serializes with its internal lock, so the event loop stays responsive while
at most one simulation runs at a time.  Results fan out to the per-request
futures, tagged with the size of the pass that served them.

Admission control: at most ``max_pending`` requests may be in flight
(``queue-full`` otherwise), each tenant may hold at most ``tenant_quota`` of
them (``tenant-quota``), and once :meth:`QueryServer.close` starts draining,
new requests get ``shutting-down`` while everything already admitted is still
answered.

Accounting: every group runs inside one ambient scope per distinct tenant in
the group (``RoundMetrics.scoped(label="tenant:<name>")``), so a tenant's
ledger shows the full cost of every pass it took part in -- shared passes are
charged to *each* participating tenant, which is the honest amortized view
(the pass would have run for any one of them alone).

Determinism: results are a function of the session configuration and each
query's parameters only -- never of how queries were batched (DESIGN.md §11
states the caveats).  Batch *composition* does depend on arrival timing;
tests pin it by enqueueing all requests before yielding to the event loop.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any

from repro.serving import protocol
from repro.serving.batching import plan_batches
from repro.serving.protocol import ProtocolError, Query
from repro.session import HybridSession


@dataclass(frozen=True)
class ServerConfig:
    """Tuning knobs of one :class:`QueryServer` (see the README runbook).

    Attributes
    ----------
    batch_window:
        Seconds the batcher waits after waking before draining the queue --
        the window in which concurrent queries can coalesce.  ``0`` drains
        immediately (useful in tests).
    max_pending:
        Bound on requests admitted but not yet answered; beyond it new
        requests are rejected with ``queue-full`` (DESIGN.md §11).
    tenant_quota:
        Per-tenant bound within ``max_pending``; ``None`` disables the quota.
    max_batch:
        Upper bound on one coalesced group (one simulation pass).
    coalesce:
        When False the server degenerates to one-query-per-pass -- the E16
        baseline mode.
    """

    batch_window: float = 0.005
    max_pending: int = 64
    tenant_quota: int | None = None
    max_batch: int = 32
    coalesce: bool = True

    def __post_init__(self) -> None:
        if self.batch_window < 0:
            raise ValueError("batch_window must be >= 0")
        if self.max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if self.tenant_quota is not None and self.tenant_quota < 1:
            raise ValueError("tenant_quota must be >= 1 (or None)")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")


@dataclass
class TenantAccount:
    """Running totals of one tenant's served queries (DESIGN.md §11).

    ``amortized_rounds`` / ``messages`` / ``bits`` accumulate the
    tenant-labelled scopes of every pass the tenant took part in.  (The
    fields deliberately avoid ``RoundMetrics`` counter names: this is a
    read-side ledger, not an accounting object, and RL004 polices the
    distinction.)
    """

    queries: int = 0
    amortized_rounds: int = 0
    messages: int = 0
    bits: int = 0
    rejected: int = 0

    def as_dict(self) -> dict[str, int]:
        """Flat dict view (used by responses, the demo and E16 artifacts)."""
        return {
            "queries": self.queries,
            "amortized_rounds": self.amortized_rounds,
            "messages": self.messages,
            "bits": self.bits,
            "rejected": self.rejected,
        }


@dataclass
class _Pending:
    """One admitted request waiting for its pass: the query and its future."""

    query: Query
    future: asyncio.Future


@dataclass
class ServerStats:
    """Aggregate counters of one server lifetime (read via ``stats``).

    ``passes`` counts simulation passes executed and ``coalesced_queries``
    the queries that shared one -- the observability hook for the batching
    win (DESIGN.md §11).
    """

    admitted: int = 0
    answered: int = 0
    rejected: int = 0
    passes: int = 0
    coalesced_queries: int = 0


class QueryServer:
    """Multi-tenant asyncio front end over one :class:`HybridSession`.

    Use as an async context manager (starts the batcher, drains on exit)::

        async with QueryServer(session, config) as server:
            response = await server.submit({"id": "r1", "op": "sssp", "source": 3})

    The full protocol, batching and admission semantics live in
    DESIGN.md §11; :func:`serve_tcp` exposes the same server over a socket.
    """

    def __init__(self, session: HybridSession, config: ServerConfig | None = None) -> None:
        self.session = session
        self.config = config or ServerConfig()
        self.stats = ServerStats()
        #: Per-tenant running totals, keyed by tenant name.
        self.tenants: dict[str, TenantAccount] = {}
        self._queue: list[_Pending] = []
        self._pending_by_tenant: dict[str, int] = {}
        self._pending_total = 0
        self._closing = False
        self._wakeup = asyncio.Event()
        self._batcher: asyncio.Task | None = None
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serving"
        )

    # --------------------------------------------------------------- lifecycle
    async def __aenter__(self) -> "QueryServer":
        self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    def start(self) -> None:
        """Start the batcher task (idempotent; implied by ``async with``)."""
        if self._batcher is None:
            self._batcher = asyncio.get_running_loop().create_task(self._run())

    async def close(self) -> None:
        """Drain gracefully: answer everything admitted, reject the rest.

        After this call returns every admitted request has been answered and
        the executor is shut down; further :meth:`submit` calls are rejected
        with ``shutting-down`` (DESIGN.md §11).
        """
        self._closing = True
        self._wakeup.set()
        if self._batcher is not None:
            await self._batcher
            self._batcher = None
        self._executor.shutdown(wait=True)

    # --------------------------------------------------------------- admission
    def _admit(self, query: Query) -> None:
        """Reserve queue room for ``query`` or raise the admission error."""
        if self._closing:
            raise ProtocolError("shutting-down", "server is draining")
        if self._pending_total >= self.config.max_pending:
            raise ProtocolError(
                "queue-full", f"in-flight queue at capacity ({self.config.max_pending})"
            )
        quota = self.config.tenant_quota
        held = self._pending_by_tenant.get(query.tenant, 0)
        if quota is not None and held >= quota:
            raise ProtocolError(
                "tenant-quota", f"tenant {query.tenant!r} at quota ({quota})"
            )
        self._pending_total += 1
        self._pending_by_tenant[query.tenant] = held + 1
        self.stats.admitted += 1

    def _release(self, query: Query) -> None:
        self._pending_total -= 1
        remaining = self._pending_by_tenant.get(query.tenant, 1) - 1
        if remaining <= 0:
            self._pending_by_tenant.pop(query.tenant, None)
        else:
            self._pending_by_tenant[query.tenant] = remaining

    def _account_rejection(self, tenant: str | None) -> None:
        self.stats.rejected += 1
        if tenant:
            self.tenants.setdefault(tenant, TenantAccount()).rejected += 1

    # ------------------------------------------------------------------ submit
    async def submit(self, raw: str | bytes | dict[str, Any]) -> dict[str, Any]:
        """Admit one request and await its response.

        Args:
            raw: A request line (JSON text/bytes) or a decoded request dict.

        Returns:
            The response dict -- :func:`repro.serving.protocol.ok_response`
            on success, :func:`~repro.serving.protocol.error_response` when
            parsing, admission or the simulation failed.  Never raises for
            request-level problems; the error rides in the response.
        """
        request_id = None
        if isinstance(raw, dict):
            candidate = raw.get("id")
            request_id = candidate if isinstance(candidate, str) else None
        try:
            query = protocol.parse_request(raw)
        except ProtocolError as exc:
            self._account_rejection(None)
            return protocol.error_response(request_id, exc.code, exc.message)
        try:
            self._admit(query)
        except ProtocolError as exc:
            self._account_rejection(query.tenant)
            return protocol.error_response(query.id, exc.code, exc.message)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._queue.append(_Pending(query, future))
        self._wakeup.set()
        try:
            return await future
        finally:
            self._release(query)

    # ---------------------------------------------------------------- mutation
    async def mutate(
        self, kind: str, u: int, v: int, weight: float | None = None
    ) -> dict[str, Any]:
        """Apply one graph mutation without dropping the warm session (§12).

        Args:
            kind: ``"add"``, ``"remove"`` or ``"update"`` (see
                :meth:`~repro.session.HybridSession.update_weight`).
            u, v: Edge endpoints.
            weight: New edge weight; required for ``add`` and ``update``.

        Returns:
            ``{"kind", "u", "v", "weight", "version"}`` with the graph
            version after the mutation.

        The mutation runs on the same one-thread executor as the simulation
        passes, so it strictly serializes with them: passes already running
        finish on the graph they started with, and every later pass sees the
        new version.  Nothing is recomputed here -- the session's delta log
        lets the next pass that touches a warm context repair it in place
        (or fall back to a cold rebuild), with the repair rounds charged
        inside that pass and therefore on the ledgers of the tenants it
        serves (DESIGN.md §12).
        """
        if self._closing:
            raise ProtocolError("shutting-down", "server is draining")
        if kind in ("add", "update") and weight is None:
            raise ProtocolError("bad-request", f"mutation {kind!r} requires a weight")

        def apply() -> int:
            if kind == "add":
                self.session.add_edge(u, v, weight)
            elif kind == "remove":
                self.session.remove_edge(u, v)
            elif kind == "update":
                self.session.update_weight(u, v, weight)
            else:
                raise ProtocolError("bad-request", f"unknown mutation kind {kind!r}")
            return self.session.graph.version

        version = await asyncio.get_running_loop().run_in_executor(
            self._executor, apply
        )
        return {"kind": kind, "u": u, "v": v, "weight": weight, "version": version}

    # ----------------------------------------------------------------- batcher
    async def _run(self) -> None:
        while True:
            if not self._queue:
                if self._closing:
                    return
                await self._wakeup.wait()
                self._wakeup.clear()
                continue
            if self.config.batch_window > 0 and not self._closing:
                await asyncio.sleep(self.config.batch_window)
            drained, self._queue = self._queue, []
            queries = [pending.query for pending in drained]
            plan = plan_batches(
                queries, self.config.max_batch, coalesce=self.config.coalesce
            )
            loop = asyncio.get_running_loop()
            for group in plan:
                members = [drained[index] for index in group]
                try:
                    results = await loop.run_in_executor(
                        self._executor, self._execute_group, [m.query for m in members]
                    )
                except Exception as exc:  # noqa: BLE001 - becomes a wire error
                    for member in members:
                        if not member.future.done():
                            member.future.set_result(
                                protocol.error_response(
                                    member.query.id, "internal", str(exc)
                                )
                            )
                    continue
                self.stats.passes += 1
                if len(members) > 1:
                    self.stats.coalesced_queries += len(members)
                for member, result in zip(members, results):
                    self.stats.answered += 1
                    if not member.future.done():
                        member.future.set_result(
                            protocol.ok_response(member.query, result, len(members))
                        )

    # --------------------------------------------------------------- execution
    def _execute_group(self, group: list[Query]) -> list[dict[str, Any]]:
        """Run one coalesced group as a single pass (executor thread).

        Opens one tenant-labelled metrics scope per distinct tenant in the
        group, runs the group's operation once, and returns one encoded
        result per query, aligned with ``group`` order.
        """
        tenants = sorted({query.tenant for query in group})
        with contextlib.ExitStack() as stack:
            scopes = {
                tenant: stack.enter_context(
                    self.session.metrics.scoped(label=f"tenant:{tenant}")
                )
                for tenant in tenants
            }
            results = self._simulate(group)
        for query in group:
            account = self.tenants.setdefault(query.tenant, TenantAccount())
            account.queries += 1
        for tenant in tenants:
            scope = scopes[tenant]
            account = self.tenants[tenant]
            account.amortized_rounds += scope.total_rounds
            account.messages += scope.global_messages
            account.bits += scope.global_bits
        return results

    def _simulate(self, group: list[Query]) -> list[dict[str, Any]]:
        """Dispatch one group to the session; one encoded result per query."""
        op = group[0].op
        n = self.session.network.n
        if op == "sssp":
            sources = [query.params["source"] for query in group]
            batch = self.session.sssp_batch(sources)
            # Answers live at the top level; pass-dependent cost metadata is
            # nested under "cost" so clients (and the E16 identity check) can
            # compare answers across batching modes (DESIGN.md §11).
            return [
                {
                    "source": result.source,
                    "distances": protocol.encode_distances(result.distances.values()),
                    "cost": {
                        "rounds": result.rounds,
                        "skeleton_size": result.skeleton_size,
                    },
                }
                for result in batch
            ]
        if op == "apsp":
            probability = group[0].params.get("probability")
            result = self.session.apsp(probability=probability)
            encoded: dict[str, Any] = {
                "n": n,
                "checksum": protocol.matrix_checksum(result.matrix),
                "cost": {"rounds": result.rounds, "skeleton_size": result.skeleton_size},
            }
            out = []
            for query in group:
                entry = dict(encoded)
                if query.params.get("include_matrix"):
                    entry["matrix"] = [protocol.encode_distances(row) for row in result.matrix]
                out.append(entry)
            return out
        if op == "diameter":
            result = self.session.diameter()
            return [
                {
                    "estimate": result.estimate,
                    "used_local_estimate": result.used_local_estimate,
                    "cost": {"rounds": result.rounds},
                }
            ] * len(group)
        if op == "shortest-paths":
            sources = list(group[0].params["sources"])
            result = self.session.shortest_paths(sources)
            columns = result.estimates.T.tolist()
            encoded_sp = {
                "sources": sources,
                "distances": {
                    str(source): protocol.encode_distances(column)
                    for source, column in zip(result.sources, columns, strict=True)
                },
                "cost": {"rounds": result.rounds},
            }
            return [encoded_sp] * len(group)
        if op == "route-tokens":
            assert len(group) == 1, "route-tokens never coalesces"
            tokens = protocol.build_tokens(group[0])
            result = self.session.route_tokens(tokens)
            delivered = {
                str(receiver): sorted(
                    (token.sender, token.payload) for token in received
                )
                for receiver, received in sorted(result.delivered.items())
            }
            return [
                {
                    "delivered": delivered,
                    "token_count": result.token_count,
                    "cost": {"rounds": result.rounds},
                }
            ]
        raise ProtocolError("bad-request", f"unknown op {op!r}")

    # ------------------------------------------------------------- observation
    def tenant_summary(self) -> dict[str, dict[str, int]]:
        """Per-tenant totals in sorted tenant order (demo + E16 artifacts)."""
        return {tenant: self.tenants[tenant].as_dict() for tenant in sorted(self.tenants)}


async def serve_tcp(
    server: QueryServer, host: str = "127.0.0.1", port: int = 0
) -> asyncio.AbstractServer:
    """Expose ``server`` over TCP with the line-delimited JSON protocol.

    Args:
        server: A started :class:`QueryServer` (its lifecycle stays with the
            caller; closing the TCP listener does not drain it).
        host: Bind address.
        port: Bind port; ``0`` picks a free one (read it back from
            ``sockets[0].getsockname()``).

    Returns:
        The listening :class:`asyncio.AbstractServer`.
    """

    async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        # Requests pipeline: each line is submitted as its own task so queries
        # sent back to back on one connection land in the same batch window
        # and can coalesce.  Responses are written as they complete (possibly
        # out of request order -- clients match on "id"), serialized by a
        # per-connection lock.
        write_lock = asyncio.Lock()
        tasks: list[asyncio.Task] = []

        async def answer(raw: bytes) -> None:
            response = await server.submit(raw)
            async with write_lock:
                writer.write((protocol.dumps(response) + "\n").encode())
                await writer.drain()

        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                stripped = line.strip()
                if not stripped:
                    continue
                tasks.append(asyncio.get_running_loop().create_task(answer(stripped)))
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        finally:
            for task in tasks:
                task.cancel()
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    return await asyncio.start_server(handle, host=host, port=port)


async def query_tcp(host: str, port: int, requests: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Minimal client: send ``requests`` over one connection, gather replies.

    Used by ``repro.cli client`` and the tests; sends every line before
    reading any response so the server can coalesce the whole batch.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        payload = "".join(
            json.dumps(request, separators=(",", ":")) + "\n" for request in requests
        )
        writer.write(payload.encode())
        await writer.drain()
        responses = []
        for _ in requests:
            line = await reader.readline()
            if not line:
                break
            responses.append(json.loads(line))
        return responses
    finally:
        writer.close()
        with contextlib.suppress(Exception):
            await writer.wait_closed()
