"""Line-delimited JSON wire protocol of the serving layer (DESIGN.md §11).

One request per line, one response per line.  A request names an operation
(``sssp`` / ``apsp`` / ``diameter`` / ``shortest-paths`` / ``route-tokens``),
a tenant, and the operation's parameters; the server answers with either an
``ok`` response carrying the encoded result plus the batch it was served in,
or an error response with a machine-readable code:

==============  ============================================================
bad-request     the request line failed to parse or validate
queue-full      the server's bounded in-flight queue is at capacity
tenant-quota    the tenant's per-tenant pending quota is exhausted
shutting-down   the server is draining and accepts no new work
internal        the simulation raised (message carries the exception)
==============  ============================================================

Request/response examples live in the README's Serving runbook.  Distances
are encoded as dense lists with ``null`` for unreachable (``inf``) entries,
so responses stay valid JSON; APSP matrices are summarized by a CRC-32
checksum of their float64 bytes (the full ``n × n`` matrix rides along only
on request; :func:`matrix_checksum` says how to recompute it).
"""

from __future__ import annotations

import json
import zlib
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Any

import numpy as _np

from repro.core.token_routing import RoutingToken
from repro.graphs.graph import INFINITY

#: Operations the server understands, in canonical (sorted) order.
OPERATIONS = ("apsp", "diameter", "route-tokens", "shortest-paths", "sssp")

#: Error codes a response may carry (see the module docstring's table).
ERROR_CODES = ("bad-request", "queue-full", "tenant-quota", "shutting-down", "internal")


class ProtocolError(Exception):
    """A request that cannot be served, with its wire-level error code.

    ``code`` is one of :data:`ERROR_CODES`; the server turns the exception
    into an :func:`error_response` line (DESIGN.md §11).
    """

    def __init__(self, code: str, message: str) -> None:
        if code not in ERROR_CODES:
            raise ValueError(f"unknown protocol error code {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message


@dataclass(frozen=True)
class Query:
    """One validated request: operation, tenant, and canonical parameters.

    Instances are produced by :func:`parse_request` and consumed by the
    batching planner (:mod:`repro.serving.batching`); ``params`` holds only
    JSON-representable canonical values (DESIGN.md §11).
    """

    id: str
    tenant: str
    op: str
    params: dict[str, Any] = field(default_factory=dict)


def _require_int(value: Any, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError("bad-request", f"{what} must be an integer, got {value!r}")
    return value


def parse_request(raw: str | bytes | dict[str, Any]) -> Query:
    """Parse and validate one request line into a :class:`Query`.

    Args:
        raw: The request -- a JSON text line, raw bytes, or an already
            decoded dict (the in-process path of :mod:`repro.serving.server`).

    Returns:
        The validated :class:`Query` with canonicalized parameters
        (``sources`` sorted and deduplicated, tokens as tuples).

    Raises:
        ProtocolError: with code ``bad-request`` on malformed JSON, unknown
            operations, or invalid parameters (DESIGN.md §11).
    """
    if isinstance(raw, bytes):
        raw = raw.decode("utf-8", errors="replace")
    if isinstance(raw, str):
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ProtocolError("bad-request", f"invalid JSON: {exc}") from exc
    else:
        payload = raw
    if not isinstance(payload, dict):
        raise ProtocolError("bad-request", "request must be a JSON object")
    op = payload.get("op")
    if op not in OPERATIONS:
        raise ProtocolError(
            "bad-request", f"unknown op {op!r}; expected one of {', '.join(OPERATIONS)}"
        )
    request_id = payload.get("id")
    if not isinstance(request_id, str) or not request_id:
        raise ProtocolError("bad-request", "request needs a non-empty string 'id'")
    tenant = payload.get("tenant", "default")
    if not isinstance(tenant, str) or not tenant:
        raise ProtocolError("bad-request", "'tenant' must be a non-empty string")

    params: dict[str, Any] = {}
    if op == "sssp":
        params["source"] = _require_int(payload.get("source"), "'source'")
    elif op == "apsp":
        probability = payload.get("probability")
        if probability is not None:
            if not isinstance(probability, (int, float)) or not 0 < probability <= 1:
                raise ProtocolError("bad-request", "'probability' must be in (0, 1]")
            params["probability"] = float(probability)
        params["include_matrix"] = bool(payload.get("include_matrix", False))
    elif op == "shortest-paths":
        sources = payload.get("sources")
        if not isinstance(sources, list) or not sources:
            raise ProtocolError("bad-request", "'sources' must be a non-empty list")
        params["sources"] = tuple(
            sorted({_require_int(source, "each source") for source in sources})
        )
    elif op == "route-tokens":
        tokens = payload.get("tokens")
        if not isinstance(tokens, list):
            raise ProtocolError("bad-request", "'tokens' must be a list")
        canonical: list[tuple[int, int, str]] = []
        for entry in tokens:
            if not isinstance(entry, (list, tuple)) or len(entry) != 3:
                raise ProtocolError(
                    "bad-request", "each token must be [sender, receiver, payload]"
                )
            sender, receiver, token_payload = entry
            canonical.append(
                (
                    _require_int(sender, "token sender"),
                    _require_int(receiver, "token receiver"),
                    str(token_payload),
                )
            )
        params["tokens"] = tuple(canonical)
    # "diameter" takes no parameters.
    return Query(id=request_id, tenant=tenant, op=op, params=params)


def build_tokens(query: Query) -> list[RoutingToken]:
    """Materialize a ``route-tokens`` query's :class:`RoutingToken` batch."""
    return [
        RoutingToken(sender=sender, receiver=receiver, index=index, payload=payload)
        for index, (sender, receiver, payload) in enumerate(query.params["tokens"])
    ]


def encode_distances(row: Iterable[float]) -> list[float | None]:
    """One dense distance row as a JSON-safe list: ``None`` marks unreachable nodes."""
    return [None if value == INFINITY else float(value) for value in row]


def matrix_checksum(matrix: Any) -> str:
    """CRC-32 of an APSP matrix's little-endian float64 bytes, row-major.

    A client recomputes it from an ``include_matrix`` reply by mapping each
    ``null`` back to ``inf`` and hashing the row-major float64 bytes, e.g.
    ``zlib.crc32(np.array(rows, dtype="<f8").tobytes())`` after the
    substitution; it is 8 lowercase hex digits.
    """
    digest = zlib.crc32(_np.ascontiguousarray(matrix, dtype="<f8").tobytes())
    return f"{digest:08x}"


def ok_response(query: Query, result: dict[str, Any], batch_size: int) -> dict[str, Any]:
    """Build a success response for ``query`` (see DESIGN.md §11).

    ``batch_size`` is the number of queries the serving pass answered
    together -- 1 when the query ran alone, larger when it was coalesced.
    """
    return {
        "id": query.id,
        "ok": True,
        "op": query.op,
        "tenant": query.tenant,
        "result": result,
        "batch_size": batch_size,
    }


def error_response(
    request_id: str | None, code: str, message: str
) -> dict[str, Any]:
    """Build an error response line (codes in :data:`ERROR_CODES`)."""
    if code not in ERROR_CODES:
        raise ValueError(f"unknown protocol error code {code!r}")
    return {"id": request_id, "ok": False, "error": {"code": code, "message": message}}


def dumps(response: dict[str, Any]) -> str:
    """Serialize one response to its wire line (compact, sorted keys)."""
    return json.dumps(response, separators=(",", ":"), sort_keys=True)
