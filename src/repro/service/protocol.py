"""The wire protocol: newline-delimited JSON requests and responses.

One request per line, one response per line, UTF-8.  A request is::

    {"id": 7, "op": "query", "s": 3, "t": 42, "k": 6, "deadline_ms": 250}

and the matching response either succeeds::

    {"id": 7, "ok": true, "result": {"paths": [[3, 9, 42]], "count": 1}}

or fails with a structured error (never a closed socket mid-request)::

    {"id": 7, "ok": false,
     "error": {"code": "overloaded", "message": "...", "retry_after_ms": 50}}

Operations
----------

========== ============================================= ====================
op          request fields                               result fields
========== ============================================= ====================
query       ``s``, ``t``, ``k``                          ``paths``, ``count``,
                                                         ``source``
batch_query ``queries`` (list of ``[s, t, k]``)          ``results`` (one
                                                         ``query``-shaped
                                                         object per member,
                                                         in order)
watch       ``s``, ``t``, optional ``k``                 ``paths``, ``count``
unwatch     ``s``, ``t``                                 ``removed``
update      ``u``, ``v``, ``insert``                     ``changed``, ``pairs``
batch_update ``updates`` (list of ``[u, v, insert]``)    ``received``,
                                                         ``applied``,
                                                         ``cancelled``,
                                                         ``pairs``
stats       —                                            server/engine counters
metrics     optional ``format``                          ``format``,
            (``"json"``/``"prometheus"``)                ``enabled``,
                                                         ``metrics``/``text``
explain     ``s``, ``t``, ``k``, optional ``analyze``    ``explain`` (the
                                                         ``repro-explain/1``
                                                         report object)
events      optional ``limit``                           ``enabled``, ``count``,
                                                         ``total_emitted``,
                                                         ``events``
trace       optional ``clear``                           ``enabled``,
                                                         ``trace`` (a Chrome
                                                         trace object)
history     —                                            ``enabled``,
                                                         ``history`` (the
                                                         time-series ring
                                                         snapshot)
flight      optional ``reason``                          ``enabled``,
                                                         ``bundle`` (a
                                                         ``repro-flight/1``
                                                         object)
========== ============================================= ====================

Every request may carry ``deadline_ms``, a per-request latency budget
relative to server receipt; a request still queued when its budget runs
out fails with ``deadline_exceeded``.  A ``batch_query``'s budget covers
the whole batch; for per-member deadlines, send individual ``query``
requests.  Every request may also carry
``corr_id`` (a string): the correlation ID stamped onto every
:mod:`repro.obs.events` event the request causes.  When absent, the
server mints one per request while the event log is enabled.  Vertices
must be JSON scalars (``int`` or ``str``) — the same constraint as
:mod:`repro.core.serialize`.

Paths travel as JSON lists of vertices and are converted back to the
package-wide tuple representation by :func:`decode_paths`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.core.paths import Path

# ---------------------------------------------------------------------------
# Error codes
# ---------------------------------------------------------------------------

BAD_REQUEST = "bad_request"
UNKNOWN_OP = "unknown_op"
NOT_FOUND = "not_found"
ALREADY_WATCHED = "already_watched"
OVERLOADED = "overloaded"
DEADLINE_EXCEEDED = "deadline_exceeded"
SHUTTING_DOWN = "shutting_down"
INTERNAL = "internal"

ERROR_CODES = frozenset({
    BAD_REQUEST,
    UNKNOWN_OP,
    NOT_FOUND,
    ALREADY_WATCHED,
    OVERLOADED,
    DEADLINE_EXCEEDED,
    SHUTTING_DOWN,
    INTERNAL,
})

OPS = (
    "query",
    "batch_query",
    "watch",
    "unwatch",
    "update",
    "batch_update",
    "stats",
    "metrics",
    "explain",
    "events",
    "trace",
    "history",
    "flight",
)

_REQUIRED_FIELDS = {
    "query": ("s", "t", "k"),
    "batch_query": ("queries",),
    "watch": ("s", "t"),
    "unwatch": ("s", "t"),
    "update": ("u", "v", "insert"),
    "batch_update": ("updates",),
    "stats": (),
    "metrics": (),
    "explain": ("s", "t", "k"),
    "events": (),
    "trace": (),
    "history": (),
    "flight": (),
}


class ServiceError(Exception):
    """A structured protocol error; maps 1:1 to the wire ``error`` object."""

    code = INTERNAL

    def __init__(
        self, message: str, retry_after_ms: Optional[int] = None
    ) -> None:
        super().__init__(message)
        self.message = message
        self.retry_after_ms = retry_after_ms

    def to_wire(self) -> Dict[str, Any]:
        """The JSON ``error`` object for this exception."""
        error: Dict[str, Any] = {"code": self.code, "message": self.message}
        if self.retry_after_ms is not None:
            error["retry_after_ms"] = self.retry_after_ms
        return error


class BadRequestError(ServiceError):
    code = BAD_REQUEST


class UnknownOpError(ServiceError):
    code = UNKNOWN_OP


class NotFoundError(ServiceError):
    code = NOT_FOUND


class AlreadyWatchedError(ServiceError):
    code = ALREADY_WATCHED


class OverloadedError(ServiceError):
    code = OVERLOADED


class DeadlineExceededError(ServiceError):
    code = DEADLINE_EXCEEDED


class ShuttingDownError(ServiceError):
    code = SHUTTING_DOWN


class InternalError(ServiceError):
    code = INTERNAL


_ERROR_CLASSES = {
    cls.code: cls
    for cls in (
        BadRequestError,
        UnknownOpError,
        NotFoundError,
        AlreadyWatchedError,
        OverloadedError,
        DeadlineExceededError,
        ShuttingDownError,
        InternalError,
    )
}


def error_from_wire(error: Dict[str, Any]) -> ServiceError:
    """Rehydrate the matching :class:`ServiceError` from a wire object."""
    cls = _ERROR_CLASSES.get(error.get("code"), InternalError)
    return cls(
        str(error.get("message", "")),
        retry_after_ms=error.get("retry_after_ms"),
    )


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------

RequestId = Union[int, str, None]
Wire = Union[str, bytes]


@dataclass
class Request:
    """One decoded request line."""

    id: RequestId
    op: str
    args: Dict[str, Any] = field(default_factory=dict)
    deadline_ms: Optional[float] = None
    corr_id: Optional[str] = None

    def to_wire(self) -> str:
        """This request as one JSON line (without the newline)."""
        payload: Dict[str, Any] = {"id": self.id, "op": self.op}
        payload.update(self.args)
        if self.deadline_ms is not None:
            payload["deadline_ms"] = self.deadline_ms
        if self.corr_id is not None:
            payload["corr_id"] = self.corr_id
        return json.dumps(payload, separators=(",", ":"))


def _check_vertex(value: Any, name: str) -> Any:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise BadRequestError(
            f"field {name!r} must be an int or str vertex, got {value!r}"
        )
    return value


def _check_updates(raw: Any) -> List[Tuple[Any, Any, bool]]:
    if not isinstance(raw, list):
        raise BadRequestError("field 'updates' must be a list of [u, v, insert]")
    updates = []
    for i, item in enumerate(raw):
        if not (isinstance(item, (list, tuple)) and len(item) == 3):
            raise BadRequestError(
                f"updates[{i}] must be a [u, v, insert] triple, got {item!r}"
            )
        u, v, insert = item
        if not isinstance(insert, bool):
            raise BadRequestError(f"updates[{i}][2] must be a boolean")
        updates.append(
            (_check_vertex(u, f"updates[{i}][0]"),
             _check_vertex(v, f"updates[{i}][1]"),
             insert)
        )
    return updates


def _check_queries(raw: Any) -> List[Tuple[Any, Any, int]]:
    if not isinstance(raw, list) or not raw:
        raise BadRequestError(
            "field 'queries' must be a non-empty list of [s, t, k]"
        )
    queries = []
    for i, item in enumerate(raw):
        if not (isinstance(item, (list, tuple)) and len(item) == 3):
            raise BadRequestError(
                f"queries[{i}] must be an [s, t, k] triple, got {item!r}"
            )
        s, t, k = item
        if isinstance(k, bool) or not isinstance(k, int) or k < 0:
            raise BadRequestError(
                f"queries[{i}][2] must be a non-negative integer k"
            )
        queries.append(
            (_check_vertex(s, f"queries[{i}][0]"),
             _check_vertex(t, f"queries[{i}][1]"),
             k)
        )
    return queries


def decode_request(line: Wire) -> Request:
    """Parse and validate one request line.

    Raises :class:`BadRequestError` on malformed JSON or missing/invalid
    fields, and :class:`UnknownOpError` for an unrecognized ``op`` — so
    the server can always answer with a structured error.
    """
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        payload = json.loads(line)
    except ValueError as exc:
        raise BadRequestError(f"malformed JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise BadRequestError("request must be a JSON object")
    request_id = payload.get("id")
    if request_id is not None and not isinstance(request_id, (int, str)):
        raise BadRequestError("field 'id' must be an int, str, or absent")
    op = payload.get("op")
    if not isinstance(op, str):
        raise BadRequestError("field 'op' is required and must be a string")
    if op not in OPS:
        raise UnknownOpError(f"unknown op {op!r}; known: {', '.join(OPS)}")
    missing = [f for f in _REQUIRED_FIELDS[op] if f not in payload]
    if missing:
        raise BadRequestError(f"op {op!r} missing field(s): {', '.join(missing)}")

    args: Dict[str, Any] = {}
    if op in ("query", "watch", "unwatch", "explain"):
        args["s"] = _check_vertex(payload["s"], "s")
        args["t"] = _check_vertex(payload["t"], "t")
    if op in ("query", "explain") or (op == "watch" and "k" in payload):
        k = payload["k"]
        if isinstance(k, bool) or not isinstance(k, int) or k < 0:
            raise BadRequestError("field 'k' must be a non-negative integer")
        args["k"] = k
    if op == "explain" and "analyze" in payload:
        if not isinstance(payload["analyze"], bool):
            raise BadRequestError("field 'analyze' must be a boolean")
        args["analyze"] = payload["analyze"]
    if op == "events" and "limit" in payload:
        limit = payload["limit"]
        if isinstance(limit, bool) or not isinstance(limit, int) or limit < 0:
            raise BadRequestError(
                "field 'limit' must be a non-negative integer"
            )
        args["limit"] = limit
    if op == "update":
        args["u"] = _check_vertex(payload["u"], "u")
        args["v"] = _check_vertex(payload["v"], "v")
        if not isinstance(payload["insert"], bool):
            raise BadRequestError("field 'insert' must be a boolean")
        args["insert"] = payload["insert"]
    if op == "batch_update":
        args["updates"] = _check_updates(payload["updates"])
    if op == "batch_query":
        args["queries"] = _check_queries(payload["queries"])
    if op == "metrics" and "format" in payload:
        fmt = payload["format"]
        if fmt not in ("json", "prometheus"):
            raise BadRequestError(
                "field 'format' must be 'json' or 'prometheus', "
                f"got {fmt!r}"
            )
        args["format"] = fmt
    if op == "trace" and "clear" in payload:
        if not isinstance(payload["clear"], bool):
            raise BadRequestError("field 'clear' must be a boolean")
        args["clear"] = payload["clear"]
    if op == "flight" and "reason" in payload:
        reason = payload["reason"]
        if not isinstance(reason, str) or not reason:
            raise BadRequestError(
                "field 'reason' must be a non-empty string"
            )
        args["reason"] = reason

    deadline_ms = payload.get("deadline_ms")
    if deadline_ms is not None:
        if isinstance(deadline_ms, bool) or not isinstance(
            deadline_ms, (int, float)
        ) or deadline_ms < 0:
            raise BadRequestError(
                "field 'deadline_ms' must be a non-negative number"
            )
    corr_id = payload.get("corr_id")
    if corr_id is not None and not isinstance(corr_id, str):
        raise BadRequestError("field 'corr_id' must be a string or absent")
    return Request(request_id, op, args, deadline_ms, corr_id)


# ---------------------------------------------------------------------------
# Responses
# ---------------------------------------------------------------------------


@dataclass
class Response:
    """One decoded response line."""

    id: RequestId
    ok: bool
    result: Optional[Dict[str, Any]] = None
    error: Optional[Dict[str, Any]] = None

    def to_wire(self) -> str:
        """This response as one JSON line (without the newline)."""
        payload: Dict[str, Any] = {"id": self.id, "ok": self.ok}
        if self.ok:
            payload["result"] = self.result if self.result is not None else {}
        else:
            payload["error"] = self.error if self.error is not None else {}
        return json.dumps(payload, separators=(",", ":"))

    def raise_for_error(self) -> "Response":
        """Raise the matching :class:`ServiceError` if ``not ok``."""
        if not self.ok:
            raise error_from_wire(self.error or {})
        return self


def ok_response(request_id: RequestId, result: Dict[str, Any]) -> Response:
    """A success response."""
    return Response(request_id, True, result=result)


def error_response(request_id: RequestId, error: ServiceError) -> Response:
    """A failure response carrying a structured error."""
    return Response(request_id, False, error=error.to_wire())


def decode_response(line: Wire) -> Response:
    """Parse one response line (client side)."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        payload = json.loads(line)
    except ValueError as exc:
        raise ValueError(f"malformed response JSON: {exc}") from exc
    if not isinstance(payload, dict) or "ok" not in payload:
        raise ValueError(f"not a protocol response: {line!r}")
    return Response(
        payload.get("id"),
        bool(payload["ok"]),
        result=payload.get("result"),
        error=payload.get("error"),
    )


# ---------------------------------------------------------------------------
# Path conversion
# ---------------------------------------------------------------------------


def encode_paths(paths: Iterable[Path]) -> List[List[Any]]:
    """Paths as JSON-representable lists of vertices."""
    return [list(path) for path in paths]


def decode_paths(raw: Iterable[Iterable[Any]]) -> List[Path]:
    """The inverse of :func:`encode_paths`."""
    return [tuple(path) for path in raw]


__all__ = [
    "BAD_REQUEST",
    "UNKNOWN_OP",
    "NOT_FOUND",
    "ALREADY_WATCHED",
    "OVERLOADED",
    "DEADLINE_EXCEEDED",
    "SHUTTING_DOWN",
    "INTERNAL",
    "ERROR_CODES",
    "OPS",
    "ServiceError",
    "BadRequestError",
    "UnknownOpError",
    "NotFoundError",
    "AlreadyWatchedError",
    "OverloadedError",
    "DeadlineExceededError",
    "ShuttingDownError",
    "InternalError",
    "error_from_wire",
    "RequestId",
    "Wire",
    "Request",
    "decode_request",
    "Response",
    "ok_response",
    "error_response",
    "decode_response",
    "encode_paths",
    "decode_paths",
]
