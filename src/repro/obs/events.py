"""Structured event log: a bounded ring buffer of typed JSON events.

Metrics (:mod:`repro.obs.metrics`) aggregate; events narrate.  Each
:class:`Event` is one thing that happened — a query admitted, started,
or finished, an update applied, a cache hit or eviction, a deadline
blown — stamped with a wall-clock timestamp, a monotonically increasing
sequence number, and the **correlation ID** of the request that caused
it.  The correlation ID is carried in a :class:`~contextvars.ContextVar`
so it propagates from the asyncio server coroutine into the
``asyncio.to_thread`` worker that runs the engine without any explicit
plumbing through call signatures.

The log follows the same cost contract as the rest of ``repro.obs``:
it is off by default (``REPRO_OBS_EVENTS=1`` or :func:`set_enabled`
turns it on), and while disabled :func:`emit` is one boolean check.
While enabled, emitting appends to a fixed-capacity
:class:`collections.deque`, so a long-running server never grows its
event memory without bound; ``dropped`` on the snapshot says how many
events fell off the front.

Event kinds are dotted lowercase strings (``query.finished``,
``cache.evict``); the catalogue and per-kind field schema live in
docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import os
import threading
import time
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: Default bound on retained events.
DEFAULT_CAPACITY = 1024

# Event kinds.  Emitters should use these constants rather than string
# literals so the catalogue in docs/OBSERVABILITY.md stays greppable.
QUERY_ADMITTED = "query.admitted"
QUERY_STARTED = "query.started"
QUERY_FINISHED = "query.finished"
UPDATE_APPLIED = "update.applied"
CACHE_HIT = "cache.hit"
CACHE_MISS = "cache.miss"
CACHE_EVICT = "cache.evict"
CACHE_INVALIDATE = "cache.invalidate"
CACHE_CLEAR = "cache.clear"
DEADLINE_EXCEEDED = "deadline.exceeded"
REQUEST_REJECTED = "request.rejected"
FLIGHT_DUMPED = "flight.dumped"

#: Every kind the service layer emits (the schema table's source of truth).
EVENT_KINDS = (
    QUERY_ADMITTED,
    QUERY_STARTED,
    QUERY_FINISHED,
    UPDATE_APPLIED,
    CACHE_HIT,
    CACHE_MISS,
    CACHE_EVICT,
    CACHE_INVALIDATE,
    CACHE_CLEAR,
    DEADLINE_EXCEEDED,
    REQUEST_REJECTED,
    FLIGHT_DUMPED,
)


@dataclass(frozen=True)
class Event:
    """One recorded occurrence, JSON-ready via :meth:`as_dict`."""

    seq: int
    ts: float
    kind: str
    corr_id: Optional[str] = None
    fields: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """The event as a plain dict (the wire/export shape)."""
        out: Dict[str, Any] = {"seq": self.seq, "ts": self.ts, "kind": self.kind}
        if self.corr_id is not None:
            out["corr_id"] = self.corr_id
        if self.fields:
            out.update(self.fields)
        return out


class EventLog:
    """A thread-safe bounded ring buffer of :class:`Event` records."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("event log must hold at least one event")
        self._lock = threading.Lock()
        self._capacity = capacity
        self._events: List[Event] = []
        self._start = 0  # ring cursor: index of the oldest retained event
        self._seq = 0

    @property
    def capacity(self) -> int:
        """The fixed bound on retained events."""
        return self._capacity

    @property
    def total_emitted(self) -> int:
        """Events ever emitted, including those that fell off the ring."""
        return self._seq

    def __len__(self) -> int:
        return len(self._events)

    def emit(self, kind: str, corr_id: Optional[str] = None,
             **fields: Any) -> Event:
        """Append one event; returns the recorded :class:`Event`.

        ``corr_id`` defaults to the ambient correlation ID (see
        :func:`correlation_id`) so emitters inside a request context
        never have to pass it explicitly.
        """
        if corr_id is None:
            corr_id = _CORRELATION.get()
        with self._lock:
            event = Event(self._seq, time.time(), kind, corr_id, dict(fields))
            self._seq += 1
            if len(self._events) < self._capacity:
                self._events.append(event)
            else:
                self._events[self._start] = event
                self._start = (self._start + 1) % self._capacity
            return event

    def tail(self, n: int) -> List[Event]:
        """The most recent ``n`` events, oldest first."""
        if n < 0:
            raise ValueError("tail length must be non-negative")
        with self._lock:
            ordered = (
                self._events[self._start:] + self._events[:self._start]
            )
        return ordered[-n:] if n else []

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready state: capacity, totals, and retained events."""
        with self._lock:
            ordered = (
                self._events[self._start:] + self._events[:self._start]
            )
            total = self._seq
        return {
            "capacity": self._capacity,
            "total_emitted": total,
            "dropped": total - len(ordered),
            "events": [event.as_dict() for event in ordered],
        }

    def clear(self) -> None:
        """Drop every retained event and reset the sequence counter."""
        with self._lock:
            self._events.clear()
            self._start = 0
            self._seq = 0


# ---------------------------------------------------------------------------
# Correlation IDs
# ---------------------------------------------------------------------------

_CORRELATION: "ContextVar[Optional[str]]" = ContextVar(
    "repro_obs_correlation", default=None
)
_CORR_LOCK = threading.Lock()
_CORR_SEQ = 0


def correlation_id() -> Optional[str]:
    """The ambient correlation ID (``None`` outside a request)."""
    return _CORRELATION.get()


def set_correlation_id(corr_id: Optional[str]) -> Optional[str]:
    """Bind the ambient correlation ID; returns the previous one.

    The binding lives in a :class:`~contextvars.ContextVar`, so it is
    per-task under asyncio and copied into ``asyncio.to_thread``
    workers automatically.
    """
    previous = _CORRELATION.get()
    _CORRELATION.set(corr_id)
    return previous


def new_correlation_id() -> str:
    """A fresh process-unique correlation ID (``r000001`` style)."""
    global _CORR_SEQ
    with _CORR_LOCK:
        _CORR_SEQ += 1
        return f"r{_CORR_SEQ:06d}"


# ---------------------------------------------------------------------------
# Module-level facade (the shared-singleton / one-boolean-check pattern)
# ---------------------------------------------------------------------------

_LOG = EventLog()
_ENABLED = os.environ.get("REPRO_OBS_EVENTS", "") not in ("", "0", "false", "no")


def enabled() -> bool:
    """Whether the event log is currently recording."""
    return _ENABLED


def set_enabled(flag: bool) -> bool:
    """Set the gate explicitly; returns the previous state."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(flag)
    return previous


def log() -> EventLog:
    """The process-wide event log (live even while disabled)."""
    return _LOG


def emit(kind: str, corr_id: Optional[str] = None, **fields: Any) -> None:
    """Emit one event into the process-wide log (no-op while disabled)."""
    if _ENABLED:
        _LOG.emit(kind, corr_id, **fields)


def tail(n: int = 50) -> List[Dict[str, Any]]:
    """The most recent ``n`` events as JSON-ready dicts, oldest first."""
    return [event.as_dict() for event in _LOG.tail(n)]


def reset() -> None:
    """Drop every recorded event (the gate is left untouched)."""
    _LOG.clear()


__all__ = [
    "DEFAULT_CAPACITY",
    "EVENT_KINDS",
    "QUERY_ADMITTED",
    "QUERY_STARTED",
    "QUERY_FINISHED",
    "UPDATE_APPLIED",
    "CACHE_HIT",
    "CACHE_MISS",
    "CACHE_EVICT",
    "CACHE_INVALIDATE",
    "CACHE_CLEAR",
    "DEADLINE_EXCEEDED",
    "REQUEST_REJECTED",
    "FLIGHT_DUMPED",
    "Event",
    "EventLog",
    "correlation_id",
    "set_correlation_id",
    "new_correlation_id",
    "enabled",
    "set_enabled",
    "log",
    "emit",
    "tail",
    "reset",
]
