"""Chrome trace-event export: collect spans, emit ``chrome://tracing`` JSON.

:class:`TraceBuffer` is a :class:`~repro.obs.spans.TraceSink`: install
it with :func:`repro.obs.spans.set_trace_sink` (or use the
:func:`tracing` context manager) and every finished
:class:`~repro.obs.spans.Span` lands in the buffer as an interval.
Given a ``window`` and a ``max_spans`` bound it is a ring that keeps
only recent spans: the flight ring of :mod:`repro.obs.flight`.
Instant markers (:meth:`TraceBuffer.instant`) carry point-in-time
payloads — ``repro explain`` uses them for the cut decision, per-level
prune counters, and join-pair cardinalities so the numbers show up
inline in the viewer.

:meth:`TraceBuffer.to_chrome_trace` renders the JSON object format of
the Trace Event spec (the ``{"traceEvents": [...]}`` shape both
``chrome://tracing`` and Perfetto load): spans become complete events
(``"ph": "X"``) with microsecond timestamps, instants become
``"ph": "i"`` events, and per-thread interval containment is what the
viewer uses to draw nesting — no parent/child bookkeeping is ever paid
on the hot path.

:func:`validate_chrome_trace` is the schema check shared by the test
suite and the CI smoke step (``benchmarks/check_trace.py``).
"""

from __future__ import annotations

import collections
import os
import threading
import time
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.obs.spans import TraceSink, set_trace_sink

#: Event categories this module emits.
SPAN_CATEGORY = "span"
MARK_CATEGORY = "mark"


class TraceBuffer(TraceSink):
    """Thread-safe collector of span intervals and instant markers.

    With ``window`` (seconds), only spans that ended within the last
    ``window`` seconds are kept and returned; with ``max_spans``, at
    most that many, oldest dropped first.  Without either the buffer
    keeps everything until :meth:`clear`.
    """

    def __init__(
        self, window: Optional[float] = None, max_spans: Optional[int] = None
    ) -> None:
        if window is not None and window <= 0:
            raise ValueError("window must be positive")
        if max_spans is not None and max_spans < 1:
            raise ValueError("max_spans must hold at least one span")
        self.window = window
        self._lock = threading.Lock()
        self._spans: Deque[Tuple[str, float, float, int]] = (
            collections.deque(maxlen=max_spans)
        )
        self._instants: List[Tuple[str, float, int, Dict[str, Any]]] = []

    def record_span(self, name: str, started: float, duration: float,
                    thread_id: int) -> None:
        """Accept one finished span (``perf_counter`` seconds), evicting
        spans that ended before the window."""
        with self._lock:
            spans = self._spans
            if self.window is not None:
                horizon = started + duration - self.window
                while spans and spans[0][1] + spans[0][2] < horizon:
                    spans.popleft()
            spans.append((name, started, duration, thread_id))

    def instant(self, name: str, ts: float,
                args: Optional[Dict[str, Any]] = None) -> None:
        """Record a point-in-time marker with an arbitrary JSON payload."""
        with self._lock:
            self._instants.append(
                (name, ts, threading.get_ident(), dict(args or {}))
            )

    def __len__(self) -> int:
        return len(self._spans) + len(self._instants)

    def spans(
        self, now: Optional[float] = None
    ) -> List[Tuple[str, float, float, int]]:
        """Recorded ``(name, started, duration, thread_id)`` intervals,
        oldest first; with a window, those that ended within it."""
        with self._lock:
            spans = list(self._spans)
        if self.window is None:
            return spans
        if now is None:
            now = time.perf_counter()
        horizon = now - self.window
        return [span for span in spans if span[1] + span[2] >= horizon]

    def instants(self) -> List[Tuple[str, float, int, Dict[str, Any]]]:
        """Recorded ``(name, ts, thread_id, args)`` markers."""
        with self._lock:
            return [
                (name, ts, tid, dict(args))
                for name, ts, tid, args in self._instants
            ]

    def clear(self) -> None:
        """Drop everything recorded so far."""
        with self._lock:
            self._spans.clear()
            self._instants.clear()

    # ------------------------------------------------------------------
    def to_chrome_trace(
        self, metadata: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        """The buffer as a Trace Event JSON object.

        Timestamps are rebased so the earliest recorded event sits at
        ``ts == 0`` (the viewer cares about relative time only) and
        converted to integer microseconds per the spec.
        """
        spans = self.spans()
        with self._lock:
            instants = list(self._instants)
        starts = [s[1] for s in spans] + [i[1] for i in instants]
        base = min(starts) if starts else 0.0
        pid = os.getpid()
        events: List[Dict[str, Any]] = []
        for name, started, duration, tid in spans:
            events.append({
                "name": name,
                "cat": SPAN_CATEGORY,
                "ph": "X",
                "ts": int((started - base) * 1e6),
                "dur": int(duration * 1e6),
                "pid": pid,
                "tid": tid,
            })
        for name, ts, tid, args in instants:
            events.append({
                "name": name,
                "cat": MARK_CATEGORY,
                "ph": "i",
                "s": "t",
                "ts": int((ts - base) * 1e6),
                "pid": pid,
                "tid": tid,
                "args": args,
            })
        events.sort(key=lambda e: (int(e["ts"]), e["ph"] != "X"))
        payload: Dict[str, Any] = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
        }
        if metadata:
            payload["metadata"] = dict(metadata)
        return payload


def tracing(buffer: Optional[TraceBuffer] = None) -> "_TracingContext":
    """Context manager installing ``buffer`` (or a fresh one) as the
    process trace sink; yields the buffer and restores the previous
    sink on exit::

        with obs.tracing() as buf:
            run_workload()
        json.dump(buf.to_chrome_trace(), fh)
    """
    return _TracingContext(buffer if buffer is not None else TraceBuffer())


class _TracingContext:
    """Save/restore wrapper around :func:`set_trace_sink`."""

    def __init__(self, buffer: TraceBuffer) -> None:
        self._buffer = buffer
        self._previous: Optional[TraceSink] = None

    def __enter__(self) -> TraceBuffer:
        self._previous = set_trace_sink(self._buffer)
        return self._buffer

    def __exit__(self, *exc_info: object) -> None:
        set_trace_sink(self._previous)


# ---------------------------------------------------------------------------
# Validation (shared by tests and the CI smoke step)
# ---------------------------------------------------------------------------

_REQUIRED_EVENT_FIELDS = ("name", "ph", "ts", "pid", "tid")


def validate_chrome_trace(payload: Any) -> List[str]:
    """Check ``payload`` against the Trace Event JSON object format.

    Returns a list of human-readable problems; an empty list means the
    payload is loadable by ``chrome://tracing`` / Perfetto and carries
    the fields the rest of this codebase relies on.
    """
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"top level must be an object, got {type(payload).__name__}"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    if not events:
        problems.append("traceEvents is empty")
    for idx, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {idx} is not an object")
            continue
        for key in _REQUIRED_EVENT_FIELDS:
            if key not in event:
                problems.append(f"event {idx} is missing {key!r}")
        ph = event.get("ph")
        if ph not in ("X", "i", "B", "E", "M"):
            problems.append(f"event {idx} has unsupported phase {ph!r}")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"event {idx} has invalid ts {ts!r}")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"event {idx} has invalid dur {dur!r}")
        if ph == "i" and "args" in event and not isinstance(
            event["args"], dict
        ):
            problems.append(f"event {idx} args must be an object")
    return problems


__all__ = [
    "SPAN_CATEGORY",
    "MARK_CATEGORY",
    "TraceBuffer",
    "tracing",
    "validate_chrome_trace",
]
