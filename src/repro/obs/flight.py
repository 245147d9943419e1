"""The flight recorder: the last N seconds, dumpable on demand.

Post-hoc debugging of a continuously-serving process fails on one
thing: by the time anyone looks, the interesting window is gone.  The
flight ring fixes that: a :class:`~repro.obs.trace.TraceBuffer` with a
window and a span bound, installed in the span sink slot, so it keeps
the spans that ended in the last :data:`DEFAULT_WINDOW` seconds (at
most :data:`DEFAULT_MAX_SPANS`).  The same ring answers the ``trace``
wire op.  :func:`install` puts it in place together with the history
ring (the :class:`~repro.obs.timeseries.TimeSeriesRing` behind the
``history`` op); ``repro serve`` does so exactly when metrics are on,
since spans only fire then.

A **dump** freezes the moment: the ring's spans, the event-log tail,
the full metrics registry state, and the history ring, as one
JSON-ready *process record*.

Bundles use the ``repro-flight/1`` schema::

    {
      "schema": "repro-flight/1",
      "reason": "deadline-burst" | "sigusr2" | "manual" | ...,
      "generated_at": <unix seconds>,
      "processes": [
        {"pid": ..., "window_seconds": ...,
         "spans": [[name, started, dur, tid], ...],
         "events": {...event-log snapshot...},
         "metrics": {...registry state...},
         "timeseries": {...ring snapshot... } | null},
        ...
      ]
    }

A server's dump is a bundle with one process record.  Triggers —
deadline-miss burst, ``SIGUSR2``, the ``flight`` wire op,
``repro flight-dump`` — live in the service and CLI layers; this
module only records and serializes.

:class:`BurstDetector` is the shared helper for "K misses within H
seconds" trigger conditions.
"""

from __future__ import annotations

import collections
import os
import threading
import time
from typing import Any, Deque, Dict, List, Optional, Sequence

from repro.obs import events as _events
from repro.obs import timeseries as _timeseries
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import set_trace_sink, trace_sink
from repro.obs.timeseries import TimeSeriesRing
from repro.obs.trace import TraceBuffer

#: Schema tag carried by every flight bundle.
FLIGHT_SCHEMA = "repro-flight/1"

#: Recording window of the flight ring, in seconds.
DEFAULT_WINDOW = 30.0

#: Hard bound on the flight ring's spans, whatever the window.
DEFAULT_MAX_SPANS = 4096


def install(registry: MetricsRegistry) -> TraceBuffer:
    """Install the flight ring as the span sink and a history ring over
    ``registry`` (replacing whatever held either slot); returns the
    flight ring."""
    ring = TraceBuffer(window=DEFAULT_WINDOW, max_spans=DEFAULT_MAX_SPANS)
    set_trace_sink(ring)
    _timeseries.install(TimeSeriesRing(registry))
    return ring


def ring() -> Optional[TraceBuffer]:
    """The installed span ring: the span sink, if it is a buffer."""
    sink = trace_sink()
    return sink if isinstance(sink, TraceBuffer) else None


def process_record(registry: MetricsRegistry) -> Dict[str, Any]:
    """This process's flight record: the span ring's spans (none, and
    window 0.0, without a ring), events, metrics and history."""
    buffer = ring()
    window = buffer.window if buffer is not None else None
    spans = buffer.spans() if buffer is not None else []
    history = _timeseries.current()
    return {
        "pid": os.getpid(),
        "window_seconds": window or 0.0,
        "spans": [list(span) for span in spans],
        "events": _events.log().snapshot(),
        "metrics": registry.state(),
        "timeseries": history.snapshot() if history is not None else None,
    }


def bundle(reason: str, processes: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Wrap process records as one ``repro-flight/1`` bundle.

    The wall-clock stamp makes the artifact attachable to an incident
    timeline; it is the only wall-clock read in the flight path and
    never feeds back into any computation.
    """
    return {
        "schema": FLIGHT_SCHEMA,
        "reason": reason,
        "generated_at": time.time(),
        "processes": list(processes),
    }


class BurstDetector:
    """Fires when ``threshold`` events land within ``horizon`` seconds.

    Timestamps are caller-supplied monotonic seconds.  After firing,
    the window resets so one sustained burst produces one trigger, not
    one per subsequent event.
    """

    def __init__(self, threshold: int = 5, horizon: float = 10.0) -> None:
        if threshold < 1:
            raise ValueError("threshold must be at least 1")
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        self.threshold = threshold
        self.horizon = float(horizon)
        self._lock = threading.Lock()
        self._marks: Deque[float] = collections.deque()

    def note(self, now: float) -> bool:
        """Record one event at ``now``; True when the burst fires."""
        with self._lock:
            marks = self._marks
            marks.append(now)
            floor = now - self.horizon
            while marks and marks[0] < floor:
                marks.popleft()
            if len(marks) >= self.threshold:
                marks.clear()
                return True
            return False


def validate_flight_bundle(payload: Any) -> List[str]:
    """Check ``payload`` against the ``repro-flight/1`` schema.

    Returns human-readable problems (empty = sound) — the shared core
    of ``benchmarks/check_flight.py`` and the test suite.
    """
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"top level must be an object, got {type(payload).__name__}"]
    if payload.get("schema") != FLIGHT_SCHEMA:
        problems.append(
            f"expected schema {FLIGHT_SCHEMA!r}, got {payload.get('schema')!r}"
        )
    if not isinstance(payload.get("reason"), str) or not payload.get("reason"):
        problems.append("reason must be a non-empty string")
    processes = payload.get("processes")
    if not isinstance(processes, list) or not processes:
        problems.append("processes must be a non-empty list")
        return problems
    for idx, proc in enumerate(processes):
        if not isinstance(proc, dict):
            problems.append(f"process {idx} is not an object")
            continue
        if not isinstance(proc.get("pid"), int):
            problems.append(f"process {idx} is missing an integer pid")
        spans = proc.get("spans")
        if not isinstance(spans, list):
            problems.append(f"process {idx} spans must be a list")
        else:
            for span in spans:
                if not (isinstance(span, (list, tuple)) and len(span) == 4):
                    problems.append(
                        f"process {idx} has a malformed span entry"
                    )
                    break
        for key in ("events", "metrics"):
            if not isinstance(proc.get(key), dict):
                problems.append(f"process {idx} {key} must be an object")
        if "timeseries" not in proc:
            problems.append(f"process {idx} is missing timeseries")
    return problems


__all__ = [
    "DEFAULT_MAX_SPANS",
    "DEFAULT_WINDOW",
    "FLIGHT_SCHEMA",
    "BurstDetector",
    "bundle",
    "install",
    "process_record",
    "ring",
    "validate_flight_bundle",
]
