"""The always-on flight recorder: the last N seconds, dumpable on demand.

Post-hoc debugging of a continuously-serving process fails on one
thing: by the time anyone looks, the interesting window is gone.  The
flight recorder fixes that with a bounded ring of recent span
intervals (it is a :class:`~repro.obs.spans.TraceSink`, installed in
the dedicated *flight* sink slot so explain tracing and the recorder
coexist), evicted by age against ``perf_counter``.  A **dump** freezes
the moment: the span ring, the event-log tail, the full metrics
registry state, and the installed time-series ring, as one JSON-ready
*process record*.

Bundles use the ``repro-flight/1`` schema::

    {
      "schema": "repro-flight/1",
      "reason": "deadline-burst" | "sigusr2" | "manual" | ...,
      "generated_at": <unix seconds>,
      "processes": [
        {"pid": ..., "role": "coordinator" | "shard", "shard": int | null,
         "window_seconds": ..., "spans": [[name, started, dur, tid], ...],
         "events": {...event-log snapshot...},
         "metrics": {...registry state...},
         "timeseries": {...ring snapshot... } | null},
        ...
      ]
    }

A server's dump is a bundle with one ``coordinator`` process record;
the schema also admits ``shard`` records, so bundles written by
earlier multi-process servers still validate.  Triggers —
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
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.obs import events as _events
from repro.obs import timeseries as _timeseries
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import set_flight_sink

#: Schema tag carried by every flight bundle.
FLIGHT_SCHEMA = "repro-flight/1"

#: Default recording window in seconds.
DEFAULT_WINDOW = 30.0

#: Hard bound on retained spans, whatever the window.
DEFAULT_MAX_SPANS = 4096


class FlightRecorder:
    """Windowed ring of recent spans plus the process-record dump."""

    def __init__(
        self,
        window: float = DEFAULT_WINDOW,
        max_spans: int = DEFAULT_MAX_SPANS,
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        if max_spans < 1:
            raise ValueError("max_spans must hold at least one span")
        self.window = float(window)
        self._lock = threading.Lock()
        self._spans: Deque[Tuple[str, float, float, int]] = (
            collections.deque(maxlen=max_spans)
        )

    # -- TraceSink ------------------------------------------------------
    def record_span(self, name: str, started: float, duration: float,
                    thread_id: int) -> None:
        """Accept one finished span; evict anything older than the
        window while holding the deque anyway."""
        horizon = started + duration - self.window
        with self._lock:
            spans = self._spans
            while spans and spans[0][1] + spans[0][2] < horizon:
                spans.popleft()
            spans.append((name, started, duration, thread_id))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def clear(self) -> None:
        """Drop every retained span."""
        with self._lock:
            self._spans.clear()

    def spans(self, now: Optional[float] = None) -> List[
        Tuple[str, float, float, int]
    ]:
        """Spans that ended within the window, oldest first."""
        if now is None:
            now = time.perf_counter()
        horizon = now - self.window
        with self._lock:
            return [s for s in self._spans if s[1] + s[2] >= horizon]

    def process_record(
        self,
        registry: MetricsRegistry,
        role: str = "coordinator",
        shard: Optional[int] = None,
        now: Optional[float] = None,
    ) -> Dict[str, Any]:
        """This process's flight record: spans, events, metrics, series."""
        ring = _timeseries.current()
        return {
            "pid": os.getpid(),
            "role": role,
            "shard": shard,
            "window_seconds": self.window,
            "spans": [list(span) for span in self.spans(now)],
            "events": _events.log().snapshot(),
            "metrics": registry.state(),
            "timeseries": ring.snapshot() if ring is not None else None,
        }

    def bundle(
        self,
        reason: str,
        processes: Sequence[Dict[str, Any]],
    ) -> Dict[str, Any]:
        """Wrap process records as one ``repro-flight/1`` bundle.

        The wall-clock stamp makes the artifact attachable to an
        incident timeline; it is the only wall-clock read in the flight
        path and never feeds back into any computation.
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


# ---------------------------------------------------------------------------
# Module-level facade: one recorder per process, wired into the span slot
# ---------------------------------------------------------------------------

_RECORDER: Optional[FlightRecorder] = None


def enable(
    window: float = DEFAULT_WINDOW, max_spans: int = DEFAULT_MAX_SPANS
) -> FlightRecorder:
    """Install a fresh process-wide recorder (replacing any previous
    one) into the flight sink slot and return it."""
    global _RECORDER
    recorder = FlightRecorder(window=window, max_spans=max_spans)
    _RECORDER = recorder
    set_flight_sink(recorder)
    return recorder


def disable() -> None:
    """Remove the process-wide recorder and clear the sink slot."""
    global _RECORDER
    _RECORDER = None
    set_flight_sink(None)


def enabled() -> bool:
    """Whether a process-wide recorder is installed."""
    return _RECORDER is not None


def recorder() -> Optional[FlightRecorder]:
    """The installed process-wide recorder, if any."""
    return _RECORDER


def process_record(
    registry: MetricsRegistry,
    role: str = "coordinator",
    shard: Optional[int] = None,
) -> Dict[str, Any]:
    """The installed recorder's process record; an empty-ring record
    (window 0.0, no spans) when no recorder is installed, so gather
    paths never have to special-case a disabled process."""
    rec = _RECORDER
    if rec is None:
        ring = _timeseries.current()
        return {
            "pid": os.getpid(),
            "role": role,
            "shard": shard,
            "window_seconds": 0.0,
            "spans": [],
            "events": _events.log().snapshot(),
            "metrics": registry.state(),
            "timeseries": ring.snapshot() if ring is not None else None,
        }
    return rec.process_record(registry, role=role, shard=shard)


def bundle(reason: str, processes: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """A ``repro-flight/1`` bundle via the installed (or a throwaway)
    recorder."""
    rec = _RECORDER if _RECORDER is not None else FlightRecorder()
    return rec.bundle(reason, processes)


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
        if proc.get("role") not in ("coordinator", "shard"):
            problems.append(
                f"process {idx} has unknown role {proc.get('role')!r}"
            )
        if proc.get("role") == "shard" and not isinstance(
            proc.get("shard"), int
        ):
            problems.append(f"process {idx} is a shard without a shard id")
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
    "FlightRecorder",
    "bundle",
    "disable",
    "enable",
    "enabled",
    "process_record",
    "recorder",
    "validate_flight_bundle",
]
