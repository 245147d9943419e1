"""A bounded metrics time-series ring: recent history on a fixed tick.

Counters and snapshots answer "how much, ever" and "how fast, now";
neither answers "what did the last two minutes look like" — the
question ``repro top`` sparklines and the flight recorder both need.
:class:`TimeSeriesRing` does: on every tick it samples the registry —
counter **deltas** since the previous tick, gauge levels, histogram
p50/p95/p99 plus the tick's observation-count delta — into a bounded
ring, so memory stays constant no matter how long a server runs.

Ticking is pull-based and cheap to decline: callers sprinkle
:meth:`maybe_sample` wherever they already hold the thread (the server
runs a dedicated asyncio ticker while a ring is installed), and it
returns immediately unless a full interval elapsed.  Timestamps are
``time.perf_counter()`` seconds — monotonic, process-local, and
deliberately not wall clock, matching the rest of the tracing stack.

The module-level ``install``/``current`` slot mirrors the span sink:
one ring per process, shared by the ``history`` wire op, ``repro top``,
and flight dumps.  ``repro serve`` installs it, with the flight ring,
exactly when metrics are on (:func:`repro.obs.flight.install`).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

#: Default seconds between samples.
DEFAULT_INTERVAL = 1.0

#: Default number of retained samples (capacity x interval = horizon).
DEFAULT_CAPACITY = 120


class TimeSeriesRing:
    """Bounded ring of periodic registry samples (thread-safe)."""

    def __init__(
        self,
        registry: MetricsRegistry,
        interval: float = DEFAULT_INTERVAL,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        if capacity < 1:
            raise ValueError("capacity must hold at least one sample")
        self._registry = registry
        self.interval = float(interval)
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._samples: List[Dict[str, Any]] = []
        self._last_counters: Dict[str, int] = {}
        self._last_hist_counts: Dict[str, int] = {}
        self._next_due: Optional[float] = None
        self._total_samples = 0

    # ------------------------------------------------------------------
    def maybe_sample(self, now: Optional[float] = None) -> bool:
        """Sample iff a full interval elapsed; True when it sampled.

        The off-cycle cost is one lock acquire and a float compare, so
        this is safe to call once per request/command.
        """
        if now is None:
            now = time.perf_counter()
        with self._lock:
            if self._next_due is not None and now < self._next_due:
                return False
        self.sample(now)
        return True

    def sample(self, now: Optional[float] = None) -> Dict[str, Any]:
        """Take one sample unconditionally and append it to the ring."""
        if now is None:
            now = time.perf_counter()
        counters: Dict[str, int] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, Dict[str, float]] = {}
        raw_counters: Dict[str, int] = {}
        raw_hist_counts: Dict[str, int] = {}
        for metric in self._registry:
            if isinstance(metric, Histogram):
                raw_hist_counts[metric.name] = metric.count
                histograms[metric.name] = dict(metric.percentiles())
            elif isinstance(metric, Counter):
                raw_counters[metric.name] = metric.value
            elif isinstance(metric, Gauge):
                gauges[metric.name] = metric.value
        with self._lock:
            for name, value in raw_counters.items():
                counters[name] = value - self._last_counters.get(name, 0)
            for name, count in raw_hist_counts.items():
                histograms[name]["count"] = float(
                    count - self._last_hist_counts.get(name, 0)
                )
            self._last_counters = raw_counters
            self._last_hist_counts = raw_hist_counts
            entry_sample: Dict[str, Any] = {
                "ts": now,
                "counters": counters,
                "gauges": gauges,
                "histograms": histograms,
            }
            self._samples.append(entry_sample)
            if len(self._samples) > self.capacity:
                del self._samples[: len(self._samples) - self.capacity]
            self._next_due = now + self.interval
            self._total_samples += 1
        return entry_sample

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)

    def clear(self) -> None:
        """Drop all samples and delta baselines."""
        with self._lock:
            self._samples.clear()
            self._last_counters = {}
            self._last_hist_counts = {}
            self._next_due = None
            self._total_samples = 0

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready view: config, totals, and the retained samples.

        Sample timestamps are rewritten relative to the newest sample
        (``0.0`` = now, negative = seconds ago), so the output is
        meaningful outside the process that produced it.
        """
        with self._lock:
            samples = [dict(sample) for sample in self._samples]
            total = self._total_samples
        newest = samples[-1]["ts"] if samples else 0.0
        for sample in samples:
            sample["ts"] = sample["ts"] - newest
        return {
            "interval": self.interval,
            "capacity": self.capacity,
            "total_samples": total,
            "samples": samples,
        }

    def series(self, kind: str, name: str, field: str = "") -> List[float]:
        """One metric's values across the retained samples.

        ``kind`` is ``counters``/``gauges``/``histograms``; ``field``
        picks the histogram column (``p50``/``p95``/``p99``/``count``).
        Samples missing the metric contribute 0.0, so the series always
        has one value per retained sample.
        """
        out: List[float] = []
        with self._lock:
            samples = list(self._samples)
        for sample in samples:
            entry = sample.get(kind, {}).get(name)
            if entry is None:
                out.append(0.0)
            elif isinstance(entry, dict):
                out.append(float(entry.get(field, 0.0)))
            else:
                out.append(float(entry))
        return out


#: The process-wide ring, if one is installed.
_RING: Optional[TimeSeriesRing] = None


def install(ring: Optional[TimeSeriesRing]) -> Optional[TimeSeriesRing]:
    """Install (or clear, with ``None``) the process ring; returns the
    previous one so callers can save/restore."""
    global _RING
    previous = _RING
    _RING = ring
    return previous


def current() -> Optional[TimeSeriesRing]:
    """The installed process-wide ring, if any."""
    return _RING


def maybe_sample(now: Optional[float] = None) -> bool:
    """Tick the installed ring, if any; no-op (False) when absent."""
    ring = _RING
    if ring is None:
        return False
    return ring.maybe_sample(now)


__all__ = [
    "DEFAULT_CAPACITY",
    "DEFAULT_INTERVAL",
    "TimeSeriesRing",
    "current",
    "install",
    "maybe_sample",
]
