"""The metric primitives: counters, gauges, timing histograms, registry.

Everything here is dependency-free and thread-safe: metrics are shared
between the asyncio event loop, the ``asyncio.to_thread`` worker that
runs the engine, and any benchmark thread, so every mutation happens
under a per-metric lock (creation races are resolved by the registry's
own lock).  The cost model is deliberate:

- :class:`Counter` / :class:`Gauge` are a lock plus an addition — cheap
  enough for per-operation call sites;
- :class:`Histogram` keeps running aggregates (count/total/min/max) plus
  a bounded reservoir of recent observations from which the p50/p95/p99
  quantiles are computed on demand, so memory stays constant no matter
  how long a server runs.

Every metric also has a plain-data **state** form (``state()``): the
full registry contents, histogram reservoirs included, that flight
bundles record.

Instrumented code should not talk to these classes directly — the
module-level facade in :mod:`repro.obs` adds the global enabled/disabled
gate that makes instrumentation a no-op on hot paths.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: Default bound on the per-histogram reservoir of recent observations.
DEFAULT_RESERVOIR = 2048

#: The quantiles every snapshot reports.
SNAPSHOT_QUANTILES = (0.50, 0.95, 0.99)


class Counter:
    """A monotonically increasing count (events, paths, rejections)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge instead")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        """The current count."""
        return self._value

    def state(self) -> int:
        """The counter's plain-data form (its count)."""
        return self._value


class Gauge:
    """A value that goes up and down (queue depth, cache bytes)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Shift the gauge by ``amount`` (may be negative)."""
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Shift the gauge down by ``amount``."""
        self.inc(-amount)

    @property
    def value(self) -> float:
        """The current level."""
        return self._value

    def state(self) -> float:
        """The gauge's plain-data form (its level)."""
        return self._value


class Histogram:
    """A distribution of observations with on-demand quantiles.

    Running aggregates (``count``, ``total``, ``min``, ``max``) cover
    the full history; quantiles are computed over a bounded ring buffer
    of the most recent ``reservoir`` observations, which keeps memory
    constant under sustained serving while staying exact for the
    short-run benchmark use case (fewer observations than the bound).
    """

    __slots__ = ("name", "_lock", "_count", "_total", "_min", "_max",
                 "_recent", "_cursor", "_reservoir")

    def __init__(self, name: str, reservoir: int = DEFAULT_RESERVOIR) -> None:
        if reservoir < 1:
            raise ValueError("reservoir must hold at least one observation")
        self.name = name
        self._lock = threading.Lock()
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._recent: List[float] = []
        self._cursor = 0
        self._reservoir = reservoir

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        with self._lock:
            self._count += 1
            self._total += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if len(self._recent) < self._reservoir:
                self._recent.append(value)
            else:
                self._recent[self._cursor] = value
                self._cursor = (self._cursor + 1) % self._reservoir

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Total number of observations ever recorded."""
        return self._count

    @property
    def total(self) -> float:
        """Sum of every observation ever recorded."""
        return self._total

    @property
    def mean(self) -> float:
        """Average over the full history (0.0 when empty)."""
        return self._total / self._count if self._count else 0.0

    @property
    def minimum(self) -> float:
        """Smallest observation ever recorded (0.0 when empty)."""
        return self._min if self._count else 0.0

    @property
    def maximum(self) -> float:
        """Largest observation ever recorded (0.0 when empty)."""
        return self._max if self._count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0..1) over the retained observations.

        Uses the nearest-rank method on a sorted copy of the reservoir;
        returns 0.0 when nothing has been observed.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        with self._lock:
            data = sorted(self._recent)
        if not data:
            return 0.0
        rank = max(0, min(len(data) - 1, math.ceil(q * len(data)) - 1))
        return data[rank]

    def percentiles(self) -> Dict[str, float]:
        """The standard snapshot quantiles (p50/p95/p99) in one pass."""
        with self._lock:
            data = sorted(self._recent)
        out: Dict[str, float] = {}
        for q in SNAPSHOT_QUANTILES:
            key = f"p{int(q * 100)}"
            if not data:
                out[key] = 0.0
            else:
                rank = max(0, min(len(data) - 1, math.ceil(q * len(data)) - 1))
                out[key] = data[rank]
        return out

    def as_dict(self) -> Dict[str, float]:
        """JSON-ready summary of the distribution."""
        summary: Dict[str, float] = {
            "count": float(self._count),
            "total": self._total,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
        }
        summary.update(self.percentiles())
        return summary

    # ------------------------------------------------------------------
    def state(self) -> Dict[str, Any]:
        """The histogram's plain-data form.

        ``samples`` is the retained reservoir as a **sorted** list, so
        the reservoir part of the state is independent of arrival
        order (``total`` is a running float sum, exact whenever the
        observed values are).  Empty histograms report ``min``/``max``
        as 0.0, matching :attr:`minimum`/:attr:`maximum`.
        """
        with self._lock:
            count = self._count
            total = self._total
            minimum = self._min if count else 0.0
            maximum = self._max if count else 0.0
            samples = sorted(self._recent)
        return {
            "count": count,
            "total": total,
            "min": minimum,
            "max": maximum,
            "samples": samples,
        }


class MetricsRegistry:
    """One namespace of metrics, created on first use.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the first
    caller for a name creates the metric, later callers (from any
    thread) get the same instance.  A name is bound to exactly one kind;
    asking for the same name as a different kind raises ``TypeError``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: "Dict[str, Any]" = {}

    # ------------------------------------------------------------------
    def _get_or_create(self, name: str, kind: type) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = kind(name)
                    self._metrics[name] = metric
        if not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, creating it on first use."""
        metric: Counter = self._get_or_create(name, Counter)
        return metric

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name``, creating it on first use."""
        metric: Gauge = self._get_or_create(name, Gauge)
        return metric

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name``, creating it on first use."""
        metric: Histogram = self._get_or_create(name, Histogram)
        return metric

    # ------------------------------------------------------------------
    def names(self) -> Tuple[str, ...]:
        """Every registered metric name, sorted."""
        with self._lock:
            return tuple(sorted(self._metrics))

    def get(self, name: str) -> Optional[Any]:
        """The metric called ``name`` (``None`` when absent)."""
        return self._metrics.get(name)

    def __iter__(self) -> Iterator[Any]:
        with self._lock:
            items = sorted(self._metrics.items())
        return iter([metric for _, metric in items])

    def __len__(self) -> int:
        return len(self._metrics)

    def reset(self) -> None:
        """Drop every metric (names and values)."""
        with self._lock:
            self._metrics.clear()

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready view: ``{counters, gauges, histograms}``."""
        counters: Dict[str, int] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, Dict[str, float]] = {}
        for metric in self:
            if isinstance(metric, Counter):
                counters[metric.name] = metric.value
            elif isinstance(metric, Gauge):
                gauges[metric.name] = metric.value
            elif isinstance(metric, Histogram):
                histograms[metric.name] = metric.as_dict()
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def state(self) -> Dict[str, Any]:
        """The registry's plain-data form.

        Same ``{counters, gauges, histograms}`` shape as
        :meth:`snapshot`, but histograms carry their full
        :meth:`Histogram.state` (including the sample reservoir) instead
        of a summary.  Maps are name-sorted.
        """
        counters: Dict[str, int] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, Dict[str, Any]] = {}
        for metric in self:
            if isinstance(metric, Counter):
                counters[metric.name] = metric.state()
            elif isinstance(metric, Gauge):
                gauges[metric.name] = metric.state()
            elif isinstance(metric, Histogram):
                histograms[metric.name] = metric.state()
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def render_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format.

        Counters and gauges render as single samples; histograms render
        as summaries (``{quantile="..."}`` samples plus ``_sum`` and
        ``_count``).  Dots in metric names become underscores.
        """
        lines: List[str] = []
        for metric in self:
            name = prometheus_name(metric.name)
            if isinstance(metric, Counter):
                lines.append(f"# TYPE {name} counter")
                lines.append(f"{name} {metric.value}")
            elif isinstance(metric, Gauge):
                lines.append(f"# TYPE {name} gauge")
                lines.append(f"{name} {_fmt_value(metric.value)}")
            elif isinstance(metric, Histogram):
                lines.append(f"# TYPE {name} summary")
                for q in SNAPSHOT_QUANTILES:
                    label = escape_label_value(str(q))
                    lines.append(
                        f'{name}{{quantile="{label}"}} '
                        f"{_fmt_value(metric.quantile(q))}"
                    )
                lines.append(f"{name}_sum {_fmt_value(metric.total)}")
                lines.append(f"{name}_count {metric.count}")
        return "\n".join(lines) + ("\n" if lines else "")


def prometheus_name(name: str) -> str:
    """A dotted metric name as a valid Prometheus identifier."""
    sanitized = "".join(
        ch if ch.isalnum() or ch in "_:" else "_" for ch in name
    )
    if not sanitized or sanitized[0].isdigit():
        sanitized = f"_{sanitized}"
    return sanitized


def escape_label_value(value: str) -> str:
    """A label value escaped for the text exposition format.

    Inside the double quotes of a label value the format reserves
    backslash, double-quote, and line-feed; they must appear as ``\\\\``,
    ``\\"`` and ``\\n`` respectively or the sample line is unparseable
    (a raw newline even splits the sample in two).  Backslash must be
    escaped first so the other escapes' backslashes survive.
    """
    return (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _fmt_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


__all__ = [
    "DEFAULT_RESERVOIR",
    "SNAPSHOT_QUANTILES",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "escape_label_value",
    "prometheus_name",
]
