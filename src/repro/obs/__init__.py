"""``repro.obs`` — zero-dependency observability for the CPE engine.

One process-wide :class:`~repro.obs.metrics.MetricsRegistry` plus a
global on/off gate.  Instrumented code calls the module-level facade::

    from repro import obs

    with obs.span("construction.build"):
        ...
    obs.incr("enumeration.paths", emitted)
    obs.observe("construction.left_frontier", len(frontier))

and pays (per the contract the ``benchmarks/bench_obs.py`` overhead
benchmark enforces) **one boolean check** per call site while disabled —
metrics exist only when someone turned observability on, via
:func:`enable`, ``repro profile``, ``repro serve --metrics``, or the
``REPRO_OBS=1`` environment variable.

The facade is intentionally tiny: counters (:func:`incr`), gauges
(:func:`set_gauge`), timing/size histograms (:func:`observe`), spans
(:func:`span`), and the two export formats (:func:`snapshot` for JSON,
:func:`render_prometheus` for a Prometheus scrape/dump).  The metric
name catalog and naming convention live in docs/OBSERVABILITY.md.

Five sibling namespaces ride along, each with the same off-by-default
cost contract:

- :mod:`repro.obs.events` — the structured event log (bounded ring of
  typed events with correlation IDs);
- :mod:`repro.obs.explain` — per-query EXPLAIN/ANALYZE reports
  (dynamic-cut decisions, prune counters, join cardinalities), read
  off the records a build and a join already keep;
- :mod:`repro.obs.trace` — Chrome trace-event export built on spans;
- :mod:`repro.obs.timeseries` — the bounded metrics time-series ring
  behind the ``history`` wire op and ``repro top`` sparklines;
- :mod:`repro.obs.flight` — the flight ring (the one span sink of a
  server with metrics on) and the ``repro-flight/1`` bundle format.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Union

from repro.obs import events, explain, trace
from repro.obs.explain import ExplainRecord, ExplainReport, explain_query
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    prometheus_name,
)
from repro.obs.report import render_profile, stage_rows
from repro.obs.spans import (
    NOOP_SPAN,
    NoopSpan,
    Span,
    set_trace_sink,
    trace_sink,
)
from repro.obs.trace import TraceBuffer, tracing, validate_chrome_trace
from repro.obs import flight, timeseries
from repro.obs.flight import validate_flight_bundle
from repro.obs.timeseries import TimeSeriesRing

_REGISTRY = MetricsRegistry()
_ENABLED = os.environ.get("REPRO_OBS", "") not in ("", "0", "false", "no")


def enabled() -> bool:
    """Whether instrumentation is currently recording."""
    return _ENABLED


def enable() -> bool:
    """Turn instrumentation on; returns the previous state."""
    return set_enabled(True)


def disable() -> bool:
    """Turn instrumentation off; returns the previous state."""
    return set_enabled(False)


def set_enabled(flag: bool) -> bool:
    """Set the gate explicitly; returns the previous state.

    The return value makes save/restore trivial::

        previous = obs.set_enabled(True)
        try:
            ...
        finally:
            obs.set_enabled(previous)
    """
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(flag)
    return previous


def registry() -> MetricsRegistry:
    """The process-wide registry (live even while disabled)."""
    return _REGISTRY


def reset() -> None:
    """Drop every recorded metric (the gate is left untouched)."""
    _REGISTRY.reset()


# ---------------------------------------------------------------------------
# Recording facade — every function is a no-op while disabled
# ---------------------------------------------------------------------------


def span(name: str) -> Union[Span, NoopSpan]:
    """A timed region recording into the ``<name>.seconds`` histogram."""
    if not _ENABLED:
        return NOOP_SPAN
    return Span(name, _REGISTRY)


def incr(name: str, amount: int = 1) -> None:
    """Add to the counter called ``name``."""
    if _ENABLED:
        _REGISTRY.counter(name).inc(amount)


def set_gauge(name: str, value: float) -> None:
    """Set the gauge called ``name``."""
    if _ENABLED:
        _REGISTRY.gauge(name).set(value)


def observe(name: str, value: float) -> None:
    """Record one observation into the histogram called ``name``."""
    if _ENABLED:
        _REGISTRY.histogram(name).observe(value)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def snapshot() -> Dict[str, Any]:
    """JSON-ready state: the gate plus every metric's current value."""
    view = _REGISTRY.snapshot()
    view["enabled"] = _ENABLED
    return view


def render_prometheus() -> str:
    """The registry in the Prometheus text exposition format."""
    return _REGISTRY.render_prometheus()


__all__ = [
    "Counter",
    "ExplainRecord",
    "ExplainReport",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NoopSpan",
    "NOOP_SPAN",
    "Span",
    "TimeSeriesRing",
    "TraceBuffer",
    "events",
    "explain",
    "explain_query",
    "flight",
    "timeseries",
    "trace",
    "tracing",
    "set_trace_sink",
    "trace_sink",
    "validate_chrome_trace",
    "validate_flight_bundle",
    "prometheus_name",
    "enabled",
    "enable",
    "disable",
    "set_enabled",
    "registry",
    "reset",
    "span",
    "incr",
    "set_gauge",
    "observe",
    "snapshot",
    "render_prometheus",
    "render_profile",
    "stage_rows",
]
