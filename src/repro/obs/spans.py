"""Span-style tracing: ``with span("construction.build"): ...``.

A span is a timed region backed by a histogram called
``<name>.seconds`` in a :class:`~repro.obs.metrics.MetricsRegistry`,
so every span site gets call counts and p50/p95/p99 latency for free.
Naming convention (see docs/OBSERVABILITY.md): dotted lowercase,
``<layer>.<operation>`` — e.g. ``construction.prep``,
``enumeration.full``, ``maintenance.insert``, ``service.op.query``.

The cost contract the instrumented hot paths rely on:

- when tracing is disabled the span factory returns one shared
  :data:`NOOP_SPAN` whose ``__enter__``/``__exit__`` do nothing — the
  only per-call work is a boolean check and a constant attribute load;
- when enabled, a span costs two ``time.perf_counter()`` calls plus one
  histogram observation.

Spans deliberately do not form a tree — nesting works (each span times
itself independently), but there is no parent/child bookkeeping to pay
for on paths that run millions of times per second.  Tree structure is
recovered *offline* instead: when a trace sink is installed
(:func:`set_trace_sink`, used by ``repro explain --format trace``),
every finished span also reports its start time, duration, and thread
ident to the sink, and interval containment per thread reconstructs
the nesting — e.g. in the Chrome trace viewer, which draws exactly
that.
"""

from __future__ import annotations

import threading
import time
from types import TracebackType
from typing import Optional, Protocol, Type

from repro.obs.metrics import MetricsRegistry

#: Suffix appended to a span name to form its histogram's name.
SPAN_SUFFIX = ".seconds"


class TraceSink(Protocol):
    """Anything that wants finished-span intervals (see ``obs.trace``)."""

    def record_span(self, name: str, started: float, duration: float,
                    thread_id: int) -> None:
        """Accept one finished span interval (perf_counter seconds)."""


#: The installed trace sink, or ``None`` (the common case: no tracing).
_TRACE_SINK: Optional[TraceSink] = None


def set_trace_sink(sink: Optional[TraceSink]) -> Optional[TraceSink]:
    """Install (or clear, with ``None``) the trace sink; returns the
    previous one so callers can save/restore around a traced region."""
    global _TRACE_SINK
    previous = _TRACE_SINK
    _TRACE_SINK = sink
    return previous


def trace_sink() -> Optional[TraceSink]:
    """The currently installed trace sink, if any."""
    return _TRACE_SINK


class NoopSpan:
    """The do-nothing span used while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "NoopSpan":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        return None


#: The shared no-op instance (spans are stateless when disabled).
NOOP_SPAN = NoopSpan()


class Span:
    """One timed region; records wall time into ``<name>.seconds``."""

    __slots__ = ("name", "_registry", "_started")

    def __init__(self, name: str, registry: MetricsRegistry) -> None:
        self.name = name
        self._registry = registry
        self._started = 0.0

    def __enter__(self) -> "Span":
        self._started = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        elapsed = time.perf_counter() - self._started
        self._registry.histogram(self.name + SPAN_SUFFIX).observe(elapsed)
        sink = _TRACE_SINK
        if sink is not None:
            sink.record_span(
                self.name, self._started, elapsed, threading.get_ident()
            )
        return None


__all__ = [
    "SPAN_SUFFIX",
    "NoopSpan",
    "NOOP_SPAN",
    "Span",
    "TraceSink",
    "set_trace_sink",
    "trace_sink",
]
