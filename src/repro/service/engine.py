"""The serving core: one graph, many queries, one update path.

:class:`PathQueryEngine` owns a single :class:`DynamicDiGraph` and
serves the protocol operations over it:

- **watched pairs** are long-lived registrations in a
  :class:`~repro.core.monitor.MultiPairMonitor`: every update repairs
  each watched index and reports exactly its new/deleted paths (the
  paper's continuous-monitoring deployment);
- **ad-hoc queries** run through :class:`CpeEnumerator`, kept warm in an
  LRU :class:`~repro.service.cache.IndexCache` so repeated queries skip
  the ``CPE_startup`` construction; ``batch_query`` answers each member
  through that same query path, in order;
- **updates** mutate the graph exactly once and are observed by every
  live index (watched and cached); ``batch_update`` first coalesces the
  batch through :func:`~repro.core.batch.compress_stream` so churny
  streams (insert+delete of the same edge) cost nothing — one repair
  pass over the net delta.

The engine is synchronous and single-threaded by design; concurrency
control (queueing, deadlines, backpressure) lives in
:mod:`repro.service.admission` in front of it.

Every public method returns a JSON-ready dict in the shape the wire
protocol's ``result`` field documents, raising
:class:`~repro.service.protocol.ServiceError` subclasses for invalid
requests — the server layer only ever encodes.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import (
    Any,
    Callable,
    DefaultDict,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro import obs
from repro.obs import events, flight, timeseries
from repro.obs.explain import explain_query
from repro.core.batch import NetDelta, compress_stream
from repro.core.monitor import MultiPairMonitor, PairKey
from repro.core.paths import Path
from repro.graph.digraph import DynamicDiGraph, EdgeUpdate, Vertex
from repro.service.cache import IndexCache, check_query
from repro.service.protocol import (
    AlreadyWatchedError,
    BadRequestError,
    InternalError,
    NotFoundError,
    encode_paths,
)

UpdateTriple = Tuple[Vertex, Vertex, bool]


class PathQueryEngine:
    """Serve path queries, watches and updates over one dynamic graph.

    Parameters
    ----------
    graph:
        The served graph; mutated in place by ``update`` operations.
    default_k:
        Hop constraint used by ``watch`` requests that omit ``k``.
    cache_budget_bytes:
        Memory budget of the warm-index cache (see
        :class:`~repro.service.cache.IndexCache`).

    The engine installs nothing process-wide: the ``trace``,
    ``history`` and ``flight`` ops read the span and history rings
    :func:`repro.obs.flight.install` puts in place (``repro serve``
    does so exactly when metrics are on).
    """

    def __init__(
        self,
        graph: DynamicDiGraph,
        default_k: int = 6,
        cache_budget_bytes: int = 4 << 20,
    ) -> None:
        self.graph = graph
        self.default_k = default_k
        #: Sink for spontaneous flight dumps (deadline burst, SIGUSR2):
        #: called with ``(reason, bundle)``.  The CLI installs a file
        #: writer here; ``None`` = dumps are dropped.
        self.on_flight_dump: Optional[
            Callable[[str, Dict[str, Any]], None]
        ] = None
        self.monitor = MultiPairMonitor(graph, default_k)
        self.cache = IndexCache(graph, budget_bytes=cache_budget_bytes)
        self._served: Dict[str, int] = {}
        self._updates_applied = 0
        self._updates_cancelled = 0
        self._updates_noop = 0

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def handle(self, op: str, args: Dict[str, Any]) -> Dict[str, Any]:
        """Execute one decoded protocol operation."""
        handler = getattr(self, f"op_{op}", None)
        if handler is None:
            raise InternalError(f"no handler for op {op!r}")
        self._served[op] = self._served.get(op, 0) + 1
        eventing = events.enabled()
        if eventing:
            events.emit(events.QUERY_STARTED, op=op)
            started = time.perf_counter()
        try:
            result = self._invoke(op, handler, args)
        except Exception as exc:
            if eventing:
                events.emit(
                    events.QUERY_FINISHED,
                    op=op,
                    ok=False,
                    error=type(exc).__name__,
                    seconds=time.perf_counter() - started,
                )
            raise
        if eventing:
            events.emit(
                events.QUERY_FINISHED,
                op=op,
                ok=True,
                seconds=time.perf_counter() - started,
            )
        return result

    def _invoke(
        self,
        op: str,
        handler: Callable[..., Dict[str, Any]],
        args: Dict[str, Any],
    ) -> Dict[str, Any]:
        if obs.enabled():
            obs.incr(f"service.requests.{op}")
            with obs.span(f"service.op.{op}"):
                return handler(**args)
        return handler(**args)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def op_query(self, s: Vertex, t: Vertex, k: int) -> Dict[str, Any]:
        """All current k-st paths for ``(s, t, k)``."""
        paths, source = self._query_paths(s, t, k)
        return {
            "paths": encode_paths(paths),
            "count": len(paths),
            "source": source,
        }

    def _query_paths(
        self, s: Vertex, t: Vertex, k: int
    ) -> Tuple[List[Path], str]:
        if self.monitor.watched_k(s, t) == k:
            return self.monitor.results_for(s, t), "watched"
        try:
            lookup = self.cache.get_or_build(s, t, k)
        except ValueError as exc:  # s == t, k out of range
            raise BadRequestError(str(exc)) from exc
        return lookup.enumerator.startup(), lookup.outcome

    def op_batch_query(
        self, queries: Sequence[Sequence[Any]]
    ) -> Dict[str, Any]:
        """Answer many ``(s, t, k)`` queries, in order, as ``query`` would.

        Every member is checked before any runs, so one invalid member
        fails the whole batch without building or caching anything.
        Each member is then answered through the ``query`` path and
        counted as one ``query`` in ``served``: its reply, its
        ``source`` and the cache counters are exactly what the same
        sequence of ``query`` requests would have produced.
        """
        triples = [(s, t, k) for s, t, k in queries]
        for i, (s, t, k) in enumerate(triples):
            try:
                check_query(s, t, k)
            except ValueError as exc:
                raise BadRequestError(f"queries[{i}]: {exc}") from exc
        self._served["query"] = self._served.get("query", 0) + len(triples)
        if obs.enabled():
            obs.incr("service.requests.query", len(triples))
        return {"results": [self.op_query(s, t, k) for s, t, k in triples]}

    # ------------------------------------------------------------------
    # Watches
    # ------------------------------------------------------------------
    def op_watch(
        self, s: Vertex, t: Vertex, k: Optional[int] = None
    ) -> Dict[str, Any]:
        """Register a monitored pair; returns its initial result set."""
        try:
            paths = self.monitor.watch(s, t, k)
        except ValueError as exc:
            if (s, t) in self.monitor.pairs():
                raise AlreadyWatchedError(str(exc)) from exc
            raise BadRequestError(str(exc)) from exc
        return {"paths": encode_paths(paths), "count": len(paths)}

    def op_unwatch(self, s: Vertex, t: Vertex) -> Dict[str, Any]:
        """Drop a monitored pair."""
        if not self.monitor.unwatch(s, t):
            raise NotFoundError(f"pair ({s!r}, {t!r}) is not watched")
        return {"removed": True}

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def op_update(self, u: Vertex, v: Vertex, insert: bool) -> Dict[str, Any]:
        """Apply one edge update; per-pair delta paths for watched pairs."""
        update = EdgeUpdate(u, v, insert)
        deltas = self._apply_one(update)
        if deltas is None:
            self._updates_noop += 1
            return {"changed": False, "pairs": []}
        self._updates_applied += 1
        pairs = [
            {
                "s": pair[0],
                "t": pair[1],
                "paths": encode_paths(paths),
                "count": len(paths),
            }
            for pair, paths in deltas.items()
            if paths
        ]
        return {"changed": True, "pairs": pairs}

    def op_batch_update(
        self, updates: Sequence[UpdateTriple]
    ) -> Dict[str, Any]:
        """Coalesce a batch and apply its net updates in one pass.

        The batch is first compressed against the current graph
        (:func:`compress_stream`): an insert+delete of the same edge
        within the batch cancels to nothing.  Per watched pair, paths
        that appear and disappear *within* the surviving sequence are
        cancelled too, so ``pairs`` reports the net path delta of the
        whole batch.
        """
        stream = [EdgeUpdate(u, v, insert) for u, v, insert in updates]
        effective = compress_stream(self.graph, stream)
        net: DefaultDict[PairKey, NetDelta] = defaultdict(NetDelta)
        applied = 0
        for update in effective:
            deltas = self._apply_one(update)
            if deltas is None:
                continue
            applied += 1
            for pair, paths in deltas.items():
                net[pair].fold(update.insert, paths)
        self._updates_applied += applied
        self._updates_cancelled += len(stream) - len(effective)
        pairs = []
        for pair in self.monitor.pairs():
            new, deleted = net[pair].ordered()
            if not new and not deleted:
                continue
            pairs.append(
                {
                    "s": pair[0],
                    "t": pair[1],
                    "new_paths": encode_paths(new),
                    "deleted_paths": encode_paths(deleted),
                    "net": len(new) - len(deleted),
                }
            )
        return {
            "received": len(stream),
            "applied": applied,
            "cancelled": len(stream) - len(effective),
            "pairs": pairs,
        }

    def _apply_one(
        self, update: EdgeUpdate
    ) -> Optional[Dict[PairKey, List[Path]]]:
        """Mutate the graph once; repair every live index.

        Returns ``{pair: delta_paths}`` for watched pairs, or None when
        the update was a no-op (edge already present/absent).
        """
        if not self.graph.apply_update(update):
            return None
        events.emit(
            events.UPDATE_APPLIED,
            u=update.u,
            v=update.v,
            insert=update.insert,
        )
        deltas = {
            pair: list(result.paths)
            for pair, result in self.monitor.observe(update).items()
        }
        self.cache.observe_all(update)
        return deltas

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def op_metrics(self, format: str = "json") -> Dict[str, Any]:
        """The :mod:`repro.obs` metrics registry, JSON or Prometheus.

        ``format="json"`` returns the snapshot dict; ``"prometheus"``
        returns the text exposition dump — a scrape target can poll the
        service with ``{"op": "metrics", "format": "prometheus"}`` and
        serve the ``text`` field verbatim.  Metrics accumulate only when
        observability is on (``repro serve --metrics`` / ``REPRO_OBS=1``);
        the ``enabled`` field says which mode the server runs in.
        """
        if format == "prometheus":
            return {
                "format": "prometheus",
                "enabled": obs.enabled(),
                "text": obs.render_prometheus(),
            }
        if format != "json":
            raise BadRequestError(
                f"metrics format must be 'json' or 'prometheus', got {format!r}"
            )
        return {
            "format": "json",
            "enabled": obs.enabled(),
            "metrics": obs.snapshot(),
        }

    def op_trace(self, clear: bool = True) -> Dict[str, Any]:
        """The span ring rendered as a Chrome trace.

        With ``clear``, the default, the ring is emptied so the next
        call starts fresh.  Without a ring installed the answer is
        ``enabled: false`` with an empty trace.
        """
        ring = flight.ring()
        if ring is None:
            return {
                "enabled": False,
                "trace": {"traceEvents": [], "displayTimeUnit": "ms"},
            }
        trace = ring.to_chrome_trace()
        if clear:
            ring.clear()
        return {"enabled": True, "trace": trace}

    def op_history(self) -> Dict[str, Any]:
        """The metrics time-series ring snapshot."""
        ring = timeseries.current()
        if ring is None:
            return {"enabled": False, "history": None}
        ring.maybe_sample()
        return {"enabled": True, "history": ring.snapshot()}

    def op_flight(self, reason: str = "wire") -> Dict[str, Any]:
        """A ``repro-flight/1`` bundle gathered on demand.

        Unlike the spontaneous triggers this never writes a file — the
        bundle travels back on the wire for the caller to keep.
        """
        return {
            "enabled": flight.ring() is not None,
            "bundle": self._flight_bundle(reason),
        }

    # ------------------------------------------------------------------
    # Flight dumps
    # ------------------------------------------------------------------
    def _flight_bundle(self, reason: str) -> Dict[str, Any]:
        """Gather one flight bundle of this process's record."""
        record = flight.process_record(obs.registry())
        payload = flight.bundle(reason, [record])
        events.emit(events.FLIGHT_DUMPED, reason=reason, processes=1)
        return payload

    def dump_flight(self, reason: str) -> Dict[str, Any]:
        """Gather a bundle and hand it to :attr:`on_flight_dump`.

        The spontaneous-trigger entry point (deadline burst, SIGUSR2).
        """
        payload = self._flight_bundle(reason)
        if self.on_flight_dump is not None:
            self.on_flight_dump(reason, payload)
        return payload

    def op_explain(
        self, s: Vertex, t: Vertex, k: int, analyze: bool = False
    ) -> Dict[str, Any]:
        """EXPLAIN (or ANALYZE) one query against the live graph.

        Runs :func:`repro.obs.explain.explain_query` on a throwaway
        index — the warm cache and watched indexes are left untouched so
        a diagnostic query never perturbs serving state.
        """
        try:
            report = explain_query(self.graph, s, t, k, analyze=analyze)
        except ValueError as exc:  # s == t, k < 0
            raise BadRequestError(str(exc)) from exc
        return {"explain": report.to_dict()}

    def op_events(self, limit: int = 50) -> Dict[str, Any]:
        """The tail of the structured event log (newest last)."""
        log = events.log()
        tail = events.tail(limit)
        return {
            "enabled": events.enabled(),
            "capacity": log.capacity,
            "total_emitted": log.total_emitted,
            "count": len(tail),
            "events": tail,
        }

    def op_stats(self) -> Dict[str, Any]:
        """Engine-side counters (the server merges admission stats in)."""
        return {
            "graph": {
                "vertices": self.graph.num_vertices,
                "edges": self.graph.num_edges,
            },
            "default_k": self.default_k,
            "watched_pairs": len(self.monitor),
            "served": dict(self._served),
            "updates": {
                "applied": self._updates_applied,
                "cancelled": self._updates_cancelled,
                "noop": self._updates_noop,
            },
            "cache": self.cache.stats().as_dict(),
        }


__all__ = [
    "UpdateTriple",
    "PathQueryEngine",
]
