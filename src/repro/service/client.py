"""A small blocking client for the path-query service.

One socket, one request in flight at a time::

    with ServiceClient("127.0.0.1", 7471) as client:
        client.watch(3, 42, k=6)
        client.query(3, 42, k=6)        # -> [(3, 9, 42), ...]
        client.insert_edge(7, 9)        # -> per-pair new paths
        client.stats()

Convenience methods raise the matching
:class:`~repro.service.protocol.ServiceError` subclass on a structured
error response (e.g. :class:`OverloadedError` carries
``retry_after_ms``); :meth:`ServiceClient.request` returns the raw
:class:`~repro.service.protocol.Response` instead, for callers that
want to branch on errors without exceptions.
"""

from __future__ import annotations

import socket
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.core.paths import Path
from repro.graph.digraph import EdgeUpdate, Vertex
from repro.service.protocol import (
    Request,
    Response,
    decode_paths,
    decode_response,
)

UpdateLike = Union[EdgeUpdate, Iterable]


class ServiceClient:
    """Blocking newline-delimited-JSON client.

    Parameters
    ----------
    host, port:
        The server address.
    timeout:
        Socket timeout in seconds for connect and each response read.
    """

    def __init__(self, host: str, port: int, timeout: float = 10.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")
        self._next_id = 0

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the connection (idempotent)."""
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def request(
        self,
        op: str,
        deadline_ms: Optional[float] = None,
        corr_id: Optional[str] = None,
        **fields: Any,
    ) -> Response:
        """Send one request and block for its response (no raising).

        ``corr_id`` tags the request for the server's structured event
        log, so a client can find every event its request caused.
        """
        self._next_id += 1
        request = Request(self._next_id, op, fields, deadline_ms, corr_id)
        self._file.write((request.to_wire() + "\n").encode("utf-8"))
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return decode_response(line)

    def call(
        self,
        op: str,
        deadline_ms: Optional[float] = None,
        corr_id: Optional[str] = None,
        **fields: Any,
    ) -> Dict[str, Any]:
        """Like :meth:`request` but unwraps ``result``, raising on error."""
        response = self.request(
            op, deadline_ms=deadline_ms, corr_id=corr_id, **fields
        )
        response.raise_for_error()
        return response.result or {}

    # ------------------------------------------------------------------
    # Operation wrappers
    # ------------------------------------------------------------------
    def query(
        self,
        s: Vertex,
        t: Vertex,
        k: int,
        deadline_ms: Optional[float] = None,
    ) -> List[Path]:
        """All current k-st paths for ``(s, t, k)``."""
        result = self.call("query", deadline_ms=deadline_ms, s=s, t=t, k=k)
        return decode_paths(result["paths"])

    def batch_query(
        self,
        queries: Iterable,
        deadline_ms: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Many ``(s, t, k)`` queries in one request.

        Returns the raw result with each member's ``paths`` decoded to
        tuples: ``results`` holds one ``query``-shaped object per triple
        (same order).
        """
        triples = [[s, t, k] for s, t, k in queries]
        result = self.call(
            "batch_query", deadline_ms=deadline_ms, queries=triples
        )
        for member in result.get("results", []):
            member["paths"] = decode_paths(member["paths"])
        return result

    def watch(
        self,
        s: Vertex,
        t: Vertex,
        k: Optional[int] = None,
        deadline_ms: Optional[float] = None,
    ) -> List[Path]:
        """Register a monitored pair; returns its initial paths."""
        fields: Dict[str, Any] = {"s": s, "t": t}
        if k is not None:
            fields["k"] = k
        result = self.call("watch", deadline_ms=deadline_ms, **fields)
        return decode_paths(result["paths"])

    def unwatch(
        self, s: Vertex, t: Vertex, deadline_ms: Optional[float] = None
    ) -> bool:
        """Drop a monitored pair."""
        return bool(
            self.call("unwatch", deadline_ms=deadline_ms, s=s, t=t)["removed"]
        )

    def update(
        self,
        u: Vertex,
        v: Vertex,
        insert: bool,
        deadline_ms: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Apply one edge update; per-pair delta paths decoded to tuples."""
        result = self.call(
            "update", deadline_ms=deadline_ms, u=u, v=v, insert=insert
        )
        for pair in result.get("pairs", []):
            pair["paths"] = decode_paths(pair["paths"])
        return result

    def insert_edge(
        self, u: Vertex, v: Vertex, deadline_ms: Optional[float] = None
    ) -> Dict[str, Any]:
        """Shorthand for an insertion update."""
        return self.update(u, v, True, deadline_ms=deadline_ms)

    def delete_edge(
        self, u: Vertex, v: Vertex, deadline_ms: Optional[float] = None
    ) -> Dict[str, Any]:
        """Shorthand for a deletion update."""
        return self.update(u, v, False, deadline_ms=deadline_ms)

    def batch_update(
        self,
        updates: Iterable[UpdateLike],
        deadline_ms: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Apply a batch (coalesced server-side); net per-pair deltas."""
        triples = []
        for item in updates:
            if isinstance(item, EdgeUpdate):
                triples.append([item.u, item.v, item.insert])
            else:
                u, v, insert = item
                triples.append([u, v, bool(insert)])
        result = self.call(
            "batch_update", deadline_ms=deadline_ms, updates=triples
        )
        for pair in result.get("pairs", []):
            pair["new_paths"] = decode_paths(pair["new_paths"])
            pair["deleted_paths"] = decode_paths(pair["deleted_paths"])
        return result

    def stats(self, deadline_ms: Optional[float] = None) -> Dict[str, Any]:
        """Server/engine/cache/admission counters."""
        return self.call("stats", deadline_ms=deadline_ms)

    def metrics(
        self,
        format: str = "json",
        deadline_ms: Optional[float] = None,
    ) -> Dict[str, Any]:
        """The server's :mod:`repro.obs` metrics snapshot.

        ``format="json"`` returns the structured snapshot under
        ``"metrics"``; ``format="prometheus"`` returns the text
        exposition dump under ``"text"``.
        """
        return self.call("metrics", deadline_ms=deadline_ms, format=format)

    def explain(
        self,
        s: Vertex,
        t: Vertex,
        k: int,
        analyze: bool = False,
        deadline_ms: Optional[float] = None,
    ) -> Dict[str, Any]:
        """The server-side EXPLAIN (or ANALYZE) report for a query.

        Returns the ``repro-explain/1`` report object: cut decisions,
        prune counters, bucket sizes, join-pair cardinalities (with
        ``analyze=True``) — see :mod:`repro.obs.explain`.
        """
        result = self.call(
            "explain", deadline_ms=deadline_ms, s=s, t=t, k=k, analyze=analyze
        )
        explain: Dict[str, Any] = result["explain"]
        return explain

    def events(
        self, limit: int = 50, deadline_ms: Optional[float] = None
    ) -> Dict[str, Any]:
        """The tail of the server's structured event log."""
        return self.call("events", deadline_ms=deadline_ms, limit=limit)

    def trace(
        self, clear: bool = True, deadline_ms: Optional[float] = None
    ) -> Dict[str, Any]:
        """The server's flight ring as a Chrome trace.

        Returns ``enabled`` (false when the server runs without
        metrics) and the ``trace`` object; ``clear`` (default) empties
        the ring.
        """
        return self.call("trace", deadline_ms=deadline_ms, clear=clear)

    def history(self, deadline_ms: Optional[float] = None) -> Dict[str, Any]:
        """The server's metrics time-series ring snapshot (for
        sparklines and dashboards); ``history`` is ``None`` unless the
        server runs with metrics on."""
        return self.call("history", deadline_ms=deadline_ms)

    def flight(
        self,
        reason: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ) -> Dict[str, Any]:
        """An on-demand ``repro-flight/1`` bundle under ``"bundle"``.

        The flight-recorder dump: the server's last seconds of spans,
        events, metrics and time-series.
        """
        fields: Dict[str, Any] = {}
        if reason is not None:
            fields["reason"] = reason
        return self.call("flight", deadline_ms=deadline_ms, **fields)


__all__ = [
    "UpdateLike",
    "ServiceClient",
]
