"""A concurrent path-query service over one shared dynamic graph.

The paper's motivating deployments (fraud watchlists, real-time cycle
detection) are *services*: many clients watch many ``(s, t, k)`` pairs
over one graph while edge updates stream in.  This package is the
request/response layer over the building blocks in :mod:`repro.core`:

- :mod:`repro.service.protocol` — the newline-delimited JSON wire
  protocol (``query`` / ``batch_query`` / ``watch`` / ``unwatch`` /
  ``update`` / ``batch_update`` / ``stats``) with structured errors and
  deadlines;
- :mod:`repro.service.engine` — the serving core
  (:class:`PathQueryEngine`): monitor-backed watches, cache-backed
  ad-hoc and batch queries, and batched update ingestion;
- :mod:`repro.service.cache` — the warm-index LRU
  (:class:`IndexCache`) under an estimated-size memory budget;
- :mod:`repro.service.admission` — bounded queueing, deadlines and
  graceful drain (:class:`AdmissionController`);
- :mod:`repro.service.server` / :mod:`repro.service.client` — the
  asyncio TCP server and a small blocking client.

CLI entry points: ``repro serve`` and ``repro bench-serve``.
"""

from repro.service.admission import AdmissionController, AdmissionStats
from repro.service.cache import CacheStats, IndexCache
from repro.service.client import ServiceClient
from repro.service.engine import PathQueryEngine
from repro.service.protocol import (
    AlreadyWatchedError,
    BadRequestError,
    DeadlineExceededError,
    InternalError,
    NotFoundError,
    OverloadedError,
    Request,
    Response,
    ServiceError,
    ShuttingDownError,
    UnknownOpError,
    decode_request,
    decode_response,
)
from repro.service.server import PathQueryServer, ServerHandle, serve_in_thread

__all__ = [
    "PathQueryEngine",
    "PathQueryServer",
    "ServerHandle",
    "serve_in_thread",
    "ServiceClient",
    "IndexCache",
    "CacheStats",
    "AdmissionController",
    "AdmissionStats",
    "Request",
    "Response",
    "decode_request",
    "decode_response",
    "ServiceError",
    "BadRequestError",
    "UnknownOpError",
    "NotFoundError",
    "AlreadyWatchedError",
    "OverloadedError",
    "DeadlineExceededError",
    "ShuttingDownError",
    "InternalError",
]
