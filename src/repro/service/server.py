"""The asyncio TCP server speaking the newline-delimited JSON protocol.

Connections are handled concurrently; requests on one connection are
answered in order (pipelining is allowed).  Engine work runs in a worker
thread via :func:`asyncio.to_thread` — the event loop stays responsive
while a query executes, which is what lets the admission controller see
(and bound) a real queue.  Execution itself is serialized by the
admission lock, so the single-threaded engine is never entered twice.

Every request produces exactly one response line, including malformed
ones (``bad_request`` with a best-effort echoed id); a protocol error is
never a dropped connection.

:func:`serve_in_thread` runs a server on a background thread with its
own event loop — the bridge to the blocking
:class:`~repro.service.client.ServiceClient`, the CLI's ``bench-serve``
and the tests.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import Optional, Set

from repro import obs
from repro.obs import events, timeseries
from repro.obs.flight import BurstDetector
from repro.service.admission import AdmissionController
from repro.service.engine import PathQueryEngine
from repro.service.protocol import (
    BadRequestError,
    DeadlineExceededError,
    InternalError,
    Request,
    RequestId,
    Response,
    ServiceError,
    decode_request,
    error_response,
    ok_response,
)


def _lenient_id(line: bytes) -> RequestId:
    """Best-effort request id extraction from a rejected line."""
    try:
        payload = json.loads(line.decode("utf-8", errors="replace"))
    except ValueError:
        return None
    if isinstance(payload, dict) and isinstance(payload.get("id"), (int, str)):
        return payload["id"]
    return None


class PathQueryServer:
    """Serve one :class:`PathQueryEngine` over TCP.

    Parameters
    ----------
    engine:
        The serving core (owns the graph and all indexes).
    host, port:
        Bind address; ``port=0`` picks a free port (see :attr:`port`
        after :meth:`start`).
    capacity, retry_after_ms:
        Admission-control knobs (see
        :class:`~repro.service.admission.AdmissionController`).
    max_line_bytes:
        Upper bound on one request line; longer lines fail the
        connection with a ``bad_request`` response.
    """

    def __init__(
        self,
        engine: PathQueryEngine,
        host: str = "127.0.0.1",
        port: int = 0,
        capacity: int = 64,
        retry_after_ms: int = 50,
        max_line_bytes: int = 1 << 20,
    ) -> None:
        self.engine = engine
        self.host = host
        self.port = port
        self.admission = AdmissionController(
            capacity=capacity, retry_after_ms=retry_after_ms
        )
        self.max_line_bytes = max_line_bytes
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: Set[asyncio.StreamWriter] = set()
        self._connections_total = 0
        #: Deadline-miss burst trigger: enough admission deadline misses
        #: in a short horizon fire one flight dump (engine's
        #: on_flight_dump).
        self._burst = BurstDetector()
        self._ticker_task: Optional["asyncio.Task[None]"] = None
        self._flight_tasks: Set["asyncio.Task[None]"] = set()

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=self.max_line_bytes,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        ring = timeseries.current()
        if ring is not None:
            self._ticker_task = asyncio.get_running_loop().create_task(
                self._run_ticker(ring.interval)
            )

    async def serve_forever(self) -> None:
        """Block serving until cancelled or :meth:`shutdown` is called."""
        if self._server is None:
            await self.start()
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def shutdown(self, drain_timeout: float = 5.0) -> None:
        """Graceful stop: reject new work, drain admitted work, close.

        After this returns, every request admitted before the call has
        been answered; requests arriving during the drain received
        ``shutting_down`` errors.
        """
        if self._ticker_task is not None:
            self._ticker_task.cancel()
        for task in tuple(self._flight_tasks):
            task.cancel()
        self.admission.begin_shutdown()
        await self.admission.drain(timeout=drain_timeout)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for writer in tuple(self._writers):
            writer.close()

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        self._connections_total += 1
        if obs.enabled():
            obs.incr("service.connections")
            obs.set_gauge("service.open_connections", len(self._writers))
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            pass  # loop teardown cancelled the handler mid-read
        finally:
            self._writers.discard(writer)
            if obs.enabled():
                obs.set_gauge("service.open_connections", len(self._writers))
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                line = await reader.readline()
            except ValueError:
                # over-long line: framing is lost, answer and close
                response = error_response(
                    None,
                    BadRequestError(
                        f"request line exceeds {self.max_line_bytes} bytes"
                    ),
                )
                await self._send(writer, response)
                break
            except (ConnectionError, asyncio.IncompleteReadError):
                break
            if not line:
                break
            if not line.strip():
                continue
            response = await self._process_line(line)
            if not await self._send(writer, response):
                break

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, response: Response) -> bool:
        try:
            writer.write((response.to_wire() + "\n").encode("utf-8"))
            await writer.drain()
            return True
        except (ConnectionError, OSError):
            return False

    async def _process_line(self, line: bytes) -> Response:
        try:
            request = decode_request(line)
        except ServiceError as exc:
            return error_response(_lenient_id(line), exc)
        return await self._process(request)

    async def _process(self, request: Request) -> Response:
        deadline = None
        if request.deadline_ms is not None:
            deadline = time.monotonic() + request.deadline_ms / 1000.0
        # Correlation: bind the request's corr_id (minting one when the
        # event log is on) into the context so every event this request
        # causes — in admission, the engine worker thread (to_thread
        # copies the context), or the cache — carries it.
        previous_corr = None
        corr_bound = False
        if events.enabled():
            corr_id = request.corr_id
            if corr_id is None:
                corr_id = events.new_correlation_id()
            previous_corr = events.set_correlation_id(corr_id)
            corr_bound = True
        try:
            async with self.admission.admit(deadline):
                result = await asyncio.to_thread(
                    self.engine.handle, request.op, request.args
                )
        except DeadlineExceededError as exc:
            # Only admission raises this, before admission or while
            # queued; a burst of misses fires one flight dump.
            if self._burst.note(time.monotonic()):
                self._schedule_flight_dump("deadline-burst")
            return error_response(request.id, exc)
        except ServiceError as exc:
            return error_response(request.id, exc)
        except Exception as exc:  # noqa: BLE001 - protocol boundary
            return error_response(
                request.id, InternalError(f"{type(exc).__name__}: {exc}")
            )
        finally:
            if corr_bound:
                events.set_correlation_id(previous_corr)
        if request.op == "stats":
            result["admission"] = self.admission.stats().as_dict()
            result["server"] = {
                "open_connections": len(self._writers),
                "connections_total": self._connections_total,
            }
        return ok_response(request.id, result)

    # ------------------------------------------------------------------
    # Observability background work
    # ------------------------------------------------------------------
    def request_flight_dump(self, reason: str) -> None:
        """Queue one off-band flight dump — the SIGUSR2 / admin entry
        point; a no-op unless the engine has an ``on_flight_dump``
        sink installed."""
        self._schedule_flight_dump(reason)

    async def _run_ticker(self, interval: float) -> None:
        """Drive the time-series ring even while no requests arrive."""
        while True:
            await asyncio.sleep(interval)
            timeseries.maybe_sample()

    def _schedule_flight_dump(self, reason: str) -> None:
        """Run one engine flight dump off-band, serialized with engine
        work via an admission slot, so the bundle never reads the
        registry halfway through a request."""
        if self.engine.on_flight_dump is None:
            return

        async def dump() -> None:
            try:
                async with self.admission.admit(None):
                    await asyncio.to_thread(self.engine.dump_flight, reason)
            except Exception:  # noqa: BLE001 - forensic path, best-effort
                pass

        task = asyncio.get_running_loop().create_task(dump())
        self._flight_tasks.add(task)
        task.add_done_callback(self._flight_tasks.discard)


# ---------------------------------------------------------------------------
# Background-thread harness
# ---------------------------------------------------------------------------


class ServerHandle:
    """A running background server: its address and a stop switch."""

    def __init__(
        self,
        server: PathQueryServer,
        loop: asyncio.AbstractEventLoop,
        stop_event: asyncio.Event,
        thread: threading.Thread,
    ) -> None:
        self.server = server
        self._loop = loop
        self._stop_event = stop_event
        self._thread = thread

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def stop(self, timeout: float = 10.0) -> None:
        """Gracefully shut the server down and join its thread."""
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_in_thread(
    engine: PathQueryEngine,
    host: str = "127.0.0.1",
    port: int = 0,
    capacity: int = 64,
    retry_after_ms: int = 50,
) -> ServerHandle:
    """Start a :class:`PathQueryServer` on a daemon thread.

    Returns once the server is accepting connections; the handle exposes
    the bound address and :meth:`ServerHandle.stop` performs the
    graceful shutdown.  Raises whatever :meth:`PathQueryServer.start`
    raised (e.g. a port conflict).
    """
    ready = threading.Event()
    box: dict = {}

    async def main() -> None:
        server = PathQueryServer(
            engine,
            host=host,
            port=port,
            capacity=capacity,
            retry_after_ms=retry_after_ms,
        )
        stop_event = asyncio.Event()
        try:
            await server.start()
        except Exception as exc:  # noqa: BLE001 - reported to the caller
            box["error"] = exc
            ready.set()
            return
        box["server"] = server
        box["loop"] = asyncio.get_running_loop()
        box["stop"] = stop_event
        ready.set()
        await stop_event.wait()
        await server.shutdown()

    thread = threading.Thread(
        target=lambda: asyncio.run(main()),
        name="repro-service",
        daemon=True,
    )
    thread.start()
    ready.wait()
    if "error" in box:
        raise box["error"]
    return ServerHandle(box["server"], box["loop"], box["stop"], thread)


__all__ = [
    "PathQueryServer",
    "ServerHandle",
    "serve_in_thread",
]
