"""Admission control: bounded concurrency, deadlines, graceful drain.

The engine mutates shared state (one graph, many indexes), so request
*execution* is strictly serialized behind a lock.  What admission
control bounds is the *queue* in front of that lock:

- at most ``capacity`` requests may be admitted (queued + executing) at
  once; an arrival past the bound is rejected immediately with
  :class:`~repro.service.protocol.OverloadedError` carrying a
  ``retry_after_ms`` hint — backpressure instead of an unbounded queue;
- a request whose deadline elapses while it waits in the queue fails
  with :class:`~repro.service.protocol.DeadlineExceededError` without
  ever touching the engine (execution is not preempted: deadlines are
  admission deadlines, the paper-side work is microseconds);
- :meth:`AdmissionController.begin_shutdown` flips the gate — new
  arrivals get :class:`~repro.service.protocol.ShuttingDownError` —
  and :meth:`AdmissionController.drain` waits for everything already
  admitted to finish, so a server can stop without dropping accepted
  work.

All methods must be called from one event loop (the server's).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, AsyncIterator, Dict, Optional

from contextlib import asynccontextmanager

from repro import obs
from repro.obs import events
from repro.service.protocol import (
    DeadlineExceededError,
    OverloadedError,
    ShuttingDownError,
)


@dataclass
class AdmissionStats:
    """Counters describing the controller's traffic so far."""

    admitted: int = 0
    rejected_overload: int = 0
    rejected_shutdown: int = 0
    expired: int = 0
    in_flight: int = 0
    capacity: int = 0

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly view (for the ``stats`` protocol op)."""
        return {
            "admitted": self.admitted,
            "rejected_overload": self.rejected_overload,
            "rejected_shutdown": self.rejected_shutdown,
            "expired": self.expired,
            "in_flight": self.in_flight,
            "capacity": self.capacity,
        }


class AdmissionController:
    """Gate requests into a serialized execution section.

    Parameters
    ----------
    capacity:
        Maximum number of admitted requests (executing + queued).
    retry_after_ms:
        The backoff hint attached to overload rejections.
    """

    def __init__(self, capacity: int = 64, retry_after_ms: int = 50) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self.retry_after_ms = retry_after_ms
        self._lock = asyncio.Lock()
        self._pending = 0
        self._draining = False
        self._idle = asyncio.Event()
        self._idle.set()
        self._admitted = 0
        self._rejected_overload = 0
        self._rejected_shutdown = 0
        self._expired = 0

    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Requests currently admitted (queued + executing)."""
        return self._pending

    @property
    def draining(self) -> bool:
        """Whether :meth:`begin_shutdown` has been called."""
        return self._draining

    @asynccontextmanager
    async def admit(
        self, deadline: Optional[float] = None
    ) -> AsyncIterator[None]:
        """Admit one request and hold the execution lock for its body.

        ``deadline`` is an absolute :func:`time.monotonic` instant.
        Raises :class:`ShuttingDownError`, :class:`OverloadedError`, or
        :class:`DeadlineExceededError`; on success the caller runs its
        request inside the ``async with`` body, serialized against all
        other admitted requests.
        """
        if self._draining:
            self._rejected_shutdown += 1
            obs.incr("service.admission.rejected_shutdown")
            events.emit(events.REQUEST_REJECTED, reason="shutdown")
            raise ShuttingDownError("server is shutting down")
        if self._pending >= self.capacity:
            self._rejected_overload += 1
            obs.incr("service.admission.rejected_overload")
            events.emit(
                events.REQUEST_REJECTED,
                reason="overload",
                in_flight=self._pending,
            )
            raise OverloadedError(
                f"admission queue full ({self.capacity} in flight)",
                retry_after_ms=self.retry_after_ms,
            )
        if deadline is not None and time.monotonic() >= deadline:
            self._expired += 1
            obs.incr("service.admission.expired")
            events.emit(events.DEADLINE_EXCEEDED, where="pre_admission")
            raise DeadlineExceededError("deadline elapsed before admission")
        self._pending += 1
        self._idle.clear()
        observing = obs.enabled()
        if observing:
            obs.set_gauge("service.admission.queue_depth", self._pending)
            queued_at = time.monotonic()
        try:
            if not await self._acquire(deadline):
                self._expired += 1
                obs.incr("service.admission.expired")
                events.emit(events.DEADLINE_EXCEEDED, where="queued")
                raise DeadlineExceededError("deadline elapsed while queued")
            try:
                self._admitted += 1
                if observing:
                    obs.observe(
                        "service.admission.queue_wait.seconds",
                        time.monotonic() - queued_at,
                    )
                events.emit(events.QUERY_ADMITTED, in_flight=self._pending)
                yield
            finally:
                self._lock.release()
        finally:
            self._pending -= 1
            if observing:
                obs.set_gauge("service.admission.queue_depth", self._pending)
            if self._pending == 0:
                self._idle.set()

    async def _acquire(self, deadline: Optional[float]) -> bool:
        """Take the execution lock; False if ``deadline`` passed first."""
        if deadline is None:
            await self._lock.acquire()
            return True
        remaining = deadline - time.monotonic()
        try:
            await asyncio.wait_for(self._lock.acquire(), timeout=remaining)
        except asyncio.TimeoutError:
            return False
        return True

    # ------------------------------------------------------------------
    def begin_shutdown(self) -> None:
        """Stop admitting; already-admitted requests keep running."""
        self._draining = True

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until every admitted request has finished.

        Returns False if ``timeout`` (seconds) elapsed first.  Usually
        preceded by :meth:`begin_shutdown`; without it new arrivals can
        keep the controller busy indefinitely.
        """
        try:
            await asyncio.wait_for(self._idle.wait(), timeout=timeout)
            return True
        except asyncio.TimeoutError:
            return False

    # ------------------------------------------------------------------
    def stats(self) -> AdmissionStats:
        """A point-in-time snapshot of the admission counters."""
        return AdmissionStats(
            admitted=self._admitted,
            rejected_overload=self._rejected_overload,
            rejected_shutdown=self._rejected_shutdown,
            expired=self._expired,
            in_flight=self._pending,
            capacity=self.capacity,
        )


__all__ = [
    "AdmissionStats",
    "AdmissionController",
]
