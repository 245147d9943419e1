"""Span recording around the layers' public functions, from outside.

A :class:`Recorder` keeps spans in memory.  A span has a name, a start
and end instant (``time.perf_counter``, which is the system-wide
monotonic clock on Linux, so server and client spans share one time
line), its parent (the enclosing span of the same thread, or none), and
one integer payload whose meaning depends on the span (a path count, a
byte count, a cache outcome).  Every thread has its own span stack: the
server runs ``PathQueryEngine.handle`` on a worker thread and encodes
replies on the event-loop thread.  :class:`Spans` is the merged, flat
form that is written to a file when the server stops.

:func:`install_server_wrappers` replaces the public boundaries of every
layer a request crosses with timed wrappers.  Nothing under ``src/``
changes; the wrappers call the same functions production calls.
"""

from __future__ import annotations

import array
import functools
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

Counter = Callable[[Tuple[Any, ...], Any], int]


#: Values stored per span: id, name id, parent id, start, end, payload.
_FIELDS = 6


class _PerThread(threading.local):
    """One thread's open-span stack and finished spans (flat doubles)."""

    def __init__(self, buffers: List[array.array], lock: threading.Lock) -> None:
        self.stack: List[int] = []
        self.data = array.array("d")
        with lock:
            buffers.append(self.data)


class Spans:
    """All recorded spans as parallel arrays indexed by span id; a
    parent's id is smaller than its children's, ``parent`` is -1 for a
    root and ``name`` is -1 for an id that recorded nothing."""

    def __init__(self, names: List[str], name, parent, start, end, n) -> None:
        self.names = names
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.n = n

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path: str) -> None:
        with open(path, "wb") as fh:
            header = {"names": self.names, "count": len(self)}
            fh.write((json.dumps(header) + "\n").encode("utf-8"))
            for column in (self.name, self.parent, self.start, self.end, self.n):
                column.tofile(fh)

    @classmethod
    def read(cls, path: str) -> "Spans":
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            count = header["count"]
            columns = []
            for code in ("i", "q", "d", "d", "q"):
                column = array.array(code)
                column.fromfile(fh, count)
                columns.append(column)
        return cls(header["names"], *columns)


class Recorder:
    """In-memory span sink shared by every wrapper of one process.

    A span is six doubles appended to its thread's buffer when it ends,
    keyed by an id drawn when it starts; a wrapper does little besides
    reading the clock twice, and a span costs 48 bytes.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._buffers: List[array.array] = []
        self._local = _PerThread(self._buffers, self._lock)
        self._next_id = itertools.count()

    def name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            return self._name_ids[name]

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        count: Optional[Counter] = None,
        name_of: Optional[Callable[[Tuple[Any, ...]], str]] = None,
    ) -> Callable[..., Any]:
        """``fn`` recording one span per call.

        ``count(args, result)`` fills the span's integer payload;
        ``name_of(args)`` picks a per-call span name (e.g. by op).
        """
        fixed = self.name_id(name) if name_of is None else -1
        per_call: Dict[str, int] = {}
        clock = time.perf_counter
        local = self._local
        next_id = self._next_id

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            # The clock reads bracket the wrapper's own bookkeeping, so
            # that cost lands in this span, not in its parent's self time.
            start = clock()
            nid = fixed
            if name_of is not None:
                key = name_of(args)
                nid = per_call.get(key, -1)
                if nid < 0:
                    nid = per_call[key] = self.name_id(key)
            stack = local.stack
            sid = next(next_id)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
            n = 0 if count is None else count(args, result)
            local.data.extend((sid, nid, parent, start, clock(), n))
            return result

        return traced

    def record(self, name: str, start: float, end: float, n: int = 0) -> None:
        """One span measured by the caller."""
        stack = self._local.stack
        self._local.data.extend((next(self._next_id), self.name_id(name),
                                 stack[-1] if stack else -1, start, end, n))

    def spans(self) -> Spans:
        total = next(self._next_id)
        name = array.array("i", [-1]) * total
        parent = array.array("q", [-1]) * total
        start = array.array("d", [0.0]) * total
        end = array.array("d", [0.0]) * total
        n = array.array("q", [0]) * total
        with self._lock:
            buffers = list(self._buffers)
        for data in buffers:
            for i in range(0, len(data), _FIELDS):
                sid = int(data[i])
                name[sid] = int(data[i + 1])
                parent[sid] = int(data[i + 2])
                start[sid] = data[i + 3]
                end[sid] = data[i + 4]
                n[sid] = int(data[i + 5])
        return Spans(list(self.names), name, parent, start, end, n)


def _size(args: Tuple[Any, ...], result: Any) -> int:
    return len(result)


def _patch_method(recorder: Recorder, cls: type, attr: str, name: str,
                  count: Optional[Counter] = None, **kw: Any) -> None:
    setattr(cls, attr, recorder.wrap(getattr(cls, attr), name, count, **kw))


def _patch_function(recorder: Recorder, module: Any, attr: str, name: str,
                    count: Optional[Counter] = None,
                    eager: bool = False) -> None:
    """Rebind ``module.attr`` in its own module and every ``repro`` module
    that imported it by name."""
    original = getattr(module, attr)
    target = original
    if eager:
        # A generator's work happens while the caller iterates; build the
        # list inside the span so the span covers it (callers iterate once).
        def target(*args: Any, **kwargs: Any) -> List[Any]:
            return list(original(*args, **kwargs))
    wrapped = recorder.wrap(target, name, count)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "repro" and getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapped)


class _TimedAdmit:
    """Async context manager timing the wait before admission."""

    __slots__ = ("_inner", "_recorder")

    def __init__(self, inner: Any, recorder: Recorder) -> None:
        self._inner = inner
        self._recorder = recorder

    async def __aenter__(self) -> Any:
        started = time.perf_counter()
        result = await self._inner.__aenter__()
        self._recorder.record("admission.wait", started, time.perf_counter())
        return result

    async def __aexit__(self, *exc_info: Any) -> Any:
        return await self._inner.__aexit__(*exc_info)


def install_server_wrappers(recorder: Recorder) -> None:
    """Wrap every layer boundary a served request crosses."""
    import repro.service.engine as engine_mod
    from repro.core import construction, enumeration
    from repro.core.distance import DistanceMap
    from repro.core.enumerator import CpeEnumerator
    from repro.core.maintenance import IndexMaintainer
    from repro.core.monitor import MultiPairMonitor
    from repro.graph.digraph import DynamicDiGraph
    from repro.service.admission import AdmissionController
    from repro.service.cache import IndexCache
    from repro.service.engine import PathQueryEngine
    from repro.service.protocol import Response

    _patch_method(recorder, PathQueryEngine, "handle", "engine.handle",
                  name_of=lambda args: "engine.handle." + args[1])
    engine_mod.encode_paths = recorder.wrap(
        engine_mod.encode_paths, "protocol.encode_paths", _size)
    _patch_method(recorder, Response, "to_wire", "protocol.to_wire", _size)

    original_admit = AdmissionController.admit

    def admit(self: AdmissionController, deadline: Optional[float] = None) -> Any:
        return _TimedAdmit(original_admit(self, deadline), recorder)

    AdmissionController.admit = admit  # type: ignore[assignment]

    _patch_method(recorder, IndexCache, "get_or_build", "cache.get_or_build",
                  lambda args, result: 1 if result.outcome == "hit" else 0)
    _patch_method(recorder, IndexCache, "observe_all", "cache.observe_all", _size)
    _patch_method(recorder, MultiPairMonitor, "observe", "monitor.observe", _size)
    _patch_method(recorder, CpeEnumerator, "observe", "cpe.observe",
                  lambda args, result: len(result.paths))
    _patch_method(recorder, CpeEnumerator, "startup", "cpe.startup", _size)
    _patch_function(recorder, construction, "build_index",
                    "construction.build_index")
    _patch_method(recorder, DistanceMap, "__init__", "distance.bfs",
                  lambda args, result: len(args[0]))
    _patch_method(recorder, DistanceMap, "relax_insert",
                  "distance.relax_insert", _size)
    _patch_method(recorder, DistanceMap, "tighten_delete",
                  "distance.tighten_delete", _size)
    partials: Counter = lambda args, result: result.delta_partial_paths
    _patch_method(recorder, IndexMaintainer, "insert_edge",
                  "maintenance.insert_edge", partials)
    _patch_method(recorder, IndexMaintainer, "delete_edge",
                  "maintenance.delete_edge", partials)
    _patch_method(recorder, IndexMaintainer, "apply_removals",
                  "maintenance.apply_removals")
    _patch_function(recorder, enumeration, "enumerate_full_list",
                    "enumeration.full", _size)
    _patch_function(recorder, enumeration, "enumerate_delta",
                    "enumeration.delta", _size, eager=True)
    _patch_method(recorder, DynamicDiGraph, "apply_update", "graph.apply_update",
                  lambda args, result: int(bool(result)))


def install_client_wrappers(recorder: Recorder) -> None:
    """Wrap the client-side decode functions the benchmark's loop calls."""
    import repro.service.client as client_mod

    client_mod.decode_response = recorder.wrap(
        client_mod.decode_response, "client.decode_response",
        lambda args, result: len(args[0]))
    client_mod.decode_paths = recorder.wrap(
        client_mod.decode_paths, "client.decode_paths", _size)
