"""Persistence for monitored queries: snapshot and restore an enumerator.

A long-running monitor (fraud watchlists run for months) should survive
process restarts without rebuilding its indexes from scratch.  This
module serializes a :class:`~repro.core.enumerator.CpeEnumerator` —
graph, query, join plan, the full partial path index and the direct-edge
flag — to a JSON document, and restores it without re-running the
construction.  Distance maps are rebuilt on load the way
:func:`~repro.core.construction.build_index` builds them: ``Dist_s`` by
a fresh BFS, ``Dist_t`` by a BFS pruned by it (``O(|V| + |E|)`` at
most, negligible next to the index).

Vertices must be JSON-representable scalars (``int`` or ``str``); the
experiment datasets use ``int`` throughout.  Tuples round-trip through
JSON lists.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.core.construction import map_horizon
from repro.core.distance import DistanceMap, JointMap
from repro.core.enumerator import CpeEnumerator
from repro.core.index import PartialPathIndex
from repro.core.plan import JoinPlan
from repro.graph.digraph import DynamicDiGraph

PathLike = Union[str, Path]

_FORMAT = "repro/cpe-snapshot"
_VERSION = 1


def snapshot(cpe: CpeEnumerator) -> dict:
    """The enumerator's full state as a JSON-compatible dict."""
    index = cpe.index
    return {
        "format": _FORMAT,
        "version": _VERSION,
        "query": {"s": cpe.s, "t": cpe.t, "k": cpe.k},
        "plan": [list(pair) for pair in index.plan.pairs],
        "direct_edge": index.direct_edge,
        "vertices": list(cpe.graph.vertices()),
        "edges": [list(edge) for edge in cpe.graph.edges()],
        "left": [list(path) for path in index.left.paths()],
        "right": [list(path) for path in index.right.paths()],
    }


def restore(state: dict) -> CpeEnumerator:
    """Rebuild an enumerator from a :func:`snapshot` dict."""
    if state.get("format") != _FORMAT:
        raise ValueError("not a CPE snapshot")
    if state.get("version") != _VERSION:
        raise ValueError(f"unsupported snapshot version {state.get('version')!r}")
    query = state["query"]
    s, t, k = query["s"], query["t"], query["k"]
    graph = DynamicDiGraph(
        edges=(tuple(edge) for edge in state["edges"]),
        vertices=state["vertices"],
    )
    plan = JoinPlan(k, tuple(tuple(pair) for pair in state["plan"]))
    # Deserialization rebuilds the index it owns from a snapshot that was
    # taken under the invariants; the maintenance layer takes over once
    # the enumerator is assembled.
    index = PartialPathIndex(s, t, k, plan)
    index.direct_edge = bool(state["direct_edge"])  # repro: noqa[R001]
    for raw in state["left"]:
        index.add_left(tuple(raw))  # repro: noqa[R001]
    for raw in state["right"]:
        index.add_right(tuple(raw))  # repro: noqa[R001]
    horizon = map_horizon(k)
    dist_s = DistanceMap(graph, s, horizon=horizon)
    dist_t = JointMap(graph.reverse_view(), t, dist_s)
    return CpeEnumerator.from_parts(graph, index, dist_s, dist_t)


def save_enumerator(cpe: CpeEnumerator, path: PathLike) -> None:
    """Write a snapshot to ``path`` as JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot(cpe), handle, separators=(",", ":"))


def load_enumerator(path: PathLike) -> CpeEnumerator:
    """Read a snapshot from ``path`` and restore the enumerator."""
    with open(path, "r", encoding="utf-8") as handle:
        return restore(json.load(handle))


__all__ = [
    "PathLike",
    "snapshot",
    "restore",
    "save_enumerator",
    "load_enumerator",
]
