"""A dynamic directed graph with O(1) expected-time edge updates.

The paper models a dynamic graph ``G = (V, E, U)``: a static vertex/edge
core plus a stream of edge updates ``e(u, v, +/-)``.  This module provides
the in-memory structure shared by the CPE core and every baseline:

- out- and in-adjacency stored as ``dict[vertex, set[vertex]]`` so that
  membership tests, insertions and deletions are O(1) expected;
- a zero-copy :meth:`DynamicDiGraph.reverse_view` whose edge ``(u, v)``
  exists iff ``(v, u)`` exists in the underlying graph (the paper's
  ``G^r``), kept live under updates;
- an optional bounded update journal for replay/debugging.

Vertices are arbitrary hashable objects; the experiment harness uses
``int`` vertices throughout.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.graph.interning import VertexInterner

Vertex = Hashable
Edge = Tuple[Vertex, Vertex]

#: Array typecode of the interned adjacency (C ``long long``, 8 bytes).
ID_TYPECODE = "q"

_EMPTY: FrozenSet[Vertex] = frozenset()


@dataclass(frozen=True)
class EdgeUpdate:
    """A single update ``e(u, v, +/-)`` from the paper's update stream ``U``.

    ``insert`` is True for an arrival (``+``) and False for an expiration
    (``-``).
    """

    u: Vertex
    v: Vertex
    insert: bool

    @property
    def edge(self) -> Edge:
        """The updated edge as a ``(u, v)`` tuple."""
        return (self.u, self.v)

    @property
    def symbol(self) -> str:
        """``'+'`` for insertion, ``'-'`` for deletion."""
        return "+" if self.insert else "-"

    def inverted(self) -> "EdgeUpdate":
        """The update that undoes this one."""
        return EdgeUpdate(self.u, self.v, not self.insert)

    def __str__(self) -> str:
        return f"e({self.u}, {self.v}, {self.symbol})"


class DynamicDiGraph:
    """A mutable directed graph without parallel edges.

    Self-loops are permitted in the structure (some real datasets contain
    them) but are irrelevant to simple-path enumeration and are skipped by
    the enumeration algorithms.

    Parameters
    ----------
    edges:
        Optional iterable of ``(u, v)`` pairs forming the static core.
    vertices:
        Optional iterable of vertices to pre-register (isolated vertices
        are legal).
    """

    __slots__ = ("_out", "_in", "_num_edges", "_interner", "_out_ids", "_in_ids")

    def __init__(
        self,
        edges: Optional[Iterable[Edge]] = None,
        vertices: Optional[Iterable[Vertex]] = None,
    ) -> None:
        # Adjacency is stored as insertion-ordered dict-backed sets
        # (``Dict[Vertex, None]`` exposed as a ``KeysView``) rather than
        # ``set`` so that neighbor iteration order is a deterministic
        # function of the edge-arrival sequence.  This makes enumeration
        # order reproducible across graph rebuilds — in particular a
        # graph restored from :func:`repro.core.serialize.restore`
        # enumerates paths in exactly the same order as the original.
        self._out: Dict[Vertex, Dict[Vertex, None]] = {}
        self._in: Dict[Vertex, Dict[Vertex, None]] = {}
        self._num_edges = 0
        # The interned plane: every vertex gets a dense int id at
        # registration time, and the adjacency is mirrored as flat int-id
        # arrays (one growable ``array('q')`` per vertex id, same neighbor
        # order as the dict plane).  The array plane is what the
        # hop-capped BFS reads; the dict plane stays the compatibility
        # view for arbitrary-hashable callers.
        self._interner = VertexInterner()
        self._out_ids: List[array[int]] = []
        self._in_ids: List[array[int]] = []
        if vertices is not None:
            for v in vertices:
                self.add_vertex(v)
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v)

    # ------------------------------------------------------------------
    # Vertex operations
    # ------------------------------------------------------------------
    def add_vertex(self, v: Vertex) -> bool:
        """Register ``v``; returns True if it was new."""
        if v in self._out:
            return False
        self._out[v] = {}
        self._in[v] = {}
        iid = self._interner.intern(v)
        if iid == len(self._out_ids):
            self._out_ids.append(array(ID_TYPECODE))
            self._in_ids.append(array(ID_TYPECODE))
        return True

    def remove_vertex(self, v: Vertex) -> bool:
        """Remove ``v`` and all incident edges; returns True if present."""
        if v not in self._out:
            return False
        for w in tuple(self._out[v]):
            self.remove_edge(v, w)
        for w in tuple(self._in[v]):
            self.remove_edge(w, v)
        del self._out[v]
        del self._in[v]
        return True

    def has_vertex(self, v: Vertex) -> bool:
        """Whether ``v`` is registered."""
        return v in self._out

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over all vertices (insertion order)."""
        return iter(self._out)

    @property
    def num_vertices(self) -> int:
        """``|V|``."""
        return len(self._out)

    # ------------------------------------------------------------------
    # Edge operations
    # ------------------------------------------------------------------
    def add_edge(self, u: Vertex, v: Vertex) -> bool:
        """Insert edge ``(u, v)``; returns True if it was new.

        Endpoints are registered automatically.
        """
        self.add_vertex(u)
        self.add_vertex(v)
        out_u = self._out[u]
        if v in out_u:
            return False
        out_u[v] = None
        self._in[v][u] = None
        uid = self._interner.id_of(u)
        vid = self._interner.id_of(v)
        self._out_ids[uid].append(vid)
        self._in_ids[vid].append(uid)
        self._num_edges += 1
        return True

    def remove_edge(self, u: Vertex, v: Vertex) -> bool:
        """Delete edge ``(u, v)``; returns True if it existed."""
        out_u = self._out.get(u)
        if out_u is None or v not in out_u:
            return False
        del out_u[v]
        del self._in[v][u]
        uid = self._interner.id_of(u)
        vid = self._interner.id_of(v)
        self._out_ids[uid].remove(vid)
        self._in_ids[vid].remove(uid)
        self._num_edges -= 1
        return True

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Whether edge ``(u, v)`` exists."""
        out_u = self._out.get(u)
        return out_u is not None and v in out_u

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges as ``(u, v)`` pairs (insertion order)."""
        for u, succ in self._out.items():
            for v in succ:
                yield (u, v)

    @property
    def num_edges(self) -> int:
        """``|E|``."""
        return self._num_edges

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------
    def out_neighbors(self, v: Vertex) -> AbstractSet[Vertex]:
        """``N_out(v)`` — live set of out-going neighbors (empty if absent).

        The returned object is a live, read-only view over the internal
        adjacency; callers must not mutate it.  Iteration follows edge
        insertion order, so neighbor order is deterministic.
        """
        succ = self._out.get(v)
        return _EMPTY if succ is None else succ.keys()

    def in_neighbors(self, v: Vertex) -> AbstractSet[Vertex]:
        """``N_in(v)`` — live set of in-going neighbors (empty if absent)."""
        pred = self._in.get(v)
        return _EMPTY if pred is None else pred.keys()

    def out_degree(self, v: Vertex) -> int:
        """Number of out-going edges of ``v``."""
        return len(self._out.get(v, _EMPTY))

    def in_degree(self, v: Vertex) -> int:
        """Number of in-going edges of ``v``."""
        return len(self._in.get(v, _EMPTY))

    def degree(self, v: Vertex) -> int:
        """Total degree (in + out)."""
        return self.out_degree(v) + self.in_degree(v)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def apply_update(self, update: EdgeUpdate) -> bool:
        """Apply one :class:`EdgeUpdate`; returns True if it changed ``G``."""
        if update.insert:
            return self.add_edge(update.u, update.v)
        return self.remove_edge(update.u, update.v)

    def apply_updates(self, updates: Iterable[EdgeUpdate]) -> int:
        """Apply a stream of updates; returns how many changed ``G``."""
        return sum(1 for upd in updates if self.apply_update(upd))

    # ------------------------------------------------------------------
    # Views and copies
    # ------------------------------------------------------------------
    def reverse_view(self) -> "_ReverseView":
        """The reverse graph ``G^r`` as a live, zero-copy view."""
        return _ReverseView(self)

    def copy(self) -> "DynamicDiGraph":
        """An independent deep copy of the adjacency structure."""
        g = DynamicDiGraph()
        g._out = {v: dict(succ) for v, succ in self._out.items()}
        g._in = {v: dict(pred) for v, pred in self._in.items()}
        g._num_edges = self._num_edges
        g._interner = self._interner.clone()
        g._out_ids = [array(ID_TYPECODE, a) for a in self._out_ids]
        g._in_ids = [array(ID_TYPECODE, a) for a in self._in_ids]
        return g

    def induced_subgraph(self, keep: Set[Vertex]) -> "DynamicDiGraph":
        """The subgraph induced by ``keep`` (the paper's ``G_sub``)."""
        g = DynamicDiGraph(vertices=(v for v in keep if v in self._out))
        for u in keep:
            for v in self._out.get(u, _EMPTY):
                if v in keep:
                    g.add_edge(u, v)
        return g

    # ------------------------------------------------------------------
    # Interned array plane
    # ------------------------------------------------------------------
    @property
    def interner(self) -> VertexInterner:
        """The graph's vertex interner (read-only use expected).

        Every registered vertex has a dense id; ids are assigned in
        registration order and survive vertex removal (a re-added vertex
        keeps its id), so they are stable array indexes.
        """
        return self._interner

    def int_adjacency(
        self, reverse: bool = False
    ) -> Tuple[List[array[int]], VertexInterner]:
        """The live interned adjacency: ``(id_arrays, interner)``.

        ``id_arrays[i]`` is the flat ``array('q')`` of neighbor ids of
        the vertex with id ``i`` — out-neighbors by default,
        in-neighbors with ``reverse=True`` — in the same order as the
        dict-plane neighbor views.  The arrays are the graph's own
        internals: callers must treat them as read-only (lint rule R013
        enforces this outside the graph/maintenance layers).
        """
        return (self._in_ids if reverse else self._out_ids), self._interner

    def __contains__(self, v: Vertex) -> bool:
        return v in self._out

    def __len__(self) -> int:
        return len(self._out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DynamicDiGraph):
            return NotImplemented
        return self._out == other._out

    def __repr__(self) -> str:
        return (
            f"DynamicDiGraph(num_vertices={self.num_vertices}, "
            f"num_edges={self.num_edges})"
        )


class _ReverseView:
    """Read-only live reverse of a :class:`DynamicDiGraph`.

    Exposes the adjacency subset of the graph API that the search
    algorithms use, with in/out roles swapped.  Mutations must go through
    the underlying graph.
    """

    __slots__ = ("_g",)

    def __init__(self, graph: DynamicDiGraph) -> None:
        self._g = graph

    def out_neighbors(self, v: Vertex) -> AbstractSet[Vertex]:
        """Out-neighbors in the reverse graph = in-neighbors in ``G``."""
        return self._g.in_neighbors(v)

    def in_neighbors(self, v: Vertex) -> AbstractSet[Vertex]:
        """In-neighbors in the reverse graph = out-neighbors in ``G``."""
        return self._g.out_neighbors(v)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Edge ``(u, v)`` in the view exists iff ``(v, u)`` exists in ``G``."""
        return self._g.has_edge(v, u)

    def has_vertex(self, v: Vertex) -> bool:
        """Same vertex set as the underlying graph."""
        return self._g.has_vertex(v)

    def int_adjacency(
        self, reverse: bool = False
    ) -> Tuple[List[array[int]], VertexInterner]:
        """The interned adjacency with in/out roles swapped."""
        return self._g.int_adjacency(not reverse)

    def vertices(self) -> Iterator[Vertex]:
        """Same vertex set as the underlying graph."""
        return self._g.vertices()

    @property
    def num_vertices(self) -> int:
        """``|V|`` of the underlying graph."""
        return self._g.num_vertices

    @property
    def num_edges(self) -> int:
        """``|E|`` of the underlying graph."""
        return self._g.num_edges

    def __contains__(self, v: Vertex) -> bool:
        return v in self._g

    def __repr__(self) -> str:
        return f"_ReverseView({self._g!r})"


__all__ = [
    "Vertex",
    "Edge",
    "ID_TYPECODE",
    "EdgeUpdate",
    "DynamicDiGraph",
]
