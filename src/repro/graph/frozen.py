"""A frozen, read-optimized graph view (CSR-style adjacency).

Static baselines and index construction only read adjacency; for large
runs the per-call ``dict``/``set`` machinery of
:class:`~repro.graph.digraph.DynamicDiGraph` costs noticeably more than
flat tuples.  :class:`FrozenDiGraph` snapshots a graph into immutable
tuple adjacency exposing the same read API the search code uses
(``out_neighbors`` / ``in_neighbors`` / ``has_edge`` / ``vertices``),
so every enumerator in the repository accepts it unchanged.

Like the live graph it carries an interned plane: its own
:class:`~repro.graph.interning.VertexInterner` (ids in vertex order) and
tuple-of-id adjacency behind ``int_adjacency()``, which is what the
byte-table distance maps walk.

It deliberately has no mutation API: dynamic algorithms need the live
graph.  ``thaw()`` converts back.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, Tuple

from repro.graph.digraph import DynamicDiGraph, Edge, Vertex
from repro.graph.interning import VertexInterner

_EMPTY: Tuple[Vertex, ...] = ()

#: Interned adjacency of a snapshot: ``plane[i]`` holds the neighbor ids
#: of the vertex with id ``i``.
IdPlane = Tuple[Tuple[int, ...], ...]


class FrozenDiGraph:
    """An immutable adjacency snapshot of a :class:`DynamicDiGraph`."""

    __slots__ = (
        "_out", "_in", "_out_sets", "_num_edges",
        "_interner", "_out_plane", "_in_plane",
    )

    def __init__(self, graph: DynamicDiGraph) -> None:
        self._out: Dict[Vertex, Tuple[Vertex, ...]] = {
            v: tuple(graph.out_neighbors(v)) for v in graph.vertices()
        }
        self._in: Dict[Vertex, Tuple[Vertex, ...]] = {
            v: tuple(graph.in_neighbors(v)) for v in graph.vertices()
        }
        self._out_sets: Dict[Vertex, FrozenSet[Vertex]] = {
            v: frozenset(succ) for v, succ in self._out.items()
        }
        self._num_edges = graph.num_edges
        self._interner = VertexInterner(self._out)
        ids = self._interner.ids()
        self._out_plane: IdPlane = tuple(
            tuple(ids[w] for w in succ) for succ in self._out.values()
        )
        self._in_plane: IdPlane = tuple(
            tuple(ids[w] for w in pred) for pred in self._in.values()
        )

    # ------------------------------------------------------------------
    # Read API (the subset every search algorithm uses)
    # ------------------------------------------------------------------
    def out_neighbors(self, v: Vertex) -> Tuple[Vertex, ...]:
        """``N_out(v)`` as an immutable tuple."""
        return self._out.get(v, _EMPTY)

    def in_neighbors(self, v: Vertex) -> Tuple[Vertex, ...]:
        """``N_in(v)`` as an immutable tuple."""
        return self._in.get(v, _EMPTY)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Whether edge ``(u, v)`` exists in the snapshot."""
        members = self._out_sets.get(u)
        return members is not None and v in members

    def has_vertex(self, v: Vertex) -> bool:
        """Whether ``v`` exists in the snapshot."""
        return v in self._out

    def vertices(self) -> Iterator[Vertex]:
        """All vertices."""
        return iter(self._out)

    def edges(self) -> Iterator[Edge]:
        """All edges."""
        for u, succ in self._out.items():
            for v in succ:
                yield (u, v)

    @property
    def num_vertices(self) -> int:
        """``|V|``."""
        return len(self._out)

    @property
    def num_edges(self) -> int:
        """``|E|``."""
        return self._num_edges

    def out_degree(self, v: Vertex) -> int:
        """Out-degree in the snapshot."""
        return len(self._out.get(v, _EMPTY))

    def in_degree(self, v: Vertex) -> int:
        """In-degree in the snapshot."""
        return len(self._in.get(v, _EMPTY))

    def degree(self, v: Vertex) -> int:
        """Total degree in the snapshot."""
        return self.out_degree(v) + self.in_degree(v)

    def int_adjacency(
        self, reverse: bool = False
    ) -> Tuple[IdPlane, VertexInterner]:
        """The interned adjacency: ``(id_plane, interner)``.

        Same contract as
        :meth:`~repro.graph.digraph.DynamicDiGraph.int_adjacency`:
        out-neighbor ids by default, in-neighbor ids with
        ``reverse=True``, in the tuple views' neighbor order.
        """
        return (self._in_plane if reverse else self._out_plane), self._interner

    # ------------------------------------------------------------------
    def reverse_view(self) -> "_FrozenReverse":
        """The reverse snapshot, zero-copy."""
        return _FrozenReverse(self)

    def thaw(self) -> DynamicDiGraph:
        """A mutable :class:`DynamicDiGraph` with the same content."""
        return DynamicDiGraph(self.edges(), vertices=self.vertices())

    def __contains__(self, v: Vertex) -> bool:
        return v in self._out

    def __len__(self) -> int:
        return len(self._out)

    def __repr__(self) -> str:
        return (
            f"FrozenDiGraph(num_vertices={self.num_vertices}, "
            f"num_edges={self.num_edges})"
        )


class _FrozenReverse:
    """Reverse read view of a :class:`FrozenDiGraph`."""

    __slots__ = ("_g",)

    def __init__(self, graph: FrozenDiGraph) -> None:
        self._g = graph

    def out_neighbors(self, v: Vertex) -> Tuple[Vertex, ...]:
        """Out in reverse = in of the snapshot."""
        return self._g.in_neighbors(v)

    def in_neighbors(self, v: Vertex) -> Tuple[Vertex, ...]:
        """In in reverse = out of the snapshot."""
        return self._g.out_neighbors(v)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Edge (u, v) exists iff (v, u) exists in the snapshot."""
        return self._g.has_edge(v, u)

    def has_vertex(self, v: Vertex) -> bool:
        """Same vertex set."""
        return self._g.has_vertex(v)

    def int_adjacency(
        self, reverse: bool = False
    ) -> Tuple[IdPlane, VertexInterner]:
        """The snapshot's interned adjacency with in/out roles swapped."""
        return self._g.int_adjacency(not reverse)

    def vertices(self) -> Iterator[Vertex]:
        """Same vertex set."""
        return self._g.vertices()

    @property
    def num_vertices(self) -> int:
        """``|V|``."""
        return self._g.num_vertices


__all__ = [
    "FrozenDiGraph",
]
