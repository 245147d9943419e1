"""Dense-int vertex interning: the id space of the array-backed core.

The hot paths of the CPE core (adjacency scans, distance BFS, join-probe
bitmasks) run on flat arrays indexed by *interned ids* — dense ``int``
ids assigned to vertices in first-seen order.  A
:class:`VertexInterner` is the bidirectional mapping between arbitrary
hashable vertices and that dense id space:

- ids are assigned ``0, 1, 2, ...`` in insertion order and **never
  change or get reused for a different vertex** — an id is a stable
  array index for the lifetime of the interner;
- insertion order is the only order: two interners fed the same vertex
  sequence assign identical ids, which is what keeps answers
  byte-identical across graph rebuilds and snapshot restores.

The graph layer owns one interner per
:class:`~repro.graph.digraph.DynamicDiGraph` (every registered vertex
is interned).  The index's join masks use their own
private bit space instead (:class:`repro.core.index.BitSpace`).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Mapping, Optional

Vertex = Hashable


class VertexInterner:
    """A stable, insertion-ordered ``vertex <-> dense int id`` mapping.

    Parameters
    ----------
    vertices:
        Optional initial vertices, interned in iteration order.
    """

    __slots__ = ("_ids", "_vertices")

    def __init__(self, vertices: Optional[Iterable[Vertex]] = None) -> None:
        self._ids: Dict[Vertex, int] = {}
        self._vertices: List[Vertex] = []
        if vertices is not None:
            for v in vertices:
                self.intern(v)

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------
    def intern(self, v: Vertex) -> int:
        """The id of ``v``, assigning the next dense id if it is new."""
        iid = self._ids.get(v)
        if iid is None:
            iid = len(self._vertices)
            self._ids[v] = iid
            self._vertices.append(v)
        return iid

    def id_of(self, v: Vertex) -> int:
        """The id of ``v``; raises :class:`KeyError` if never interned."""
        return self._ids[v]

    def get(self, v: Vertex, default: int = -1) -> int:
        """The id of ``v``, or ``default`` if never interned."""
        return self._ids.get(v, default)

    def vertex_of(self, iid: int) -> Vertex:
        """The vertex with id ``iid``; raises :class:`IndexError` if unassigned."""
        return self._vertices[iid]

    def vertices(self) -> List[Vertex]:
        """The live id-ordered vertex list (``vertices()[i]`` has id ``i``).

        Callers must treat the returned list as read-only; it *is* the
        interner's internal table, exposed without a copy because the
        array-backed hot paths index it per emitted vertex.
        """
        return self._vertices

    def ids(self) -> Mapping[Vertex, int]:
        """The live ``vertex -> id`` mapping (``ids()[v] == id_of(v)``).

        The read-only counterpart of :meth:`vertices`: hot loops that
        translate many vertices subscript it directly instead of paying
        a method call per vertex.  It grows as vertices are interned.
        """
        return self._ids

    # ------------------------------------------------------------------
    # Copies
    # ------------------------------------------------------------------
    def clone(self) -> "VertexInterner":
        """An independent copy with identical id assignments."""
        twin = object.__new__(VertexInterner)
        twin._ids = dict(self._ids)
        twin._vertices = list(self._vertices)
        return twin

    # ------------------------------------------------------------------
    # Dunder
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._vertices)

    def __contains__(self, v: Vertex) -> bool:
        return v in self._ids

    def __iter__(self) -> Iterator[Vertex]:
        """Iterate vertices in id (= insertion) order."""
        return iter(self._vertices)

    def __repr__(self) -> str:
        return f"VertexInterner(size={len(self._vertices)})"


__all__ = [
    "VertexInterner",
]
