"""Hop-capped dynamic shortest-distance maps (``Dist_s`` / ``Dist_t``).

The CPE index stores a partial path only while it can still extend to a
full k-st path, which is decided with the shortest distances from ``s``
(``Dist_s``) and to ``t`` (``Dist_t``).  Both maps must stay exact under
edge insertions and deletions; this module implements:

- a plain BFS build capped at a hop *horizon* (distances beyond the
  horizon are equivalent for every admissibility test, so they are
  represented by a single ``FAR`` sentinel — the paper computes the map
  "for vertices within k-1 hops" for the same reason);
- :meth:`DistanceMap.relax_insert` — the paper's Algorithm 3: after an
  edge arrives, decreases spread from its head in BFS order (Theorem 5);
- :meth:`DistanceMap.tighten_delete` — the paper's Algorithm 5: after an
  edge expires, the affected set is identified in increasing-distance
  order (so a vertex is classified only after all of its potential
  shortest-path parents) and then re-settled with a bucket-ordered
  unit-weight Dijkstra from the unaffected boundary.

A map *is* a one-byte-per-vertex table indexed by the graph's interned
vertex ids (``far`` marks a vertex beyond the horizon), and the build
and both repairs walk the view's ``int_adjacency()`` id arrays; vertex
labels appear only at the API boundary.  A ``Dist_t`` map is simply a
``DistanceMap`` built over the graph's reverse view.
"""

from __future__ import annotations

from collections import deque
from itertools import compress
from operator import add
from typing import Dict, Iterator, List, Sequence, Set, Tuple

from repro.graph.digraph import Vertex
from repro.graph.interning import VertexInterner

#: Largest horizon a map accepts: ``far = horizon + 1`` must fit the
#: one-byte table.
MAX_HORIZON = 253

Changes = Dict[Vertex, Tuple[int, int]]


class DistanceMap:
    """Shortest hop distances from ``source`` in a graph view.

    Parameters
    ----------
    view:
        A graph view exposing ``int_adjacency(reverse=False)`` and
        ``out_neighbors`` (a :class:`~repro.graph.digraph.DynamicDiGraph`,
        a :class:`~repro.graph.frozen.FrozenDiGraph`, or either one's
        reverse view).  The view must reflect graph mutations *before*
        the corresponding ``relax_insert`` / ``tighten_delete`` call.
    source:
        The BFS source.  It need not be registered in the view yet: an
        unregistered source sits at distance 0 with nothing else known.
    horizon:
        Distances above ``horizon`` are reported as :attr:`far`
        (= ``horizon + 1``); at most :data:`MAX_HORIZON`.
    """

    __slots__ = (
        "_view", "source", "horizon", "far", "_interner", "_ids", "_table",
    )

    def __init__(self, view, source: Vertex, horizon: int) -> None:
        if horizon < 0:
            raise ValueError("horizon must be non-negative")
        if horizon > MAX_HORIZON:
            raise ValueError(
                f"horizon {horizon} exceeds the distance table's bound "
                f"of {MAX_HORIZON}"
            )
        self._view = view
        self.source = source
        self.horizon = horizon
        self.far = far = horizon + 1
        adjacency, interner = view.int_adjacency()
        self._interner: VertexInterner = interner
        self._ids = interner.ids()
        self._table = table = bytearray([far]) * len(interner)
        source_id = self._ids.get(source, -1)
        if source_id < 0:
            return
        table[source_id] = 0
        order = [source_id]
        head = 0
        while head < len(order):
            u = order[head]
            head += 1
            du = table[u]
            if du >= horizon:
                continue
            dv = du + 1
            for v in adjacency[u]:
                if table[v] == far:
                    table[v] = dv
                    order.append(v)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def get(self, v: Vertex) -> int:
        """Distance from the source to ``v`` (``far`` if above horizon)."""
        iid = self._ids.get(v, -1)
        table = self._table
        if 0 <= iid < len(table):
            return table[iid]
        return 0 if v == self.source else self.far

    @property
    def interner(self) -> VertexInterner:
        """The view's interner, whose ids index :meth:`table`."""
        return self._interner

    def table(self) -> bytearray:
        """The live distance table: ``table()[interner.ids()[v]] == get(v)``.

        One byte per interned vertex id, :attr:`far` beyond the horizon.
        The table first grows to cover vertices the view registered
        since the last repair (they are far, except a newly registered
        source, which is 0).  Hot loops read it directly; callers must
        treat it as read-only.
        """
        table = self._table
        missing = len(self._ids) - len(table)
        if missing > 0:
            grown_from = len(table)
            table.extend(bytes([self.far]) * missing)
            source_id = self._ids.get(self.source, -1)
            if source_id >= grown_from:
                table[source_id] = 0
        return table

    def known(self) -> Iterator[Tuple[Vertex, int]]:
        """All ``(vertex, distance)`` pairs within the horizon, in id order."""
        far = self.far
        vertex_of = self._interner.vertices()
        for iid, d in enumerate(self.table()):
            if d != far:
                yield vertex_of[iid], d
        if self.source not in self._ids:
            yield self.source, 0

    def clone(self) -> "DistanceMap":
        """An independent copy sharing the graph view but not the state.

        A clone is indistinguishable from a freshly built map over the
        same view, which is what lets one BFS pass seed many query
        indexes (the service cache's miss path): each consumer's
        maintainer mutates its own clone, never the shared master.
        """
        twin = object.__new__(DistanceMap)
        twin._view = self._view
        twin.source = self.source
        twin.horizon = self.horizon
        twin.far = self.far
        twin._interner = self._interner
        twin._ids = self._ids
        twin._table = bytearray(self._table)
        return twin

    def __len__(self) -> int:
        table = self.table()
        return (
            len(table) - table.count(self.far) + (self.source not in self._ids)
        )

    def __contains__(self, v: Vertex) -> bool:
        return self.get(v) != self.far

    def __repr__(self) -> str:
        return (
            f"DistanceMap(source={self.source!r}, horizon={self.horizon}, "
            f"known={len(self)})"
        )

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def relax_insert(self, u: Vertex, v: Vertex) -> Changes:
        """Repair the map after edge ``(u, v)`` was inserted into the view.

        Implements the paper's Algorithm 3: if the new edge shortens the
        distance of ``v``, the decrease spreads from ``v`` in a tree form
        (Theorem 5), so a BFS over strictly-improving vertices suffices.
        The BFS queue holds non-decreasing distances, so a vertex's first
        decrease is its last.

        Returns ``{vertex: (old_distance, new_distance)}`` for every
        vertex whose distance decreased (``old_distance`` may be
        :attr:`far`), in BFS order.
        """
        changed: Changes = {}
        start = self.get(u) + 1
        if start > self.horizon or start >= self.get(v):
            return changed
        table = self.table()
        adjacency = self._view.int_adjacency()[0]
        vertex_of = self._interner.vertices()
        horizon = self.horizon
        vid = self._ids[v]
        changed[v] = (table[vid], start)
        table[vid] = start
        queue = [vid]
        head = 0
        while head < len(queue):
            w = queue[head]
            head += 1
            dw = table[w]
            if dw >= horizon:
                continue
            cand = dw + 1
            for y in adjacency[w]:
                old = table[y]
                if cand < old:
                    changed[vertex_of[y]] = (old, cand)
                    table[y] = cand
                    queue.append(y)
        return changed

    def tighten_delete(self, u: Vertex, v: Vertex) -> Changes:
        """Repair the map after edge ``(u, v)`` was deleted from the view.

        Implements the paper's Algorithm 5 in its textbook-correct form
        (unit-weight Ramalingam–Reps):

        1. If ``(u, v)`` was not a shortest-path tree edge, nothing moves.
        2. Otherwise identify the *affected set* — vertices all of whose
           shortest-path parents are themselves affected — by processing
           candidates in increasing old-distance order, which makes the
           classification well-founded.
        3. Re-settle affected vertices by a bucket-ordered unit-weight
           Dijkstra seeded from their unaffected in-neighbors; vertices
           ending beyond the horizon fall out of the map (become far).

        Returns ``{vertex: (old_distance, new_distance)}`` for every
        vertex whose distance increased (``new_distance`` may be
        :attr:`far`): settled vertices in settle order, then the ones
        that fell beyond the horizon.
        """
        old_v = self.get(v)
        if old_v > self.horizon or self.get(u) + 1 != old_v:
            return {}
        table = self.table()
        out_adjacency = self._view.int_adjacency()[0]
        in_adjacency = self._view.int_adjacency(reverse=True)[0]
        vid = self._ids[v]
        # Fast path: v keeps its distance through another parent.
        if any(table[x] + 1 == old_v for x in in_adjacency[vid]):
            return {}
        affected = self._affected_set(vid, table, out_adjacency, in_adjacency)
        return self._resettle(affected, table, out_adjacency, in_adjacency)

    def _affected_set(
        self,
        vid: int,
        table: bytearray,
        out_adjacency: Sequence[Sequence[int]],
        in_adjacency: Sequence[Sequence[int]],
    ) -> Set[int]:
        """Phase 1: ids of the vertices whose distance must increase.

        Candidates are explored along shortest-path tree edges and
        classified one old-distance level at a time: a candidate at
        distance ``d`` is affected iff it has no unaffected in-neighbor
        at ``d - 1``, and only affected vertices propagate candidates to
        level ``d + 1``.  (When ``_affected_set`` is called, ``vid`` is
        already known to have lost all of its parents.)
        """
        horizon = self.horizon
        affected: Set[int] = {vid}
        seen: Set[int] = {vid}
        level = [vid]
        d = table[vid]
        # Children of a vertex at the horizon sit beyond it (far already).
        while level and d < horizon:
            parent_d = d
            d += 1
            candidates: List[int] = []
            for w in level:
                for y in out_adjacency[w]:
                    if table[y] == d and y not in seen:
                        seen.add(y)
                        candidates.append(y)
            level = []
            for y in candidates:
                for x in in_adjacency[y]:
                    if table[x] == parent_d and x not in affected:
                        break  # a live shortest-path parent
                else:
                    affected.add(y)
                    level.append(y)
        return affected

    def _resettle(
        self,
        affected: Set[int],
        table: bytearray,
        out_adjacency: Sequence[Sequence[int]],
        in_adjacency: Sequence[Sequence[int]],
    ) -> Changes:
        """Phase 2: bucket Dijkstra over the affected set."""
        far = self.far
        horizon = self.horizon
        old: Dict[int, int] = {w: table[w] for w in affected}
        tentative: Dict[int, int] = {}
        buckets: Dict[int, List[int]] = {}
        for w in affected:
            best = far
            for x in in_adjacency[w]:
                if x not in affected:
                    dx = table[x] + 1
                    if dx < best:
                        best = dx
            if best <= horizon:
                tentative[w] = best
                buckets.setdefault(best, []).append(w)

        vertex_of = self._interner.vertices()
        changed: Changes = {}
        settled: Set[int] = set()
        for d in range(0, horizon + 1):
            bucket = buckets.pop(d, None)
            if bucket is None:
                continue
            nd = d + 1
            for w in bucket:
                if w in settled or tentative[w] != d:
                    continue
                settled.add(w)
                table[w] = d
                if d != old[w]:
                    changed[vertex_of[w]] = (old[w], d)
                if nd > horizon:
                    continue
                for y in out_adjacency[w]:
                    if (
                        y in affected
                        and y not in settled
                        and nd < tentative.get(y, far)
                    ):
                        tentative[y] = nd
                        buckets.setdefault(nd, []).append(y)
        for w in affected:
            if w not in settled:
                table[w] = far
                changed[vertex_of[w]] = (old[w], far)
        return changed

    # ------------------------------------------------------------------
    # Verification helpers (used by tests)
    # ------------------------------------------------------------------
    def recomputed(self) -> Dict[Vertex, int]:
        """A fresh BFS result for the current view (ground truth).

        Label-keyed and run over the view's ``out_neighbors``, so it
        shares no code with the table; its key order is BFS discovery
        order.
        """
        dist = {self.source: 0}
        queue = deque([self.source])
        while queue:
            w = queue.popleft()
            dw = dist[w]
            if dw >= self.horizon:
                continue
            for y in self._view.out_neighbors(w):
                if y not in dist:
                    dist[y] = dw + 1
                    queue.append(y)
        return dist

    def is_consistent(self) -> bool:
        """Whether the maintained map equals a fresh BFS."""
        return dict(self.known()) == self.recomputed()


def induced_vertices(dist_s: DistanceMap, dist_t: DistanceMap, k: int) -> Set[Vertex]:
    """The paper's ``V_sub`` (Theorem 4): vertices on some k-hop s-t walk.

    ``{v : Dist_s[v] + Dist_t[v] <= k}`` — every k-st path lies entirely
    within the subgraph induced by this set.  Both maps must be over
    views of one graph (they share its interner).
    """
    interner = dist_s.interner
    if dist_t.interner is not interner:
        raise ValueError("dist_s and dist_t are over different graphs")
    inside = set(
        compress(
            interner.vertices(),
            map(k.__ge__, map(add, dist_s.table(), dist_t.table())),
        )
    )
    # An endpoint the graph has not registered yet holds no table slot.
    for endpoint in (dist_s.source, dist_t.source):
        if endpoint in interner:
            continue
        if dist_s.get(endpoint) + dist_t.get(endpoint) <= k:
            inside.add(endpoint)
    return inside


__all__ = [
    "MAX_HORIZON",
    "DistanceMap",
    "induced_vertices",
]
