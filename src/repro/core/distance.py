"""Hop-capped dynamic shortest-distance maps (``Dist_s`` / ``Dist_t``).

The CPE index stores a partial path only while it can still extend to a
full k-st path, which is decided with the shortest distances from ``s``
(``Dist_s``) and to ``t`` (``Dist_t``).  Both maps must stay exact under
edge insertions and deletions; this module implements:

- a plain BFS build capped at a hop *horizon* (distances beyond the
  horizon are equivalent for every admissibility test, so they are
  represented by a single ``far`` sentinel — an index's maps use the
  paper's horizon ``k - 1``, computing the map "for vertices within
  k-1 hops");
- :meth:`DistanceMap.relax_insert` — the paper's Algorithm 3: after an
  edge arrives, decreases spread from its head in BFS order (Theorem 5);
- :meth:`DistanceMap.tighten_delete` — the paper's Algorithm 5: after an
  edge expires, the affected set is classified in increasing-distance
  order (so a vertex is classified only after all of its potential
  shortest-path parents) and then re-settled with a bucket-ordered
  unit-weight Dijkstra from the unaffected boundary.

:meth:`DistanceMap.relaxes` and :meth:`DistanceMap.tightens` are the two
repairs' early exits on their own: they read the table at the updated
edge's ids and say whether any distance moves, so a caller can settle
an update that moves nothing without calling the repair.

A map *is* a one-byte-per-vertex table indexed by the graph's interned
vertex ids (``far`` marks a vertex beyond the horizon), and the build
and both repairs walk the view's ``int_adjacency()`` id arrays, keeping
all of their state in the table; vertex labels appear only at the API
boundary.  A ``Dist_t`` map is simply a ``DistanceMap`` built over the
graph's reverse view.
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
    def relaxes(self, uid: int, vid: int) -> bool:
        """Whether inserting edge ``(u, v)``, given by interned ids,
        lowers any distance: :meth:`relax_insert`'s early exit.

        A decrease spreads from ``v`` only (Theorem 5), so nothing moves
        unless ``Dist[u] + 1`` is within the horizon and below
        ``Dist[v]``.  Reads two table entries.
        """
        table = self.table()
        start = table[uid] + 1
        return start <= self.horizon and start < table[vid]

    def tightens(self, uid: int, vid: int) -> bool:
        """Whether deleting edge ``(u, v)``, given by interned ids and
        already gone from the view, raises any distance:
        :meth:`tighten_delete`'s early exits.

        Something moves only if ``(u, v)`` was a shortest-path tree
        edge into ``v`` within the horizon and ``v`` has no other
        in-neighbor one hop closer to the source.
        """
        table = self.table()
        old_v = table[vid]
        if old_v > self.horizon or table[uid] + 1 != old_v:
            return False
        in_adjacency = self._view.int_adjacency(reverse=True)[0]
        return old_v - 1 not in map(table.__getitem__, in_adjacency[vid])

    def relax_insert(self, u: Vertex, v: Vertex) -> Changes:
        """Repair the map after edge ``(u, v)`` was inserted into the view.

        Implements the paper's Algorithm 3: if the new edge shortens the
        distance of ``v`` (:meth:`relaxes`), the decrease spreads from
        ``v`` in a tree form (Theorem 5), so a BFS over
        strictly-improving vertices suffices.  The BFS queue holds
        non-decreasing distances, so a vertex's first decrease is its
        last.

        Returns ``{vertex: (old_distance, new_distance)}`` for every
        vertex whose distance decreased (``old_distance`` may be
        :attr:`far`), in BFS order.
        """
        changed: Changes = {}
        ids = self._ids
        uid, vid = ids[u], ids[v]
        if not self.relaxes(uid, vid):
            return changed
        table = self._table
        adjacency = self._view.int_adjacency()[0]
        vertex_of = self._interner.vertices()
        horizon = self.horizon
        start = table[uid] + 1
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
        (unit-weight Ramalingam–Reps), with all of its state in the
        table itself:

        1. If ``(u, v)`` was not the last shortest-path tree edge into
           ``v`` (:meth:`tightens`), nothing moves.
        2. Otherwise classify the *affected set* — vertices all of whose
           shortest-path parents are themselves affected — one old
           distance at a time, which makes the classification
           well-founded.  An affected vertex reads :attr:`far` from the
           moment it is classified, so "has a live parent" is one table
           read.
        3. Re-settle affected vertices by a bucket-ordered unit-weight
           Dijkstra seeded from their in-neighbors, with the tentative
           distances in the table; vertices ending beyond the horizon
           stay far.

        Returns ``{vertex: (old_distance, new_distance)}`` for every
        vertex whose distance increased (``new_distance`` may be
        :attr:`far`), in classification order: by old distance, and
        within one distance in the order the scan reached them.
        """
        ids = self._ids
        vid = ids[v]
        if not self.tightens(ids[u], vid):
            return {}
        table = self._table
        out_adjacency = self._view.int_adjacency()[0]
        in_adjacency = self._view.int_adjacency(reverse=True)[0]
        old_v = table[vid]
        levels = self._classify(vid, table, out_adjacency, in_adjacency)
        self._resettle(old_v, levels, table, out_adjacency, in_adjacency)
        vertex_of = self._interner.vertices()
        changed: Changes = {}
        for old, level in enumerate(levels, old_v):
            for w in level:
                changed[vertex_of[w]] = (old, table[w])
        return changed

    def _classify(
        self,
        vid: int,
        table: bytearray,
        out_adjacency: Sequence[Sequence[int]],
        in_adjacency: Sequence[Sequence[int]],
    ) -> List[List[int]]:
        """Phase 1: the affected ids, one list per old distance from
        ``table[vid]`` up, each marked far as it is classified.

        A vertex at old distance ``d`` is a candidate when an affected
        vertex at ``d - 1`` points at it, and it is affected iff no
        in-neighbor still reads ``d - 1``: affected vertices at ``d - 1``
        already read far, so any in-neighbor reading ``d - 1`` is a live
        shortest-path parent.  (``vid`` is already known to have lost
        all of its parents.)
        """
        far = self.far
        horizon = self.horizon
        d = table[vid]
        table[vid] = far
        level = [vid]
        levels = [level]
        # Children of a vertex at the horizon sit beyond it (far already).
        while d < horizon:
            parent_d = d
            d += 1
            affected: List[int] = []
            for w in level:
                for y in out_adjacency[w]:
                    if table[y] == d and parent_d not in map(
                        table.__getitem__, in_adjacency[y]
                    ):
                        table[y] = far
                        affected.append(y)
            if not affected:
                break
            levels.append(affected)
            level = affected
        return levels

    def _resettle(
        self,
        old_v: int,
        levels: List[List[int]],
        table: bytearray,
        out_adjacency: Sequence[Sequence[int]],
        in_adjacency: Sequence[Sequence[int]],
    ) -> None:
        """Phase 2: bucket Dijkstra over the affected ids, which all
        read far when it starts (``levels[i]`` held ``old_v + i``).

        Every value written is the length of a real walk from the
        source, so it bounds the true distance from above; seeding from
        an in-neighbor that already holds a tentative value is therefore
        sound.  An unaffected vertex never reads more than a walk through
        an affected one, so ``table[y] > d + 1`` picks exactly the
        unsettled affected vertices that ``d + 1`` improves.  Each
        push lowers a value, so a vertex sits in a bucket at most once,
        and one popped while still reading that bucket's distance is
        settled.  An affected vertex ends at least one hop farther than
        it was, so the ones that were at the horizon stay far unseeded.
        """
        far = self.far
        horizon = self.horizon
        buckets: Dict[int, List[int]] = {}
        for old, level in enumerate(levels, old_v):
            if old >= horizon:
                break
            for w in level:
                best = min(
                    map(table.__getitem__, in_adjacency[w]), default=far
                )
                if best < horizon:
                    best += 1
                    table[w] = best
                    bucket = buckets.get(best)
                    if bucket is None:
                        buckets[best] = [w]
                    else:
                        bucket.append(w)
        # A vertex settled at the horizon relaxes nothing.
        for d in range(1, horizon):
            bucket = buckets.get(d)
            if bucket is None:
                continue
            nd = d + 1
            for w in bucket:
                if table[w] != d:
                    continue  # lowered since it was queued
                for y in out_adjacency[w]:
                    if table[y] > nd:
                        table[y] = nd
                        later = buckets.get(nd)
                        if later is None:
                            buckets[nd] = [y]
                        else:
                            later.append(y)

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
    views of one graph (they share its interner) and have a horizon of
    at least ``k``: under a smaller horizon ``far`` reads at most ``k``,
    so an endpoint would count ``s`` (or ``t``) when the other endpoint
    is more than ``k`` hops away.  An index's own maps have horizon
    ``k - 1``; build horizon-``k`` maps to call this.
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
