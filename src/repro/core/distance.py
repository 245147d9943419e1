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

A :class:`JointMap` is an index's ``Dist_t``: exact on the paper's
``G_sub = {x : Dist_s[x] + Dist_t[x] <= k}`` (Theorem 4) and ``far``
everywhere else.  It is *pruned by* its pair's ``Dist_s`` map (its
*bound*): the build and both repairs admit a vertex at distance ``d``
only when ``bound[x] + d <= far``.  Its repairs run through the same
:meth:`~DistanceMap.relax_insert` / :meth:`~DistanceMap.tighten_delete`
entry points, which hand them the bound's changes from the same update.

A map *is* a one-byte-per-vertex table indexed by the graph's interned
vertex ids (``far`` marks a vertex beyond the horizon), and the build
and both repairs walk the view's ``int_adjacency()`` id arrays, keeping
all of their state in the table; vertex labels appear only at the API
boundary.  A ``Dist_t`` map is built over the graph's reverse view.
"""

from __future__ import annotations

from collections import deque
from itertools import compress
from operator import add
from types import MappingProxyType
from typing import Dict, Iterator, List, Mapping, Sequence, Set, Tuple

from repro.graph.digraph import Vertex
from repro.graph.interning import VertexInterner

#: Largest horizon a map accepts: ``far = horizon + 1`` must fit the
#: one-byte table.
MAX_HORIZON = 253

Changes = Dict[Vertex, Tuple[int, int]]

#: What a repair reads of its bound's changes from the same update.
BoundChanges = Mapping[Vertex, Tuple[int, int]]

#: The bound changes a map without a bound is repaired with.
_NO_CHANGES: BoundChanges = MappingProxyType({})


class DistanceMap:
    """Shortest hop distances from ``source`` in a graph view.

    Parameters
    ----------
    view:
        A graph view exposing ``int_adjacency(reverse=False)`` and
        ``out_neighbors`` (a :class:`~repro.graph.digraph.DynamicDiGraph`
        or its reverse view).  The view must reflect graph mutations *before*
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
        if source_id >= 0:
            table[source_id] = 0
            self._spread(adjacency, source_id)

    def _spread(self, adjacency: Sequence[Sequence[int]], source_id: int) -> None:
        """The build: a BFS from the source, capped at the horizon."""
        table = self._table
        horizon = self.horizon
        far = self.far
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

    def grow(self) -> None:
        """Cover the vertices the view registered since the table last
        grew: they are far, except a newly registered source, which is 0.

        Only an update that registers a vertex can make the table
        short, so an owner calls this once per update and then reads
        the table directly; the repairs call it themselves.
        """
        table = self._table
        missing = len(self._ids) - len(table)
        if missing > 0:
            grown_from = len(table)
            table.extend(bytes([self.far]) * missing)
            source_id = self._ids.get(self.source, -1)
            if source_id >= grown_from:
                table[source_id] = 0

    def table(self) -> bytearray:
        """The live distance table: ``table()[interner.ids()[v]] == get(v)``.

        One byte per interned vertex id, :attr:`far` beyond the horizon,
        grown first (:meth:`grow`).  The object stays the same as the
        map is repaired and grows, so hot loops keep it and read it
        directly; callers must treat it as read-only.
        """
        self.grow()
        return self._table

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
            f"{type(self).__name__}(source={self.source!r}, "
            f"horizon={self.horizon}, known={len(self)})"
        )

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def relaxes(self, uid: int, vid: int) -> bool:
        """Whether inserting edge ``(u, v)``, given by interned ids,
        lowers any distance: :meth:`relax_insert`'s early exit.

        A decrease spreads from ``v`` only (Theorem 5), so nothing moves
        unless ``Dist[u] + 1`` is within the horizon and below
        ``Dist[v]``.  Reads two table entries, which the table must
        cover (:meth:`grow`).
        """
        table = self._table
        start = table[uid] + 1
        return start <= self.horizon and start < table[vid]

    def tightens(self, uid: int, vid: int) -> bool:
        """Whether deleting edge ``(u, v)``, given by interned ids and
        already gone from the view, raises any distance:
        :meth:`tighten_delete`'s early exits.

        Something moves only if ``(u, v)`` was a shortest-path tree
        edge into ``v`` within the horizon and ``v`` has no other
        in-neighbor one hop closer to the source.  The table must cover
        both ids (:meth:`grow`).
        """
        table = self._table
        old_v = table[vid]
        if old_v > self.horizon or table[uid] + 1 != old_v:
            return False
        in_adjacency = self._view.int_adjacency(reverse=True)[0]
        return old_v - 1 not in map(table.__getitem__, in_adjacency[vid])

    def relax_insert(
        self, u: Vertex, v: Vertex, bound_changes: BoundChanges = _NO_CHANGES
    ) -> Changes:
        """Repair the map after edge ``(u, v)`` was inserted into the view.

        ``bound_changes`` are the changes the same update made to the
        map's bound (a :class:`JointMap`'s ``Dist_s``); a map without a
        bound takes none.

        Returns ``{vertex: (old_distance, new_distance)}`` for every
        vertex whose distance decreased (``old_distance`` may be
        :attr:`far`), in the order the repair lowered them.
        """
        self.grow()
        ids = self._ids
        return self._relax(ids[u], ids[v], bound_changes)

    def _relax(self, uid: int, vid: int, bound_changes: BoundChanges) -> Changes:
        """The paper's Algorithm 3: if the new edge shortens the
        distance of ``v`` (:meth:`relaxes`), the decrease spreads from
        ``v`` in a tree form (Theorem 5), so a BFS over
        strictly-improving vertices suffices.  The BFS queue holds
        non-decreasing distances, so a vertex's first decrease is its
        last.
        """
        changed: Changes = {}
        if not self.relaxes(uid, vid):
            return changed
        table = self._table
        adjacency = self._view.int_adjacency()[0]
        vertex_of = self._interner.vertices()
        horizon = self.horizon
        start = table[uid] + 1
        changed[vertex_of[vid]] = (table[vid], start)
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

    def tighten_delete(
        self, u: Vertex, v: Vertex, bound_changes: BoundChanges = _NO_CHANGES
    ) -> Changes:
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

        ``bound_changes`` are the changes the same update made to the
        map's bound (a :class:`JointMap`'s ``Dist_s``); a map without a
        bound takes none.

        Returns ``{vertex: (old_distance, new_distance)}`` for every
        vertex whose distance increased (``new_distance`` may be
        :attr:`far`), in classification order: by old distance, and
        within one distance in the order the scan reached them.
        """
        self.grow()
        ids = self._ids
        changed = self._tighten(ids[u], ids[v])
        self._prune(changed, bound_changes)
        return changed

    def _tighten(self, uid: int, vid: int) -> Changes:
        """Steps 1-3 of :meth:`tighten_delete`."""
        if not self.tightens(uid, vid):
            return {}
        table = self._table
        out_adjacency = self._view.int_adjacency()[0]
        in_adjacency = self._view.int_adjacency(reverse=True)[0]
        old_v = table[vid]
        levels = self._classify(vid, table, out_adjacency, in_adjacency)
        self._resettle(
            old_v, levels, table, self._bound_table(), out_adjacency,
            in_adjacency,
        )
        vertex_of = self._interner.vertices()
        changed: Changes = {}
        for old, level in enumerate(levels, old_v):
            for w in level:
                changed[vertex_of[w]] = (old, table[w])
        return changed

    def _prune(self, changed: Changes, bound_changes: BoundChanges) -> None:
        """Set far the vertices the bound's changes took out of the map,
        adding them to ``changed``; a map without a bound keeps all."""

    def _bound_table(self) -> Sequence[int]:
        """The table the re-settle admits by: ``x`` at ``d`` only when
        ``bound[x] + d <= far``.  A map without a bound admits every
        vertex: all zeros."""
        return bytes(len(self._table))

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
        bound: Sequence[int],
        out_adjacency: Sequence[Sequence[int]],
        in_adjacency: Sequence[Sequence[int]],
    ) -> None:
        """Phase 2: bucket Dijkstra over the affected ids, which all
        read far when it starts (``levels[i]`` held ``old_v + i``),
        admitting ``y`` at ``d`` only when ``bound[y] + d <= far``
        (:meth:`_bound_table`).

        Every value written is the length of a real walk from the
        source, so it bounds the true distance from above; seeding from
        an in-neighbor that already holds a tentative value is therefore
        sound.  An unaffected vertex never reads more than a walk through
        an affected one, so ``table[y] > d + 1`` picks exactly the
        unsettled affected vertices that ``d + 1`` improves — and, in a
        :class:`JointMap`, vertices outside the old ``G_sub``, which the
        bound turns away since neither of their distances fell.  Each
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
                if best < horizon and bound[w] + best < far:
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
            budget = far - nd
            for w in bucket:
                if table[w] != d:
                    continue  # lowered since it was queued
                for y in out_adjacency[w]:
                    if table[y] > nd and bound[y] <= budget:
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
        """Whether the maintained map equals :meth:`recomputed`."""
        return dict(self.known()) == self.recomputed()


class JointMap(DistanceMap):
    """An index's ``Dist_t``: exact on ``G_sub``, ``far`` elsewhere.

    ``G_sub = {x : bound[x] + Dist[x] <= far}``, which for an index's
    maps (horizon ``k - 1``, ``far = k``, bound ``Dist_s``) is the
    paper's ``Dist_s[x] + Dist_t[x] <= k`` (Theorem 4).  Every vertex on
    a shortest path from a ``G_sub`` vertex to the source lies in
    ``G_sub`` too, so the map is a BFS from the source that admits a
    vertex at distance ``d`` only when ``bound[x] + d <= far``
    (DESIGN.md §3, "Dist_t on G_sub").

    Parameters
    ----------
    view:
        The graph view the map runs over (an index's: the reverse view).
    source:
        The BFS source (an index's ``t``).
    bound:
        The map it is pruned by (an index's ``Dist_s``): over the same
        graph, with the same horizon.  The owner repairs the bound
        first and hands its changes to :meth:`relax_insert` /
        :meth:`tighten_delete`.

    :meth:`relaxes` and :meth:`tightens` read the updated edge alone;
    they do not decide a joint map's repair, which also moves vertices
    whose bound distance moved.
    """

    __slots__ = ("bound",)

    def __init__(self, view, source: Vertex, bound: DistanceMap) -> None:
        if view.int_adjacency()[1] is not bound.interner:
            raise ValueError("a joint map and its bound must share a graph")
        self.bound = bound
        DistanceMap.__init__(self, view, source, bound.horizon)

    def _spread(self, adjacency: Sequence[Sequence[int]], source_id: int) -> None:
        """The build: a BFS from the source admitting ``x`` at ``d``
        only when ``bound[x] + d <= far``.  A vertex turned away keeps
        reading far: it lies outside ``G_sub``, since a ``G_sub``
        vertex is first reached along a shortest path, all inside."""
        table = self._table
        bound = self.bound.table()
        horizon = self.horizon
        far = self.far
        order = [source_id]
        head = 0
        while head < len(order):
            u = order[head]
            head += 1
            du = table[u]
            if du >= horizon:
                continue
            dv = du + 1
            budget = far - dv
            for v in adjacency[u]:
                if table[v] == far and bound[v] <= budget:
                    table[v] = dv
                    order.append(v)

    def grow(self) -> None:
        """Grow the table and the bound's (:meth:`DistanceMap.grow`)."""
        DistanceMap.grow(self)
        self.bound.grow()

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def reaches(self, vid: int, budget: int, lowered: BoundChanges) -> bool:
        """Whether the full map would read at most ``budget`` at ``vid``,
        a vertex this map reads far and whose bound distance the update
        just lowered (it is a key of ``lowered``, the bound's changes).

        Searches the view's in-edges from ``vid`` (toward the
        source), to depth ``budget``.  It expands only vertices outside
        the map whose bound distance dropped, and stops at vertices the
        map holds: every vertex of a short enough path from ``vid`` to
        the source is in ``G_sub`` after the update, so it either was
        before, where the table is exact, or its bound dropped
        (DESIGN.md §3).  The table must cover ``vid`` (:meth:`grow`).
        """
        table = self._table
        far = self.far
        in_adjacency = self._view.int_adjacency(reverse=True)[0]
        vertex_of = self._interner.vertices()
        seen = {vid}
        frontier = [vid]
        for depth in range(1, budget + 1):
            rest = budget - depth
            reached: List[int] = []
            for w in frontier:
                for y in in_adjacency[w]:
                    d = table[y]
                    if d != far:
                        if d <= rest:
                            return True
                    elif y not in seen and vertex_of[y] in lowered:
                        seen.add(y)
                        reached.append(y)
            if not reached:
                return False
            frontier = reached
        return False

    def _relax(
        self, uid: int, vid: int, bound_changes: BoundChanges
    ) -> Changes:
        """A pruned relax: distances only fall and ``G_sub`` only grows.

        Seeds are ``v`` through the new edge, and each vertex outside
        the map whose bound distance fell (a key of ``bound_changes``),
        at one hop past its best in-neighbor.  A bucket-ordered unit-weight
        Dijkstra then lowers out-neighbors in distance order, admitting
        ``y`` at ``d`` only when ``bound[y] + d <= far``.  Every value
        written is the length of a real walk, so a vertex popped while
        still reading its bucket's distance is settled.
        """
        table = self._table
        bound = self.bound.table()
        far = self.far
        horizon = self.horizon
        buckets: Dict[int, List[int]] = {}
        olds: Dict[int, int] = {}
        start = table[uid] + 1
        if start < table[vid] and bound[vid] + start <= far:
            olds[vid] = table[vid]
            table[vid] = start
            buckets[start] = [vid]
        ids = self._ids
        in_adjacency = self._view.int_adjacency(reverse=True)[0]
        for x in bound_changes:
            xid = ids[x]
            if table[xid] != far:
                continue
            best = min(map(table.__getitem__, in_adjacency[xid]), default=far)
            if best < horizon and bound[xid] + best < far:
                best += 1
                olds[xid] = far
                table[xid] = best
                bucket = buckets.get(best)
                if bucket is None:
                    buckets[best] = [xid]
                else:
                    bucket.append(xid)
        if not olds:
            return {}
        out_adjacency = self._view.int_adjacency()[0]
        # A vertex at the horizon relaxes nothing.
        for d in range(min(buckets), horizon):
            bucket = buckets.get(d)
            if bucket is None:
                continue
            nd = d + 1
            budget = far - nd
            for w in bucket:
                if table[w] != d:
                    continue  # lowered since it was queued
                for y in out_adjacency[w]:
                    old = table[y]
                    if nd < old and bound[y] <= budget:
                        if y not in olds:
                            olds[y] = old
                        table[y] = nd
                        later = buckets.get(nd)
                        if later is None:
                            buckets[nd] = [y]
                        else:
                            later.append(y)
        vertex_of = self._interner.vertices()
        return {vertex_of[w]: (old, table[w]) for w, old in olds.items()}

    def _prune(self, changed: Changes, bound_changes: BoundChanges) -> None:
        """After tightening, set far every vertex whose bound rose past
        ``far - Dist[x]``.

        Tightening ran inside the old ``G_sub``: the shortest-path
        parents of a ``G_sub`` vertex lie in ``G_sub``, so
        classification inside the map is the full map's restricted to
        it, and the re-settle (:meth:`_resettle`) left far every
        affected vertex that left ``G_sub``.  A vertex that left with
        its distance unchanged had its bound raised: it is a key of
        ``bound_changes``.
        """
        table = self._table
        bound = self.bound.table()
        far = self.far
        ids = self._ids
        for x in bound_changes:
            xid = ids[x]
            d = table[xid]
            if d != far and bound[xid] + d > far:
                changed[x] = (d, far)
                table[xid] = far

    def _bound_table(self) -> Sequence[int]:
        """The bound's table: the re-settle admits by ``Dist_s``."""
        return self.bound.table()

    # ------------------------------------------------------------------
    # Verification helpers (used by tests)
    # ------------------------------------------------------------------
    def recomputed(self) -> Dict[Vertex, int]:
        """A fresh full BFS restricted to ``G_sub``, which it decides
        with a fresh BFS of the bound (ground truth for both maps)."""
        bound = self.bound.recomputed()
        far = self.far
        return {
            x: d
            for x, d in DistanceMap.recomputed(self).items()
            if bound.get(x, far) + d <= far
        }


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
    "JointMap",
    "induced_vertices",
]
