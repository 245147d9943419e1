"""Index maintenance under edge updates (Section IV-B).

The maintained invariant (DESIGN.md §3): with respect to the *current*
graph and *current* distance maps,

- ``LP_i(w)`` holds **all** simple ``s -> w`` paths of length ``i <= l``
  avoiding ``t`` with ``i + Dist_t[w] <= k``;
- ``RP_j(w)`` holds **all** simple ``w -> t`` paths of length ``j <= r``
  avoiding ``s`` with ``j + Dist_s[w] <= k``.

**Insertion** of ``(u, v)`` only adds content (distances only decrease,
graph paths only appear).  Three sources of additions, in order:

1. distance-map repair (Algorithm 3, via
   :meth:`~repro.core.distance.DistanceMap.relax_insert`);
2. *admissibility repair*: for each relaxed vertex the lengths that just
   became admissible gain every existing path of that length, found with
   a distance-pruned DFS (the generalization of the paper's UDFS — see
   DESIGN.md for why extending only newly-added paths is insufficient);
3. *new-edge paths*: every partial path traversing ``(u, v)``, grown
   outward from the edge with the same admissibility pruning.

**Deletion** of ``(u, v)`` only removes content:

1. *edge-using removals*: paths whose first traversal of ``(u, v)`` is
   their last hop are located by extending the index at ``u``/``v`` with
   hash probes, then propagated to longer paths through neighbor probes
   (the paper's ``(k + d_avg) x Δ|P|`` removal);
2. distance tightening (Algorithm 5, via
   :meth:`~repro.core.distance.DistanceMap.tighten_delete`);
3. *admissibility-loss removals*: whole ``(vertex, length)`` buckets
   whose lengths stopped being admissible.

Deletions are **recorded first and applied after** the update
enumeration ran on the intact index, matching the paper's "keep the
paths that should be removed and delete them after finishing the update
enumeration".

**The relevance gate.**  Before map repair, both repairs evaluate the
paper's test ``Dist_s[u] + 1 + Dist_t[v] <= k`` on the tables at the
edge's interned ids.  When it fails, only the distance maps are
repaired: no partial path can traverse ``(u, v)`` or change
admissibility through it (DESIGN.md §3 has the proof), so the index is
left untouched and the record says so (``relevant=False``).  Toggling
``(u, v)`` moves neither term, so the test reads the same before and
after map repair.

**Only what can change is paid for** (DESIGN.md §3).  Each map's
repair runs only when its early exit
(:meth:`~repro.core.distance.DistanceMap.relaxes` /
:meth:`~repro.core.distance.DistanceMap.tightens`) says a distance
moves, so a *quiet* pair-update — gated out, no map entry moved —
reads a few table entries and allocates no path buckets.  Admissibility
repair starts no DFS at a vertex whose other-side distance already
exceeds the length budget, and inadmissibility marking skips the same
vertices, whose paths the edge-using marks already hold.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro import obs
from repro.core.distance import DistanceMap
from repro.core.index import Bucket, PartialPathIndex, PathBuckets
from repro.core.paths import Path
from repro.graph.digraph import DynamicDiGraph, Vertex


@dataclass
class UpdateRecord:
    """The changed part of the index for one edge update.

    For an insertion the buckets hold ``LP'``/``RP'`` (added paths); for
    a deletion they hold the pending removals.  ``direct_changed`` flags
    the length-1 path ``(s, t)``; ``changed`` is False when the update
    was a no-op (edge already present / already absent).  ``relevant``
    is False when the relevance test failed: only the distance maps
    were repaired and the index is untouched; the deltas are then one
    empty, read-only ``PathBuckets`` that all such records share.
    """

    insert: bool
    changed: bool
    relevant: bool = True
    left_delta: PathBuckets = field(default_factory=PathBuckets)
    right_delta: PathBuckets = field(default_factory=PathBuckets)
    direct_changed: bool = False
    relaxed_s: int = 0
    relaxed_t: int = 0
    tightened_s: int = 0
    tightened_t: int = 0

    @property
    def delta_partial_paths(self) -> int:
        """Number of changed partial paths (|LP'| + |RP'|)."""
        return len(self.left_delta) + len(self.right_delta)


class _NoDelta(PathBuckets):
    """The empty delta that every untouched record shares; writes raise."""

    __slots__ = ()

    def add(self, vertex: Vertex, path: Path, mask: int) -> bool:
        raise TypeError("an untouched update's delta is read-only")

    def add_level(
        self, length: int, bucket: Bucket, masks: Dict[Path, int]
    ) -> None:
        raise TypeError("an untouched update's delta is read-only")

    def remove(self, vertex: Vertex, path: Path) -> bool:
        raise TypeError("an untouched update's delta is read-only")


_NO_DELTA = _NoDelta()


class IndexMaintainer:
    """Keeps a :class:`PartialPathIndex` exact under edge updates.

    The maintainer owns the update logic only; the caller (normally
    :class:`repro.core.enumerator.CpeEnumerator`) applies the update to
    the graph, repairs through :meth:`insert_edge` / :meth:`delete_edge`,
    runs the update enumeration on the returned record, and — for
    deletions — applies the pending removals with :meth:`apply_removals`
    afterwards.
    """

    def __init__(
        self,
        graph: DynamicDiGraph,
        index: PartialPathIndex,
        dist_s: DistanceMap,
        dist_t: DistanceMap,
    ) -> None:
        self.graph = graph
        self.index = index
        self.dist_s = dist_s
        self.dist_t = dist_t
        self.s = index.s
        self.t = index.t
        self.k = index.k
        # Both maps index their tables by the graph's interned ids.
        self._ids = dist_s.interner.ids()

    # ==================================================================
    # Insertion
    # ==================================================================
    def insert_edge(self, u: Vertex, v: Vertex) -> UpdateRecord:
        """Repair the index for ``e(u, v, +)``, already in the graph.

        Returns the record of added partial paths; additions are already
        applied to the index when this returns (the update enumeration
        for insertions runs against the post-addition index).  The
        maintainer never mutates the graph: its owner applies the
        update once, then every maintainer on that graph repairs.
        """
        if not self.graph.has_edge(u, v):
            raise ValueError(f"edge ({u!r}, {v!r}) is not in the graph")
        if u == v:  # self-loops never occur in simple paths
            return UpdateRecord(insert=True, changed=True)
        uid, vid = self._ids[u], self._ids[v]
        record = self._record(True, uid, vid)
        dist_s, dist_t = self.dist_s, self.dist_t
        # A map whose early exit holds moves nothing: skip its repair.
        changed_s = (
            dist_s.relax_insert(u, v) if dist_s.relaxes(uid, vid) else {}
        )
        changed_t = (
            dist_t.relax_insert(v, u) if dist_t.relaxes(vid, uid) else {}
        )
        record.relaxed_s = len(changed_s)
        record.relaxed_t = len(changed_t)
        obs.incr("maintenance.relaxed", record.relaxed_s + record.relaxed_t)
        if not record.relevant:
            obs.incr("maintenance.untouched")
            return record
        if u == self.s and v == self.t and self.k >= 1:
            self.index.direct_edge = True
            record.direct_changed = True
        if self.k < 2:
            return record

        self._repair_right(changed_s, record.right_delta)
        self._repair_left(changed_t, record.left_delta)
        self._new_edge_right(u, v, record.right_delta)
        self._new_edge_left(u, v, record.left_delta)
        if obs.enabled():
            obs.incr("maintenance.inserts")
            obs.observe(
                "maintenance.insert_delta_partials",
                record.delta_partial_paths,
            )
        return record

    # ------------------------------------------------------------------
    def _repair_right(
        self, changed_s: Dict[Vertex, Tuple[int, int]], delta: PathBuckets
    ) -> None:
        """Add RP paths that became admissible because Dist_s decreased.

        An RP at ``w`` is a ``w ⤳ t`` path, so none of length at most
        ``hi`` exists when ``Dist_t[w] > hi``: such a start is skipped
        (DESIGN.md §3).
        """
        k, r = self.k, self.index.plan.r
        dist_t = self.dist_t.table()
        ids = self._ids
        for w, (old, new) in changed_s.items():
            hi = min(r, k - new)
            if dist_t[ids[w]] > hi or w == self.s or w == self.t:
                continue
            lo = max(1, k - old + 1)
            if lo > hi:
                continue
            # Most starts find no path: masking only the paths written
            # keeps explored dead ends out of the bit space.
            for path in self._forward_paths_to_t(w, lo, hi):
                if self.index.add_right(path):
                    delta.add(w, path, self.index.right.mask_of(path))

    def _repair_left(
        self, changed_t: Dict[Vertex, Tuple[int, int]], delta: PathBuckets
    ) -> None:
        """Add LP paths that became admissible because Dist_t decreased
        (mirror of :meth:`_repair_right`: skip ``Dist_s[w] > hi``)."""
        k, l = self.k, self.index.plan.l
        dist_s = self.dist_s.table()
        ids = self._ids
        for w, (old, new) in changed_t.items():
            hi = min(l, k - new)
            if dist_s[ids[w]] > hi or w == self.s or w == self.t:
                continue
            lo = max(1, k - old + 1)
            if lo > hi:
                continue
            for path in self._backward_paths_from_s(w, lo, hi):
                if self.index.add_left(path):
                    delta.add(w, path, self.index.left.mask_of(path))

    def _forward_paths_to_t(self, start: Vertex, lo: int, hi: int) -> List[Path]:
        """Simple ``start -> t`` paths with ``lo <= hops <= hi``, avoiding s.

        Distance-pruned DFS: a partial path of length ``c`` at ``y`` is
        extended only while ``c + Dist_t[y] <= hi`` still allows
        completion within ``hi`` hops.
        """
        t, s = self.t, self.s
        dist = self.dist_t.table()  # Dist_t[y] is dist[ids[y]]
        ids = self.dist_t.interner.ids()
        out_neighbors = self.graph.out_neighbors
        results: List[Path] = []
        stack: List[Path] = [(start,)]
        while stack:
            path = stack.pop()
            length = len(path) - 1
            tail = path[-1]
            if tail == t:
                if length >= lo:
                    results.append(path)
                continue
            if length >= hi:
                continue
            nxt = length + 1
            for y in out_neighbors(tail):
                if y != s and y not in path and nxt + dist[ids[y]] <= hi:
                    stack.append(path + (y,))
        return results

    def _backward_paths_from_s(self, end: Vertex, lo: int, hi: int) -> List[Path]:
        """Simple ``s -> end`` paths with ``lo <= hops <= hi``, avoiding t."""
        s, t = self.s, self.t
        dist = self.dist_s.table()  # Dist_s[x] is dist[ids[x]]
        ids = self.dist_s.interner.ids()
        in_neighbors = self.graph.in_neighbors
        results: List[Path] = []
        stack: List[Path] = [(end,)]
        while stack:
            path = stack.pop()  # stored reversed-from-end: (end, ..., x)
            length = len(path) - 1
            head = path[-1]
            if head == s:
                if length >= lo:
                    results.append(tuple(reversed(path)))
                continue
            if length >= hi:
                continue
            nxt = length + 1
            for x in in_neighbors(head):
                if x != t and x not in path and nxt + dist[ids[x]] <= hi:
                    stack.append(path + (x,))
        return results

    # ------------------------------------------------------------------
    def _new_edge_right(self, u: Vertex, v: Vertex, delta: PathBuckets) -> None:
        """Add RP paths traversing ``(u, v)``.

        Bases are ``(u,) + suffix`` for every admissible suffix at ``v``
        (the admissibility repair already completed ``RP(v)``, so bases
        cover every possible suffix); each base is then extended backward
        through in-neighbors with the admissibility pruning, which is
        monotone in the backward direction.
        """
        if u == self.s:
            return  # a path starting s -> u -> ... is a full path, not an RP
        k, r = self.k, self.index.plan.r
        dist_s = self.dist_s
        right = self.index.right
        bits = self.index.bits
        bases: List[Tuple[Path, int]] = []
        if v == self.t:
            if 1 <= r and 1 + dist_s.get(u) <= k:
                bases.append(((u, v), bits[u] | bits[v]))
        else:
            masks = right.masks()
            for length, rp in list(right.at_vertex(v)):
                if length + 1 > r or length + 1 + dist_s.get(u) > k:
                    continue
                if u in rp:
                    continue
                bases.append(((u,) + rp, masks[rp] | bits[u]))
        in_neighbors = self.graph.in_neighbors
        s = self.s
        dist = dist_s.table()  # Dist_s[x] is dist[ids[x]]
        ids = dist_s.interner.ids()
        stack: List[Tuple[Path, int]] = []
        for base, mask in bases:
            if right.add(u, base, mask):
                delta.add(u, base, mask)
            stack.append((base, mask))
        while stack:
            path, mask = stack.pop()
            nxt = len(path)  # hops after prepending one vertex
            if nxt > r:
                continue
            for x in in_neighbors(path[0]):
                if x == s or x in path or nxt + dist[ids[x]] > k:
                    continue
                extended = (x,) + path
                extended_mask = mask | bits[x]
                if right.add(x, extended, extended_mask):
                    delta.add(x, extended, extended_mask)
                # Recurse regardless of newness: an extension added by the
                # admissibility repair may still have missing extensions.
                stack.append((extended, extended_mask))
        return

    def _new_edge_left(self, u: Vertex, v: Vertex, delta: PathBuckets) -> None:
        """Add LP paths traversing ``(u, v)`` (mirror of the RP side)."""
        if v == self.t:
            return  # a path ... -> u -> t is a full path, not an LP
        k, l = self.k, self.index.plan.l
        dist_t = self.dist_t
        left = self.index.left
        bits = self.index.bits
        bases: List[Tuple[Path, int]] = []
        if u == self.s:
            if 1 <= l and 1 + dist_t.get(v) <= k:
                bases.append(((u, v), bits[u] | bits[v]))
        else:
            masks = left.masks()
            for length, lp in list(left.at_vertex(u)):
                if length + 1 > l or length + 1 + dist_t.get(v) > k:
                    continue
                if v in lp:
                    continue
                bases.append((lp + (v,), masks[lp] | bits[v]))
        out_neighbors = self.graph.out_neighbors
        t = self.t
        dist = dist_t.table()  # Dist_t[y] is dist[ids[y]]
        ids = dist_t.interner.ids()
        stack: List[Tuple[Path, int]] = []
        for base, mask in bases:
            if left.add(v, base, mask):
                delta.add(v, base, mask)
            stack.append((base, mask))
        while stack:
            path, mask = stack.pop()
            nxt = len(path)
            if nxt > l:
                continue
            for y in out_neighbors(path[-1]):
                if y == t or y in path or nxt + dist[ids[y]] > k:
                    continue
                extended = path + (y,)
                extended_mask = mask | bits[y]
                if left.add(y, extended, extended_mask):
                    delta.add(y, extended, extended_mask)
                stack.append((extended, extended_mask))
        return

    # ==================================================================
    # The relevance gate
    # ==================================================================
    def _record(self, insert: bool, uid: int, vid: int) -> UpdateRecord:
        """The record of a changed update of edge ``(uid, vid)`` (by
        interned ids), gated by the paper's test
        ``Dist_s[u] + 1 + Dist_t[v] <= k``.

        When the test fails no partial path of the index can traverse
        ``(u, v)`` or change admissibility through it, so the record is
        ``relevant=False`` and shares the read-only empty deltas.
        Toggling ``(u, v)`` changes neither ``Dist_s[u]`` (a shortest
        ``s -> u`` walk never leaves ``u``) nor ``Dist_t[v]`` (a
        shortest ``v -> t`` walk never enters ``v``), so the test reads
        the same before and after map repair.
        """
        if self.dist_s.table()[uid] + 1 + self.dist_t.table()[vid] <= self.k:
            return UpdateRecord(insert, True)
        return UpdateRecord(insert, True, False, _NO_DELTA, _NO_DELTA)

    # ==================================================================
    # Deletion
    # ==================================================================
    def delete_edge(self, u: Vertex, v: Vertex) -> UpdateRecord:
        """Repair the distances for ``e(u, v, -)``, already out of the
        graph, and record the index's removals.

        The removal records in the returned :class:`UpdateRecord` are
        **not yet applied** to the index — run the update enumeration
        first, then call :meth:`apply_removals`.
        """
        if self.graph.has_edge(u, v):
            raise ValueError(f"edge ({u!r}, {v!r}) is still in the graph")
        if u == v:  # self-loops never occur in simple paths
            return UpdateRecord(insert=False, changed=True)
        uid, vid = self._ids[u], self._ids[v]
        # The test reads the same before the maps are repaired as after.
        record = self._record(False, uid, vid)
        relevant = record.relevant
        if relevant:
            if u == self.s and v == self.t and self.index.direct_edge:
                record.direct_changed = True
            if self.k >= 2:
                self._mark_edge_using_left(u, v, record.left_delta)
                self._mark_edge_using_right(u, v, record.right_delta)

        dist_s, dist_t = self.dist_s, self.dist_t
        changed_s = (
            dist_s.tighten_delete(u, v) if dist_s.tightens(uid, vid) else {}
        )
        changed_t = (
            dist_t.tighten_delete(v, u) if dist_t.tightens(vid, uid) else {}
        )
        record.tightened_s = len(changed_s)
        record.tightened_t = len(changed_t)
        obs.incr(
            "maintenance.tightened", record.tightened_s + record.tightened_t
        )
        if not relevant:
            obs.incr("maintenance.untouched")
            return record

        if self.k >= 2:
            self._mark_inadmissible_right(changed_s, record.right_delta)
            self._mark_inadmissible_left(changed_t, record.left_delta)
        if obs.enabled():
            obs.incr("maintenance.deletes")
            obs.observe(
                "maintenance.delete_delta_partials",
                record.delta_partial_paths,
            )
        return record

    def apply_removals(self, record: UpdateRecord) -> None:
        """Physically remove a deletion record's paths from the index."""
        if record.insert:
            raise ValueError("apply_removals is only meaningful for deletions")
        for _, vertex, path in record.left_delta.entries():
            self.index.left.remove(vertex, path)
        for _, vertex, path in record.right_delta.entries():
            self.index.right.remove(vertex, path)
        if record.direct_changed:
            self.index.direct_edge = False

    # ------------------------------------------------------------------
    def _mark_edge_using_left(
        self, u: Vertex, v: Vertex, removed: PathBuckets
    ) -> None:
        """Mark every LP path traversing ``(u, v)``.

        Seeds are stored paths whose final hop is ``(u, v)`` (built by
        extending ``LP(u)`` and probing membership); marked paths
        propagate to their stored extensions through per-out-neighbor
        hash probes.
        """
        index_left = self.index.left
        masks = index_left.masks()
        l = self.index.plan.l
        queue: deque = deque()

        def mark(path: Path) -> None:
            # Stored paths only: the removal record carries their masks.
            mask = masks.get(path)
            if mask is not None and removed.add(path[-1], path, mask):
                queue.append(path)

        if u == self.s:
            mark((u, v))
        else:
            for length, lp in list(index_left.at_vertex(u)):
                if length + 1 > l:
                    continue
                mark(lp + (v,))
        out_neighbors = self.graph.out_neighbors
        while queue:
            path = queue.popleft()
            if len(path) > l:  # hops == len(path) - 1; extensions exceed l
                continue
            for y in out_neighbors(path[-1]):
                if y in path:
                    continue
                mark(path + (y,))

    def _mark_edge_using_right(
        self, u: Vertex, v: Vertex, removed: PathBuckets
    ) -> None:
        """Mark every RP path traversing ``(u, v)`` (mirror of LP side)."""
        index_right = self.index.right
        masks = index_right.masks()
        r = self.index.plan.r
        queue: deque = deque()

        def mark(path: Path) -> None:
            mask = masks.get(path)
            if mask is not None and removed.add(path[0], path, mask):
                queue.append(path)

        if v == self.t:
            mark((u, v))
        else:
            for length, rp in list(index_right.at_vertex(v)):
                if length + 1 > r:
                    continue
                mark((u,) + rp)
        in_neighbors = self.graph.in_neighbors
        while queue:
            path = queue.popleft()
            if len(path) > r:
                continue
            for x in in_neighbors(path[0]):
                if x in path:
                    continue
                mark((x,) + path)

    # ------------------------------------------------------------------
    def _mark_inadmissible_right(
        self, changed_s: Dict[Vertex, Tuple[int, int]], removed: PathBuckets
    ) -> None:
        """Mark RP buckets whose lengths stopped being admissible.

        A stored RP at ``w`` shorter than the tightened ``Dist_t[w]``
        cannot survive the deletion (it would bound ``Dist_t[w]``), so
        it traverses ``(u, v)`` and is marked already: when
        ``Dist_t[w] > hi`` there is nothing left to mark (DESIGN.md §3).
        """
        k, r = self.k, self.index.plan.r
        right = self.index.right
        masks = right.masks()
        dist_t = self.dist_t.table()
        ids = self._ids
        for w, (old, new) in changed_s.items():
            hi = min(r, k - old)
            if dist_t[ids[w]] > hi:
                continue
            for j in range(max(1, k - new + 1), hi + 1):
                for path in right.at(w, j):
                    removed.add(w, path, masks[path])

    def _mark_inadmissible_left(
        self, changed_t: Dict[Vertex, Tuple[int, int]], removed: PathBuckets
    ) -> None:
        """Mark LP buckets whose lengths stopped being admissible
        (mirror of :meth:`_mark_inadmissible_right`: skip
        ``Dist_s[w] > hi``)."""
        k, l = self.k, self.index.plan.l
        left = self.index.left
        masks = left.masks()
        dist_s = self.dist_s.table()
        ids = self._ids
        for w, (old, new) in changed_t.items():
            hi = min(l, k - old)
            if dist_s[ids[w]] > hi:
                continue
            for i in range(max(1, k - new + 1), hi + 1):
                for path in left.at(w, i):
                    removed.add(w, path, masks[path])


__all__ = [
    "UpdateRecord",
    "IndexMaintainer",
]
