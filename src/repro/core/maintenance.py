"""Index maintenance under edge updates (Section IV-B).

The maintained invariant (DESIGN.md §3): with respect to the *current*
graph and *current* distance maps,

- ``LP_i(w)`` holds **all** simple ``s -> w`` paths of length ``i <= l``
  avoiding ``t`` with ``i + Dist_t[w] <= k``;
- ``RP_j(w)`` holds **all** simple ``w -> t`` paths of length ``j <= r``
  avoiding ``s`` with ``j + Dist_s[w] <= k``.

``Dist_s`` is exact to ``k - 1`` hops; ``Dist_t`` is a
:class:`~repro.core.distance.JointMap`, exact on
``G_sub = {x : Dist_s[x] + Dist_t[x] <= k}`` and ``far`` elsewhere,
which answers every test above alike (DESIGN.md §3, "Dist_t on G_sub").

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

**The relevance gate.**  Both repairs evaluate the paper's test
``Dist_s[u] + 1 + Dist_t[v] <= k`` on the tables at the edge's interned
ids: a deletion before either map is repaired, an insertion after
``Dist_s`` is (when ``v`` just entered ``G_sub`` a short search
decides it).  When it fails, only ``Dist_s`` is repaired: no partial
path can traverse ``(u, v)`` or change admissibility through it, and no
``Dist_t`` entry on ``G_sub`` moves (DESIGN.md §3 has the proofs), so
the index and ``Dist_t`` are left untouched and the record says so
(``relevant=False``).

**Only what can change is paid for** (DESIGN.md §3).  ``Dist_s``'s
repair runs only when its early exit
(:meth:`~repro.core.distance.DistanceMap.relaxes` /
:meth:`~repro.core.distance.DistanceMap.tightens`) says a distance
moves, so a *quiet* pair-update — gated out, no map entry moved —
reads a few table entries and allocates no path buckets; the tables
are grown once per pair-update and read directly.  ``Dist_t``'s repair
stays inside ``G_sub``.  Admissibility repair starts no DFS at a vertex
whose other-side distance already exceeds the length budget, and
inadmissibility marking skips the same vertices, whose paths the
edge-using marks already hold.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro import obs
from repro.core.distance import DistanceMap, JointMap
from repro.core.index import Bucket, PartialPathIndex, PathBuckets
from repro.core.paths import Path
from repro.graph.digraph import DynamicDiGraph, Vertex


@dataclass
class UpdateRecord:
    """The changed part of the index for one edge update.

    For an insertion the buckets hold ``LP'``/``RP'`` (added paths); for
    a deletion they hold the pending removals.  ``direct_changed`` flags
    the length-1 path ``(s, t)``.  ``relevant`` is False when the
    relevance test failed: only ``Dist_s`` was repaired and the index
    is untouched; the deltas are then one empty, read-only
    ``PathBuckets`` that all such records share.  ``relaxed_t`` and
    ``tightened_t`` count ``Dist_t`` entries inside ``G_sub`` only.
    """

    insert: bool
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
        dist_t: JointMap,
    ) -> None:
        if not isinstance(dist_t, JointMap) or dist_t.bound is not dist_s:
            raise ValueError("dist_t must be the joint map pruned by dist_s")
        self.graph = graph
        self.index = index
        self.dist_s = dist_s
        self.dist_t = dist_t
        self.s = index.s
        self.t = index.t
        self.k = index.k
        # Both maps index their tables by the graph's interned ids.  A
        # table keeps its identity as it grows, so the hot paths read
        # these directly once :meth:`_grow` ran for the update.
        self._ids = dist_s.interner.ids()
        self._s_table = dist_s.table()
        self._t_table = dist_t.table()

    def _grow(self) -> None:
        """Cover vertices the update registered: only then can the
        tables be short."""
        if len(self._t_table) < len(self._ids):
            self.dist_t.grow()  # grows its bound, dist_s, too

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
            return UpdateRecord(insert=True)
        self._grow()
        uid, vid = self._ids[u], self._ids[v]
        dist_s = self.dist_s
        # A map whose early exit holds moves nothing: skip its repair.
        changed_s = (
            dist_s.relax_insert(u, v) if dist_s.relaxes(uid, vid) else {}
        )
        record = self._record(True, self._passes_insert(uid, vid, v, changed_s))
        record.relaxed_s = len(changed_s)
        if not record.relevant:
            obs.incr("maintenance.relaxed", record.relaxed_s)
            obs.incr("maintenance.untouched")
            return record
        changed_t = self.dist_t.relax_insert(v, u, changed_s)
        record.relaxed_t = len(changed_t)
        obs.incr("maintenance.relaxed", record.relaxed_s + record.relaxed_t)
        if u == self.s and v == self.t and self.k >= 1:
            self.index.direct_edge = True
            record.direct_changed = True
        if self.k < 2:
            return record

        self._repair_right(changed_s, record.right_delta)
        self._repair_left(changed_t, changed_s, record.left_delta)
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
        dist_t = self._t_table
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
        self,
        changed_t: Dict[Vertex, Tuple[int, int]],
        changed_s: Dict[Vertex, Tuple[int, int]],
        delta: PathBuckets,
    ) -> None:
        """Add LP paths that became admissible because Dist_t decreased
        (mirror of :meth:`_repair_right`: skip ``Dist_s[w] > hi``).

        ``changed_t`` lists the ``G_sub`` entries that moved; one that
        entered reads ``old = far``.  Its paths that existed before all
        have at least the old ``Dist_s[w]`` hops, which exceeds
        ``k - Dist_t_old[w]`` outside ``G_sub``, so the range starts
        there (DESIGN.md §3).
        """
        k, l = self.k, self.index.plan.l
        dist_s = self._s_table
        far = self.dist_t.far
        ids = self._ids
        for w, (old, new) in changed_t.items():
            hi = min(l, k - new)
            ds = dist_s[ids[w]]
            if ds > hi or w == self.s or w == self.t:
                continue
            lo = max(1, k - old + 1)
            if old == far:
                lo = max(lo, changed_s.get(w, (ds, ds))[0])
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
        dist = self._t_table  # Dist_t[y] is dist[ids[y]]
        ids = self._ids
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
        dist = self._s_table  # Dist_s[x] is dist[ids[x]]
        ids = self._ids
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
        dist = self._s_table  # Dist_s[x] is dist[ids[x]]
        ids = self._ids
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
        dist = self._t_table  # Dist_t[y] is dist[ids[y]]
        ids = self._ids
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
    def _passes(self, uid: int, vid: int) -> bool:
        """The paper's test ``Dist_s[u] + 1 + Dist_t[v] <= k`` on the
        tables at the edge's interned ids.

        Toggling ``(u, v)`` moves neither ``Dist_s[u]`` (a shortest
        ``s -> u`` walk never leaves ``u``) nor the full ``Dist_t[v]``
        (a shortest ``v -> t`` walk never enters ``v``).  ``Dist_t``
        reads far outside ``G_sub``, and a passing test puts ``v`` in
        ``G_sub`` before a deletion, so there the tables decide it
        (DESIGN.md §3).
        """
        return self._s_table[uid] + 1 + self._t_table[vid] <= self.k

    def _passes_insert(
        self,
        uid: int,
        vid: int,
        v: Vertex,
        changed_s: Dict[Vertex, Tuple[int, int]],
    ) -> bool:
        """The test for an insertion, after ``Dist_s`` was repaired.

        The tables decide it unless ``v`` is outside ``G_sub`` and its
        ``Dist_s`` just dropped: only then can a passing test put ``v``
        in ``G_sub`` for the first time.  A search forward from ``v``
        decides that case (:meth:`~repro.core.distance.JointMap.reaches`).
        """
        if self._passes(uid, vid):
            return True
        budget = self.k - 1 - self._s_table[uid]
        return (
            budget > 0
            and self._t_table[vid] == self.dist_t.far
            and v in changed_s
            and self.dist_t.reaches(vid, budget, changed_s)
        )

    def _record(self, insert: bool, relevant: bool) -> UpdateRecord:
        """The record of an update that passed the relevance test or,
        when it failed, one that shares the read-only empty deltas: no
        partial path of the index can traverse ``(u, v)`` or change
        admissibility through it."""
        if relevant:
            return UpdateRecord(insert)
        return UpdateRecord(insert, False, _NO_DELTA, _NO_DELTA)

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
            return UpdateRecord(insert=False)
        self._grow()
        uid, vid = self._ids[u], self._ids[v]
        # Read on the tables before either map is repaired.
        record = self._record(False, self._passes(uid, vid))
        relevant = record.relevant
        if relevant:
            if u == self.s and v == self.t and self.index.direct_edge:
                record.direct_changed = True
            if self.k >= 2:
                self._mark_edge_using_left(u, v, record.left_delta)
                self._mark_edge_using_right(u, v, record.right_delta)

        dist_s = self.dist_s
        changed_s = (
            dist_s.tighten_delete(u, v) if dist_s.tightens(uid, vid) else {}
        )
        record.tightened_s = len(changed_s)
        if not relevant:
            obs.incr("maintenance.tightened", record.tightened_s)
            obs.incr("maintenance.untouched")
            return record

        if self.k >= 2:
            # Reads Dist_t before its repair (DESIGN.md §3).
            self._mark_inadmissible_right(changed_s, record.right_delta)
        changed_t = self.dist_t.tighten_delete(v, u, changed_s)
        record.tightened_t = len(changed_t)
        obs.incr(
            "maintenance.tightened", record.tightened_s + record.tightened_t
        )
        if self.k >= 2:
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

        Runs before ``Dist_t`` is repaired.  A stored RP at ``w`` is a
        ``w -> t`` path of the old graph, so none of length at most
        ``hi`` exists when the old ``Dist_t[w] > hi``; the old map reads
        far only outside the old ``G_sub``, where no RP is stored
        (DESIGN.md §3).
        """
        k, r = self.k, self.index.plan.r
        right = self.index.right
        masks = right.masks()
        dist_t = self._t_table
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
        dist_s = self._s_table
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
