"""Bidirectional index construction (Section IV-A, Algorithm 2).

Steps:

1. **Preprocessing** — build the distance maps ``Dist_s`` and
   ``Dist_t`` with a bidirectional BFS capped at the paper's horizon
   ``k - 1`` (:func:`map_horizon`; every read compares a distance with
   a budget of at most ``k - 1``, so ``far = k`` answers each one as the
   true distance would).  Theorem 4's induced subgraph is implied: a
   vertex with ``Dist_s[v] + Dist_t[v] > k`` can never pass the
   per-expansion admissibility test, so the search never leaves
   ``G_sub`` even though we do not materialize it.
2. **Bidirectional level search** — grow all admissible left partial
   paths from ``s`` and right partial paths from ``t`` level by level,
   pruning every expansion with *distance pruning* (Optimization 1:
   discard a successor ``y`` when ``len + 1 + Dist[y] > k``).
3. **Dynamic cut** (Optimization 2) — after the first level on each
   side, greedily extend the direction whose current frontier holds
   fewer paths, until the levels sum to ``k``; the growth decisions form
   the join plan.

The frontier of level ``i`` is exactly the set of paths stored at level
``i`` of the index (admissibility propagates to prefixes, so no stored
path is missing from the frontier and vice versa); the implementation
therefore reads frontiers straight from the index buckets instead of
keeping the paper's separate queues.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.obs.explain import active as explain_active
from repro.core.distance import MAX_HORIZON, DistanceMap
from repro.core.index import BitSpace, Bucket, PartialPathIndex
from repro.core.paths import Path
from repro.core.plan import JoinPlan
from repro.graph.digraph import DynamicDiGraph, Vertex


@dataclass
class ConstructionStats:
    """Counters and timings reported by :func:`build_index`.

    ``prep_seconds`` covers the distance maps (the paper's "Prep"
    component in Fig. 11); ``build_seconds`` covers the level searches
    (the paper's "IC").
    """

    prep_seconds: float = 0.0
    build_seconds: float = 0.0
    left_levels: int = 0
    right_levels: int = 0
    left_paths: int = 0
    right_paths: int = 0
    expansions: int = 0
    pruned: int = 0


def map_horizon(k: int) -> int:
    """The horizon of a ``k``-hop index's distance maps: ``k - 1``.

    Every map read of construction and maintenance compares a distance
    with a budget of at most ``k - 1`` (DESIGN.md §3), so a map capped
    there, reading ``far = k`` beyond it, answers all of them exactly.
    """
    return max(k - 1, 0)


@dataclass
class BuildResult:
    """Everything :func:`build_index` produces."""

    index: PartialPathIndex
    dist_s: DistanceMap
    dist_t: DistanceMap
    stats: ConstructionStats


def build_index(
    graph: DynamicDiGraph,
    s: Vertex,
    t: Vertex,
    k: int,
    forced_plan: Optional[JoinPlan] = None,
    dist_s: Optional[DistanceMap] = None,
    dist_t: Optional[DistanceMap] = None,
) -> BuildResult:
    """Construct the partial path index for ``q(s, t, k)``.

    ``forced_plan`` disables the dynamic cut and builds the index for a
    given plan instead — used by tests to compare a maintained index
    against a fresh build with identical ``(l, r)``, and by ablations to
    measure the dynamic cut's benefit against the fixed ``⌈k/2⌉`` cut.

    ``dist_s`` / ``dist_t`` inject pre-built distance maps and skip the
    corresponding BFS of the preprocessing step — the hook the service
    cache's miss path uses to reuse a live entry's map for a shared
    endpoint.  An injected map must have been built for the
    matching endpoint and ``horizon=map_horizon(k)`` (``k - 1``) over
    the current graph state (this is validated for source/horizon;
    content freshness is the caller's contract), and is owned by the
    returned index's maintainer from here on: pass a
    :meth:`~repro.core.distance.DistanceMap.clone` when the master copy
    is reused.
    """
    if s == t:
        raise ValueError("s and t must differ")
    if k < 0:
        raise ValueError("k must be non-negative")
    if k > MAX_HORIZON:
        raise ValueError(f"k must be at most {MAX_HORIZON}")
    if forced_plan is not None and forced_plan.k != k:
        raise ValueError(f"forced plan is for k={forced_plan.k}, not {k}")
    horizon = map_horizon(k)
    if dist_s is not None and (
        dist_s.source != s or dist_s.horizon != horizon
    ):
        raise ValueError(
            f"injected dist_s is for ({dist_s.source!r}, horizon "
            f"{dist_s.horizon}), not ({s!r}, {horizon})"
        )
    if dist_t is not None and (
        dist_t.source != t or dist_t.horizon != horizon
    ):
        raise ValueError(
            f"injected dist_t is for ({dist_t.source!r}, horizon "
            f"{dist_t.horizon}), not ({t!r}, {horizon})"
        )

    stats = ConstructionStats()
    started = time.perf_counter()
    with obs.span("construction.prep"):
        if dist_s is None:
            dist_s = DistanceMap(graph, s, horizon=horizon)
        if dist_t is None:
            dist_t = DistanceMap(graph.reverse_view(), t, horizon=horizon)
    stats.prep_seconds = time.perf_counter() - started

    started = time.perf_counter()
    with obs.span("construction.build"):
        builder = _Builder(graph, s, t, k, dist_s, dist_t, stats)
        plan = builder.run(forced_plan)
    index = PartialPathIndex(s, t, k, plan, bits=builder.bits)
    index.left = builder.left
    index.right = builder.right
    index.direct_edge = k >= 1 and graph.has_edge(s, t)
    stats.build_seconds = time.perf_counter() - started
    stats.left_paths = len(index.left)
    stats.right_paths = len(index.right)
    if obs.enabled():
        obs.incr("construction.builds")
        obs.incr("construction.expansions", stats.expansions)
        obs.incr("construction.pruned", stats.pruned)
        obs.observe("construction.left_paths", stats.left_paths)
        obs.observe("construction.right_paths", stats.right_paths)
    recorder = explain_active()
    if recorder is not None:
        recorder.record_plan(plan.pairs)
        recorder.record_buckets(
            {n: index.left.count_at_length(n) for n in index.left.lengths()},
            {n: index.right.count_at_length(n) for n in index.right.lengths()},
            index.direct_edge,
        )
    return BuildResult(index, dist_s, dist_t, stats)


class _Builder:
    """Internal state of one Algorithm 2 run."""

    def __init__(
        self,
        graph: DynamicDiGraph,
        s: Vertex,
        t: Vertex,
        k: int,
        dist_s: DistanceMap,
        dist_t: DistanceMap,
        stats: ConstructionStats,
    ) -> None:
        self.graph = graph
        self.s = s
        self.t = t
        self.k = k
        self.dist_s = dist_s
        self.dist_t = dist_t
        self.stats = stats
        # Buckets and the bit space of their masks are built here and
        # handed to the index afterwards.
        from repro.core.index import PathBuckets

        self.bits = BitSpace()
        self.left = PathBuckets()
        self.right = PathBuckets()
        # Each frontier maps one level's paths, in the order they were
        # grown, to their vertex masks: a child's mask is its parent's
        # plus one bit.
        self._left_frontier: Dict[Path, int] = {(s,): self.bits[s]}
        self._right_frontier: Dict[Path, int] = {(t,): self.bits[t]}
        # Per-query EXPLAIN recorder, checked once per build / level (not
        # per expansion) so the no-recorder case stays free.
        self._explain = explain_active()

    # ------------------------------------------------------------------
    def run(self, forced_plan: Optional[JoinPlan]) -> JoinPlan:
        """Execute the level searches and return the resulting plan."""
        k = self.k
        if k < 2:
            return JoinPlan(k, ())
        pairs: List[Tuple[int, int]] = []
        i = j = 1
        self._left_level(1)
        self._right_level(1)
        pairs.append((1, 1))
        forced = list(forced_plan.pairs) if forced_plan is not None else None
        recorder = self._explain
        while i + j < k:
            if forced is not None:
                ni, nj = forced[i + j - 1]
                grow_left = ni == i + 1
            else:
                # Optimization 2: continue in the direction with fewer
                # frontier paths.  (The paper's Algorithm 2 line 8 has the
                # comparison inverted relative to its own prose; we follow
                # the prose, which is the variant that minimizes work.)
                grow_left = len(self._left_frontier) < len(self._right_frontier)
                obs.incr(
                    "construction.cut.grow_left"
                    if grow_left
                    else "construction.cut.grow_right"
                )
            if recorder is not None:
                recorder.record_cut(
                    i + j + 1,
                    "left" if grow_left else "right",
                    len(self._left_frontier),
                    len(self._right_frontier),
                    forced=forced is not None,
                )
            if grow_left:
                i += 1
                self._left_level(i)
            else:
                j += 1
                self._right_level(j)
            pairs.append((i, j))
        self.stats.left_levels = i
        self.stats.right_levels = j
        return JoinPlan(k, tuple(pairs))

    # ------------------------------------------------------------------
    def _left_level(self, level: int) -> None:
        """Grow left partial paths from level ``level - 1`` to ``level``."""
        t = self.t
        budget = self.k - level  # max Dist_t[y] an admissible endpoint has
        # Hot loop: Dist_t[y] is dist[ids[y]] (far beyond the horizon).
        dist = self.dist_t.table()
        ids = self.dist_t.interner.ids()
        out_neighbors = self.graph.out_neighbors
        bits = self.bits
        bucket: Bucket = {}
        next_frontier: Dict[Path, int] = {}
        expansions = 0
        for path, mask in self._left_frontier.items():
            tail = path[-1]
            for y in out_neighbors(tail):
                expansions += 1
                if y == t or dist[ids[y]] > budget or y in path:
                    continue
                extended = path + (y,)
                next_frontier[extended] = mask | bits[y]
                paths = bucket.get(y)
                if paths is None:
                    bucket[y] = {extended}
                else:
                    paths.add(extended)
        self.left.add_level(level, bucket, next_frontier)
        self.stats.expansions += expansions
        self.stats.pruned += expansions - len(next_frontier)
        if obs.enabled():
            obs.observe("construction.left_frontier", len(next_frontier))
            obs.incr(
                "construction.left_pruned", expansions - len(next_frontier)
            )
        if self._explain is not None:
            self._explain.record_level(
                "left", level, expansions, len(next_frontier)
            )
        self._left_frontier = next_frontier

    def _right_level(self, level: int) -> None:
        """Grow right partial paths (stored forward) by prepending."""
        s = self.s
        budget = self.k - level
        dist = self.dist_s.table()
        ids = self.dist_s.interner.ids()
        in_neighbors = self.graph.in_neighbors
        bits = self.bits
        bucket: Bucket = {}
        next_frontier: Dict[Path, int] = {}
        expansions = 0
        for path, mask in self._right_frontier.items():
            head = path[0]
            for x in in_neighbors(head):
                expansions += 1
                if x == s or dist[ids[x]] > budget or x in path:
                    continue
                extended = (x,) + path
                next_frontier[extended] = mask | bits[x]
                paths = bucket.get(x)
                if paths is None:
                    bucket[x] = {extended}
                else:
                    paths.add(extended)
        self.right.add_level(level, bucket, next_frontier)
        self.stats.expansions += expansions
        self.stats.pruned += expansions - len(next_frontier)
        if obs.enabled():
            obs.observe("construction.right_frontier", len(next_frontier))
            obs.incr(
                "construction.right_pruned", expansions - len(next_frontier)
            )
        if self._explain is not None:
            self._explain.record_level(
                "right", level, expansions, len(next_frontier)
            )
        self._right_frontier = next_frontier


__all__ = [
    "ConstructionStats",
    "BuildResult",
    "build_index",
    "map_horizon",
]
