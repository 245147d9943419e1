"""The public facade: ``CPE_startup`` + ``CPE_update`` in one object.

Typical usage::

    from repro import CpeEnumerator

    cpe = CpeEnumerator(graph, s=3, t=42, k=6)
    all_paths = cpe.startup()              # CPE_startup
    result = cpe.insert_edge(7, 9)         # CPE_update (arrival)
    print(result.paths)                    # exactly the new k-st paths
    result = cpe.delete_edge(3, 8)         # CPE_update (expiration)
    print(result.paths)                    # exactly the deleted paths

The enumerator owns the graph reference: updates must flow through
:meth:`insert_edge` / :meth:`delete_edge` / :meth:`apply` so the
distance maps and the index stay consistent with the graph.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator, List, Optional

from repro import obs
from repro.core.construction import BuildResult, ConstructionStats, build_index
from repro.core.distance import DistanceMap, JointMap
from repro.core.enumeration import (
    count_full,
    enumerate_delta,
    enumerate_full,
    enumerate_full_list,
)
from repro.core.index import IndexMemoryStats, PartialPathIndex
from repro.core.maintenance import IndexMaintainer, UpdateRecord
from repro.core.paths import Path
from repro.core.plan import JoinPlan
from repro.graph.digraph import DynamicDiGraph, EdgeUpdate, Vertex


@dataclass
class UpdateResult:
    """Outcome of one edge update.

    ``paths`` holds the *new* k-st paths for an insertion and the
    *deleted* ones for a deletion.  ``maintain_seconds`` is the index
    maintenance cost and ``enumerate_seconds`` the update-enumeration
    cost — their sum is the paper's ``CPE_update`` running time.
    ``record`` is the maintainer's record; an update that left the
    graph as it was (``changed=False``) has none.
    """

    update: EdgeUpdate
    changed: bool
    paths: List[Path] = field(default_factory=list)
    maintain_seconds: float = 0.0
    enumerate_seconds: float = 0.0
    record: Optional[UpdateRecord] = None

    @property
    def total_seconds(self) -> float:
        """The paper's CPE_update latency for this update."""
        return self.maintain_seconds + self.enumerate_seconds

    @property
    def delta_count(self) -> int:
        """Number of new/deleted full paths (``Δ|P|``)."""
        return len(self.paths)


class CpeEnumerator:
    """Continuous k-st path enumeration over a dynamic graph.

    Parameters
    ----------
    graph:
        The dynamic graph; mutated in place by updates.
    s, t:
        Source and target (must differ).
    k:
        The hop constraint (``k >= 0``).
    forced_plan:
        Optional fixed join plan (disables the dynamic cut); used by
        tests and by the cut-ablation benchmark.
    """

    def __init__(
        self,
        graph: DynamicDiGraph,
        s: Vertex,
        t: Vertex,
        k: int,
        forced_plan: Optional[JoinPlan] = None,
    ) -> None:
        if s == t:
            raise ValueError("s and t must differ")
        if k < 0:
            raise ValueError("k must be non-negative")
        self.graph = graph
        self.s = s
        self.t = t
        self.k = k
        build: BuildResult = build_index(graph, s, t, k, forced_plan=forced_plan)
        self._index = build.index
        self._dist_s = build.dist_s
        self._dist_t = build.dist_t
        self._construction_stats = build.stats
        self._maintainer = IndexMaintainer(
            graph, self._index, self._dist_s, self._dist_t
        )

    # ------------------------------------------------------------------
    # Alternate constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_build(
        cls, graph: DynamicDiGraph, build: BuildResult
    ) -> "CpeEnumerator":
        """Wrap an already-run :func:`build_index` result.

        Unlike :meth:`from_parts` the construction statistics are kept,
        so an enumerator assembled from an external build (e.g. the
        service cache's miss path, which injects a ``Dist_s`` cloned
        from a live entry) is indistinguishable from one built by
        ``__init__``.
        """
        self = cls.from_parts(graph, build.index, build.dist_s, build.dist_t)
        self._construction_stats = build.stats
        return self

    @classmethod
    def from_parts(
        cls,
        graph: DynamicDiGraph,
        index: PartialPathIndex,
        dist_s: DistanceMap,
        dist_t: JointMap,
    ) -> "CpeEnumerator":
        """Assemble an enumerator from pre-built state (deserialization).

        The caller is responsible for the parts being mutually
        consistent (index invariant w.r.t. the graph and distances,
        ``dist_t`` pruned by ``dist_s``); :mod:`repro.core.serialize`
        produces such parts.
        """
        self = cls.__new__(cls)
        self.graph = graph
        self.s = index.s
        self.t = index.t
        self.k = index.k
        self._index = index
        self._dist_s = dist_s
        self._dist_t = dist_t
        self._construction_stats = ConstructionStats()
        self._maintainer = IndexMaintainer(graph, index, dist_s, dist_t)
        return self

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def index(self) -> PartialPathIndex:
        """The live partial path index (read-only use expected)."""
        return self._index

    @property
    def plan(self) -> JoinPlan:
        """The join plan chosen at construction."""
        return self._index.plan

    @property
    def dist_s(self) -> DistanceMap:
        """The maintained ``Dist_s`` map (read-only use expected)."""
        return self._dist_s

    @property
    def dist_t(self) -> JointMap:
        """The maintained joint ``Dist_t`` map (read-only use expected):
        the true ``Dist_t`` on ``G_sub = {v : Dist_s[v] + Dist_t[v] <= k}``
        and ``far`` everywhere else."""
        return self._dist_t

    @property
    def construction_stats(self) -> ConstructionStats:
        """Timings/counters of the start-up construction."""
        return self._construction_stats

    def memory_stats(self) -> IndexMemoryStats:
        """Current index size accounting (Fig. 12)."""
        return self._index.memory_stats()

    # ------------------------------------------------------------------
    # Start-up enumeration
    # ------------------------------------------------------------------
    def startup(self) -> List[Path]:
        """All current k-st paths (Algorithm 1 over the index)."""
        with obs.span("enumeration.full"):
            return enumerate_full_list(self._index)

    def iter_paths(self) -> Iterator[Path]:
        """Streaming variant of :meth:`startup`."""
        return enumerate_full(self._index)

    def count_paths(self) -> int:
        """``|P|`` without materializing the result set."""
        return count_full(self._index)

    # ------------------------------------------------------------------
    # Update stage
    # ------------------------------------------------------------------
    def insert_edge(self, u: Vertex, v: Vertex) -> UpdateResult:
        """Process ``e(u, v, +)`` and return exactly the new k-st paths."""
        return self.apply(EdgeUpdate(u, v, True))

    def delete_edge(self, u: Vertex, v: Vertex) -> UpdateResult:
        """Process ``e(u, v, -)`` and return exactly the deleted paths."""
        return self.apply(EdgeUpdate(u, v, False))

    def apply(self, update: EdgeUpdate) -> UpdateResult:
        """Process one :class:`~repro.graph.digraph.EdgeUpdate`: apply it
        to the graph, then :meth:`observe` it.  An update that leaves the
        graph as it was (edge already present / already absent) changes
        nothing."""
        if not self.graph.apply_update(update):
            return UpdateResult(update, changed=False)
        return self.observe(update)

    # ------------------------------------------------------------------
    # Shared-graph observation (multi-query monitoring)
    # ------------------------------------------------------------------
    def observe(self, update: EdgeUpdate) -> UpdateResult:
        """Repair the index for an update already applied to the graph.

        When several enumerators monitor different ``(s, t)`` pairs over
        *one shared graph* (see
        :class:`repro.core.monitor.MultiPairMonitor`), exactly one party
        mutates the graph; every enumerator then ``observe``s the update
        to bring its own index and distance maps up to date and collect
        its changed paths.  Raises :class:`ValueError` if the graph does
        not reflect the update.

        An update that fails the relevance test (``record.relevant`` is
        False) repaired only ``Dist_s``: its deltas are empty, so
        neither the delta join nor the removal pass runs.
        """
        started = time.perf_counter()
        repair = (
            self._maintainer.insert_edge
            if update.insert
            else self._maintainer.delete_edge
        )
        record = repair(update.u, update.v)
        maintained = time.perf_counter()
        if not record.relevant:
            return self._note_update(UpdateResult(
                update,
                changed=True,
                maintain_seconds=maintained - started,
                record=record,
            ))
        # For a deletion the update enumeration runs on the still-intact
        # index; the removals are applied afterwards (paper, Section IV-B2).
        paths = list(
            enumerate_delta(
                self._index,
                record.left_delta,
                record.right_delta,
                record.direct_changed,
            )
        )
        enumerated = time.perf_counter()
        if not record.insert:
            self._maintainer.apply_removals(record)
        finished = time.perf_counter()
        return self._note_update(UpdateResult(
            update,
            changed=True,
            paths=paths,
            maintain_seconds=(maintained - started) + (finished - enumerated),
            enumerate_seconds=enumerated - maintained,
            record=record,
        ))

    def _note_update(self, result: UpdateResult) -> UpdateResult:
        """Record one changed update's stage costs into :mod:`repro.obs`."""
        if obs.enabled() and result.changed:
            kind = "insert" if result.update.insert else "delete"
            obs.observe(f"maintenance.{kind}.seconds", result.maintain_seconds)
            obs.observe("enumeration.delta.seconds", result.enumerate_seconds)
            obs.incr(f"update.{kind}.paths", result.delta_count)
            if result.record is not None:
                obs.incr(
                    f"maintenance.{kind}.partials",
                    result.record.delta_partial_paths,
                )
        return result

    def apply_stream(self, updates) -> List[UpdateResult]:
        """Process a sequence of updates, one result per update."""
        return [self.apply(update) for update in updates]

    def __repr__(self) -> str:
        return (
            f"CpeEnumerator(s={self.s!r}, t={self.t!r}, k={self.k}, "
            f"index={self._index!r})"
        )


__all__ = [
    "UpdateResult",
    "CpeEnumerator",
]
