"""Batch update processing.

The paper processes updates on the fly, arguing that graph sparsity
leaves little shared computation within a batch.  Batching still pays
off in two situations the paper's applications hit:

1. **churn cancellation** — bursty streams re-insert recently expired
   edges (retried transactions, flapping links): the net effect of the
   batch touches far fewer edges than its length;
2. **net-delta consumers** — a downstream system that refreshes once
   per batch only needs the *net* new/deleted paths, with intra-batch
   appear-then-disappear pairs cancelled.

:func:`compress_stream` computes the net edge updates of a batch,
:class:`NetDelta` cancels a batch's paths to its net path delta, and
:func:`CpeBatch.apply` runs a batch through an enumerator, returning
that delta.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set, Tuple

from repro.core.enumerator import CpeEnumerator, UpdateResult
from repro.core.paths import Path
from repro.graph.digraph import DynamicDiGraph, EdgeUpdate, Vertex

Edge = Tuple[Vertex, Vertex]


def compress_stream(
    graph: DynamicDiGraph, updates: Iterable[EdgeUpdate]
) -> List[EdgeUpdate]:
    """The net edge updates of a batch relative to ``graph``.

    Replays the stream on edge-state bookkeeping only (the graph is not
    touched) and keeps one update per edge whose final state differs
    from its initial state.  Order of the surviving updates follows the
    last effective occurrence in the stream.
    """
    initial: Dict[Edge, bool] = {}
    final: Dict[Edge, bool] = {}
    last_effective: Dict[Edge, int] = {}
    for position, update in enumerate(updates):
        edge = update.edge
        if edge not in initial:
            initial[edge] = graph.has_edge(*edge)
            final[edge] = initial[edge]
        if update.insert != final[edge]:
            # Only occurrences that flip the running state count as
            # "effective"; no-op re-inserts/re-deletes must not bump the
            # edge's position in the survivor ordering.
            final[edge] = update.insert
            last_effective[edge] = position
    survivors = [
        EdgeUpdate(edge[0], edge[1], final[edge])
        for edge in initial
        if final[edge] != initial[edge]
    ]
    survivors.sort(key=lambda upd: last_effective[upd.edge])
    return survivors


@dataclass
class BatchResult:
    """Net outcome of one batch.

    ``new_paths`` / ``deleted_paths`` are relative to the state *before*
    the batch, with intra-batch churn cancelled; ``per_update`` holds
    the raw results of the (possibly compressed) updates actually
    applied.
    """

    new_paths: List[Path] = field(default_factory=list)
    deleted_paths: List[Path] = field(default_factory=list)
    applied: int = 0
    skipped_by_compression: int = 0
    per_update: List[UpdateResult] = field(default_factory=list)

    @property
    def net_delta(self) -> int:
        """Net change in the number of k-st paths."""
        return len(self.new_paths) - len(self.deleted_paths)


class NetDelta:
    """The net path change of a sequence of updates.

    Fold each update's changed paths in order: a path that appears and
    then disappears within the sequence (or the reverse) cancels.
    """

    __slots__ = ("new", "deleted")

    def __init__(self) -> None:
        self.new: Set[Path] = set()
        self.deleted: Set[Path] = set()

    def fold(self, insert: bool, paths: Iterable[Path]) -> None:
        """Fold in one update's paths: new ones for an insertion,
        deleted ones for a deletion."""
        gained, lost = (
            (self.new, self.deleted) if insert else (self.deleted, self.new)
        )
        for path in paths:
            if path in lost:
                lost.discard(path)
            else:
                gained.add(path)

    def ordered(self) -> Tuple[List[Path], List[Path]]:
        """The net new and net deleted paths, each sorted by length,
        then ``repr``."""
        return _ordered(self.new), _ordered(self.deleted)


def _ordered(paths: Set[Path]) -> List[Path]:
    return sorted(paths, key=lambda p: (len(p), repr(p)))


class CpeBatch:
    """Batch application of update streams to a :class:`CpeEnumerator`."""

    def __init__(self, enumerator: CpeEnumerator) -> None:
        self.enumerator = enumerator

    def apply(
        self, updates: Iterable[EdgeUpdate], compress: bool = True
    ) -> BatchResult:
        """Apply a batch, returning its cancelled net path delta."""
        updates = list(updates)
        result = BatchResult()
        if compress:
            effective = compress_stream(self.enumerator.graph, updates)
            result.skipped_by_compression = len(updates) - len(effective)
        else:
            effective = updates

        net = NetDelta()
        for update in effective:
            outcome = self.enumerator.apply(update)
            result.per_update.append(outcome)
            result.applied += 1
            net.fold(update.insert, outcome.paths)
        result.new_paths, result.deleted_paths = net.ordered()
        return result


__all__ = [
    "Edge",
    "compress_stream",
    "NetDelta",
    "BatchResult",
    "CpeBatch",
]
