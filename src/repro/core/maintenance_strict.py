"""The paper-literal UDFS maintenance variant (for the gap analysis).

Algorithm 4's UDFS repairs the index after an insertion by extending
**only newly-added paths** backward from the unrelaxed frontier
(``S_edge``) into the relaxed set, guarded by the "was not admissible
before" test ``Dist_s[v] + i + 1 > k``.  DESIGN.md §3 argues this is
incomplete: a *pre-existing* admissible path at a relaxed vertex can
need an extension to a second relaxed vertex that only now became
admissible, and the strict rule never revisits pre-existing paths
beyond the first hop off the frontier.

:class:`StrictUdfsMaintainer` implements that literal reading so the
gap can be demonstrated and quantified (see
``tests/test_strict_udfs.py``).  It is **not** used by
:class:`~repro.core.enumerator.CpeEnumerator`; the production
maintainer's admissibility repair (a distance-pruned DFS per relaxed
vertex) is provably complete.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro import obs
from repro.core.index import PathBuckets
from repro.core.maintenance import IndexMaintainer
from repro.core.paths import Path
from repro.graph.digraph import Vertex


class StrictUdfsMaintainer(IndexMaintainer):
    """Insertion repair per the paper's literal Algorithm 4 pseudocode.

    Deletions and the new-edge path generation are inherited unchanged;
    only the admissibility repair differs.
    """

    def _repair_right(
        self, changed_s: Dict[Vertex, Tuple[int, int]], delta: PathBuckets
    ) -> None:
        k, r = self.k, self.index.plan.r
        right = self.index.right
        relaxed = {
            w: (old, new)
            for w, (old, new) in changed_s.items()
            if w != self.s and w != self.t
        }
        if not relaxed:
            return
        obs.incr("maintenance.strict.udfs_right_relaxed", len(relaxed))
        # S_edge: unrelaxed out-neighbors of relaxed vertices (the
        # vertices whose RP content is known-complete).
        frontier: Set[Vertex] = set()
        for w in relaxed:
            for y in self.graph.out_neighbors(w):
                if y not in relaxed:
                    frontier.add(y)

        def admissible_now(w: Vertex, length: int) -> bool:
            return length <= r and length + relaxed[w][1] <= k

        def newly_admissible(w: Vertex, length: int) -> bool:
            return length + relaxed[w][0] > k

        stack: List[Path] = []
        for u2 in frontier:
            for length, path in list(self.index.right.at_vertex(u2)):
                if length + 1 > r:
                    continue
                for v2 in self.graph.in_neighbors(u2):
                    if v2 not in relaxed or v2 in path:
                        continue
                    if not admissible_now(v2, length + 1):
                        continue
                    if not newly_admissible(v2, length + 1):
                        continue
                    extended = (v2,) + path
                    if self.index.add_right(extended):
                        delta.add(v2, extended, right.mask_of(extended))
                        stack.append(extended)  # strict: recurse on NEW only
        while stack:
            path = stack.pop()
            length = len(path) - 1
            if length + 1 > r:
                continue
            for v2 in self.graph.in_neighbors(path[0]):
                if v2 not in relaxed or v2 in path:
                    continue
                if not admissible_now(v2, length + 1):
                    continue
                if not newly_admissible(v2, length + 1):
                    continue
                extended = (v2,) + path
                if self.index.add_right(extended):
                    delta.add(v2, extended, right.mask_of(extended))
                    stack.append(extended)

    def _repair_left(
        self,
        changed_t: Dict[Vertex, Tuple[int, int]],
        changed_s: Dict[Vertex, Tuple[int, int]],
        delta: PathBuckets,
    ) -> None:
        k, l = self.k, self.index.plan.l
        left = self.index.left
        relaxed = {
            w: (old, new)
            for w, (old, new) in changed_t.items()
            if w != self.s and w != self.t
        }
        if not relaxed:
            return
        obs.incr("maintenance.strict.udfs_left_relaxed", len(relaxed))
        frontier: Set[Vertex] = set()
        for w in relaxed:
            for x in self.graph.in_neighbors(w):
                if x not in relaxed:
                    frontier.add(x)

        def admissible_now(w: Vertex, length: int) -> bool:
            return length <= l and length + relaxed[w][1] <= k

        def newly_admissible(w: Vertex, length: int) -> bool:
            return length + relaxed[w][0] > k

        stack: List[Path] = []
        for u2 in frontier:
            for length, path in list(self.index.left.at_vertex(u2)):
                if length + 1 > l:
                    continue
                for v2 in self.graph.out_neighbors(u2):
                    if v2 not in relaxed or v2 in path:
                        continue
                    if not admissible_now(v2, length + 1):
                        continue
                    if not newly_admissible(v2, length + 1):
                        continue
                    extended = path + (v2,)
                    if self.index.add_left(extended):
                        delta.add(v2, extended, left.mask_of(extended))
                        stack.append(extended)
        while stack:
            path = stack.pop()
            length = len(path) - 1
            if length + 1 > l:
                continue
            for v2 in self.graph.out_neighbors(path[-1]):
                if v2 not in relaxed or v2 in path:
                    continue
                if not admissible_now(v2, length + 1):
                    continue
                if not newly_admissible(v2, length + 1):
                    continue
                extended = path + (v2,)
                if self.index.add_left(extended):
                    delta.add(v2, extended, left.mask_of(extended))
                    stack.append(extended)


__all__ = [
    "StrictUdfsMaintainer",
]
