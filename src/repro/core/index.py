"""The partial path-based index (Section III-A).

For a query ``q(s, t, k)`` the index holds:

- ``LP_i(v)`` — every admissible simple path ``s -> v`` with ``i`` hops
  (``1 <= i <= l``), avoiding ``t``, satisfying ``i + Dist_t[v] <= k``;
- ``RP_j(v)`` — every admissible simple path ``v -> t`` with ``j`` hops
  (``1 <= j <= r``), avoiding ``s``, satisfying ``j + Dist_s[v] <= k``;
- the :class:`~repro.core.plan.JoinPlan` with ``l + r = k``;
- whether the direct edge ``(s, t)`` exists (the length-1 path cannot be
  represented as a join of two non-empty partial paths, so it is tracked
  explicitly — see DESIGN.md §3).

Right partial paths are stored in *forward* orientation ``(v, ..., t)``
so that joining is plain tuple concatenation.  Every stored path carries
its vertex mask, written with it (see :class:`BitSpace`), so the join
tests disjointness with one int AND and never derives a mask itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any, Dict, Iterator, List, Mapping, NamedTuple, Optional, Set, Tuple,
)

from repro.core.paths import Path
from repro.core.plan import JoinPlan
from repro.graph.digraph import Vertex

Bucket = Dict[Vertex, Set[Path]]


class BitSpace(Dict[Vertex, int]):
    """One index's private ``vertex -> bit`` map for the join masks.

    The ``n``-th distinct vertex looked up gets bit ``1 << n``: reading
    ``bits[v]`` assigns the next bit on first use, so the writers
    (construction, maintenance) never test for a missing vertex.  A
    path's *mask* is the OR of its vertices' bits.  Both sides of one
    index share one space, so two partial paths meeting at cut vertex
    ``v`` join into a simple path iff ``left_mask & right_mask ==
    bits[v]`` (they share exactly the cut vertex).  Readers that must
    not assign use ``bits.get(v)``.
    """

    __slots__ = ()

    def __missing__(self, vertex: Vertex) -> int:
        bit = 1 << len(self)
        self[vertex] = bit
        return bit

    def mask(self, path: Path) -> int:
        """The vertex mask of ``path`` (assigning bits to new vertices)."""
        mask = 0
        for v in path:
            mask |= self[v]
        return mask


#: One cut-vertex bucket of a join step:
#: ``(vc bit, left masks, left paths, right (mask, tail) pairs)`` — the
#: lists are built once per program, in the buckets' set order, so the
#: probe loop runs on plain lists with no per-call slicing.
BucketStep = Tuple[int, List[int], List[Path], List[Tuple[int, Path]]]

#: One linearized probe of a small join step:
#: ``(left mask, left path, right mask, right tail, vc bit)``.
ProbeStep = Tuple[int, Path, int, Path, int]

#: Per-step probe-count ceiling for linearization: a step whose total
#: probe count stays under this is stored as one flat probe list (one
#: tuple per ``(lp, rp)`` combination, in emission order), so the join
#: runs as a single comprehension; bigger steps keep the per-bucket
#: nested layout.
PACK_FLAT_STEP_MAX = 4096


class JoinStep(NamedTuple):
    """One resolved plan pair ``(i, j)`` of the join program.

    Carries the pair's own accounting, so EXPLAIN and the obs counters
    read it off the program instead of re-walking the buckets.
    """

    i: int
    j: int
    #: Cut vertices keyed on both levels.
    cut_vertices: int
    #: ``Σ_v |LP_i(v)|·|RP_j(v)|`` over those cut vertices: every
    #: ``(lp, rp)`` combination the join tests.
    probe_total: int
    #: The linearized probe list (small steps; None otherwise).
    flat: Optional[List[ProbeStep]]
    #: Per-cut-vertex buckets (big steps; empty when ``flat`` is used).
    buckets: List[BucketStep]


class PathBuckets:
    """One side of the index: paths bucketed by ``(length, key vertex)``.

    The key vertex is the path's *cut-side* endpoint — the last vertex
    for left partial paths, the first for right partial paths.  The
    caller passes it explicitly so the same container serves both sides
    (and the maintenance delta records).

    Every path is written together with its vertex mask (see
    :class:`BitSpace`), and one ``path -> mask`` map answers membership.
    The buckets stay sets because set order is the join's emission
    order.
    """

    __slots__ = ("_by_len", "_masks", "_slots", "_version")

    def __init__(self) -> None:
        self._by_len: Dict[int, Bucket] = {}
        self._masks: Dict[Path, int] = {}
        # Running vertex-slot total, so sizing the index never walks the
        # stored paths (the path count is len(_masks)).
        self._slots = 0
        # Mutation counter: every write bumps it, so a join program
        # built from these buckets knows when it is stale.
        self._version = 0

    def add(self, vertex: Vertex, path: Path, mask: int) -> bool:
        """Insert ``path`` with its vertex ``mask`` under
        ``(hops(path), vertex)``; True if new."""
        masks = self._masks
        if path in masks:
            return False
        masks[path] = mask
        size = len(path)
        bucket = self._by_len.setdefault(size - 1, {})
        paths = bucket.get(vertex)
        if paths is None:
            bucket[vertex] = {path}
        else:
            paths.add(path)
        self._slots += size
        self._version += 1
        return True

    def add_level(
        self, length: int, bucket: Bucket, masks: Dict[Path, int]
    ) -> None:
        """Install a whole level of paths of ``length`` hops with their
        vertex masks: ``bucket`` keys each path by its key vertex, and
        ``masks`` maps each of those paths to its mask.

        The construction level search's write, one call per level; the
        level must hold no paths yet, and is created even when empty,
        as the level search reached it.
        """
        if self._by_len.get(length):
            raise ValueError(f"level {length} already holds paths")
        self._by_len[length] = bucket
        if masks:
            self._masks.update(masks)
            self._slots += len(masks) * (length + 1)
            self._version += 1

    def remove(self, vertex: Vertex, path: Path) -> bool:
        """Remove ``path`` (keyed at ``vertex``); True if it was present."""
        masks = self._masks
        if path not in masks:
            return False
        size = len(path)
        length = size - 1
        bucket = self._by_len[length]
        paths = bucket[vertex]
        paths.discard(path)
        del masks[path]
        self._slots -= size
        self._version += 1
        if not paths:
            del bucket[vertex]
            if not bucket:
                del self._by_len[length]
        return True

    def contains(self, vertex: Vertex, path: Path) -> bool:
        """Whether ``path`` (keyed at ``vertex``) is stored."""
        return path in self._masks

    def mask_of(self, path: Path) -> int:
        """The vertex mask stored with ``path`` (KeyError if absent)."""
        return self._masks[path]

    def masks(self) -> Mapping[Path, int]:
        """The live ``path -> vertex mask`` map of every stored path.

        Exposed without a copy for the join and maintenance hot loops;
        callers must treat it as read-only (lint rule R013).
        """
        return self._masks

    def bucket(self, length: int) -> Bucket:
        """All vertex buckets at ``length`` (live mapping; may be empty)."""
        return self._by_len.get(length, {})

    @property
    def vertex_slots(self) -> int:
        """Total vertex entries over every stored path (O(1))."""
        return self._slots

    @property
    def version(self) -> int:
        """Mutation stamp; changes whenever the stored paths change."""
        return self._version

    def at(self, vertex: Vertex, length: int) -> Set[Path]:
        """Paths at ``(vertex, length)`` (live set; may be empty)."""
        return self._by_len.get(length, {}).get(vertex, set())

    def at_vertex(self, vertex: Vertex) -> Iterator[Tuple[int, Path]]:
        """All ``(length, path)`` entries keyed at ``vertex``."""
        for length, bucket in self._by_len.items():
            for path in bucket.get(vertex, ()):
                yield length, path

    def paths(self) -> Iterator[Path]:
        """Every stored path."""
        for bucket in self._by_len.values():
            for path_set in bucket.values():
                yield from path_set

    def entries(self) -> Iterator[Tuple[int, Vertex, Path]]:
        """Every ``(length, vertex, path)`` triple."""
        for length, bucket in self._by_len.items():
            for vertex, path_set in bucket.items():
                for path in path_set:
                    yield length, vertex, path

    def lengths(self) -> Iterator[int]:
        """Lengths with at least one stored path."""
        return iter(self._by_len)

    def count_at_length(self, length: int) -> int:
        """Number of paths of exactly ``length`` hops."""
        return sum(len(ps) for ps in self._by_len.get(length, {}).values())

    def __len__(self) -> int:
        return len(self._masks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PathBuckets):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def as_dict(self) -> Dict[int, Dict[Vertex, Set[Path]]]:
        """A normalized copy (empty buckets dropped) for comparisons."""
        return {
            length: {v: set(ps) for v, ps in bucket.items() if ps}
            for length, bucket in self._by_len.items()
            if any(bucket.values())
        }

    def __repr__(self) -> str:
        return f"PathBuckets(paths={len(self._masks)})"


@dataclass(frozen=True)
class IndexMemoryStats:
    """Memory accounting for Fig. 12.

    ``path_count`` / ``vertex_slots`` count stored paths and their total
    vertex entries; ``approx_bytes`` estimates the resident size the way
    the paper's "AvgIdx" measures its C++ index (vertex ids as machine
    words plus per-path overhead).
    """

    left_paths: int
    right_paths: int
    vertex_slots: int

    @property
    def path_count(self) -> int:
        """Total stored partial paths."""
        return self.left_paths + self.right_paths

    @property
    def approx_bytes(self) -> int:
        """8 bytes per vertex slot + 16 bytes per path record."""
        return 8 * self.vertex_slots + 16 * self.path_count


class PartialPathIndex:
    """The partial path index for one query ``q(s, t, k)``."""

    __slots__ = (
        "s",
        "t",
        "k",
        "plan",
        "left",
        "right",
        "direct_edge",
        "_bits",
        "_program",
    )

    def __init__(
        self,
        s: Vertex,
        t: Vertex,
        k: int,
        plan: JoinPlan,
        bits: Optional[BitSpace] = None,
    ) -> None:
        if s == t:
            raise ValueError("s and t must differ")
        if plan.k != k:
            raise ValueError(f"plan is for k={plan.k}, query has k={k}")
        self.s = s
        self.t = t
        self.k = k
        self.plan = plan
        self.left = PathBuckets()
        self.right = PathBuckets()
        self.direct_edge = False
        # The bit space of the stored masks: construction assigns bits
        # while it writes, before the index exists, and hands its space
        # over here.
        self._bits = BitSpace() if bits is None else bits
        # Join-program cache: (left obj, right obj, left ver, right ver,
        # program).  Identity + version checks catch both in-place
        # mutation and wholesale bucket replacement (build_index assigns
        # fresh PathBuckets).
        self._program: Optional[
            Tuple[Any, Any, int, int, List[JoinStep]]
        ] = None

    @property
    def bits(self) -> BitSpace:
        """The ``vertex -> bit`` space every stored mask is written in."""
        return self._bits

    # ------------------------------------------------------------------
    # Left side (paths s -> v, keyed by their last vertex)
    # ------------------------------------------------------------------
    def add_left(self, path: Path) -> bool:
        """Store a left partial path; True if new."""
        vertex = path[-1]
        if self.left.contains(vertex, path):
            return False
        return self.left.add(vertex, path, self._bits.mask(path))

    def remove_left(self, path: Path) -> bool:
        """Drop a left partial path; True if present."""
        return self.left.remove(path[-1], path)

    def has_left(self, path: Path) -> bool:
        """Whether a left partial path is stored."""
        return self.left.contains(path[-1], path)

    # ------------------------------------------------------------------
    # Right side (paths v -> t in forward orientation, keyed by first vertex)
    # ------------------------------------------------------------------
    def add_right(self, path: Path) -> bool:
        """Store a right partial path; True if new."""
        vertex = path[0]
        if self.right.contains(vertex, path):
            return False
        return self.right.add(vertex, path, self._bits.mask(path))

    def remove_right(self, path: Path) -> bool:
        """Drop a right partial path; True if present."""
        return self.right.remove(path[0], path)

    def has_right(self, path: Path) -> bool:
        """Whether a right partial path is stored."""
        return self.right.contains(path[0], path)

    # ------------------------------------------------------------------
    # The join program
    # ------------------------------------------------------------------
    def packed_program(self) -> List[JoinStep]:
        """The join plan resolved against the cut-vertex buckets.

        One :class:`JoinStep` per plan pair whose two levels are both
        non-empty (a step may have no cut vertex).  Only the vertices
        keyed on both levels are visited — in the smaller side's dict
        order, exactly as the nested dict/set join iterates — and each
        contributes its paths in set order with the masks stored beside
        them.  Cached until either side's buckets change or are
        replaced.
        """
        left, right = self.left, self.right
        cached = self._program
        if (
            cached is not None
            and cached[0] is left
            and cached[1] is right
            and cached[2] == left.version
            and cached[3] == right.version
        ):
            return cached[4]
        bits = self._bits
        left_masks = left.masks()
        right_masks = right.masks()
        program: List[JoinStep] = []
        for i, j in self.plan:
            left_bucket = left.bucket(i)
            right_bucket = right.bucket(j)
            if not left_bucket or not right_bucket:
                continue
            if len(left_bucket) <= len(right_bucket):
                middles = [v for v in left_bucket if v in right_bucket]
            else:
                middles = [v for v in right_bucket if v in left_bucket]
            probe_total = sum([
                len(left_bucket[v]) * len(right_bucket[v]) for v in middles
            ])
            flat: Optional[List[ProbeStep]] = None
            buckets: List[BucketStep] = []
            if probe_total < PACK_FLAT_STEP_MAX:
                flat = []
                for vc in middles:
                    vcbit = bits[vc]
                    rpairs = [
                        (right_masks[p], p[1:]) for p in right_bucket[vc]
                    ]
                    flat += [
                        (lmask, lp, rmask, rtail, vcbit)
                        for lp in left_bucket[vc]
                        for lmask in (left_masks[lp],)  # once per left path
                        for rmask, rtail in rpairs
                    ]
            else:
                for vc in middles:
                    lpaths = list(left_bucket[vc])
                    buckets.append((
                        bits[vc],
                        [left_masks[p] for p in lpaths],
                        lpaths,
                        [(right_masks[p], p[1:]) for p in right_bucket[vc]],
                    ))
            program.append(JoinStep(
                i, j, len(middles), probe_total, flat, buckets,
            ))
        self._program = (
            left,
            right,
            left.version,
            right.version,
            program,
        )
        return program

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def memory_stats(self) -> IndexMemoryStats:
        """Size accounting for the memory experiment (Fig. 12).

        Reads the buckets' running counters, so it costs O(1) however
        many partial paths are stored.
        """
        return IndexMemoryStats(
            left_paths=len(self.left),
            right_paths=len(self.right),
            vertex_slots=self.left.vertex_slots + self.right.vertex_slots,
        )

    def __repr__(self) -> str:
        return (
            f"PartialPathIndex(s={self.s!r}, t={self.t!r}, k={self.k}, "
            f"l={self.plan.l}, r={self.plan.r}, "
            f"|LP|={len(self.left)}, |RP|={len(self.right)}, "
            f"direct_edge={self.direct_edge})"
        )


__all__ = [
    "BitSpace",
    "Bucket",
    "JoinStep",
    "PathBuckets",
    "IndexMemoryStats",
    "PartialPathIndex",
]
