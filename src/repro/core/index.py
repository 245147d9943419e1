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
so that joining is plain tuple concatenation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Set, Tuple,
)

from repro.core.paths import Path, hops
from repro.core.plan import JoinPlan
from repro.graph.digraph import Vertex
from repro.graph.interning import VertexInterner

Bucket = Dict[Vertex, Set[Path]]


@dataclass
class PackedLevel:
    """One index level flattened for the join probe (offset-indexed).

    The paths of every vertex bucket at one length are laid out
    back-to-back in ``flat_paths``; ``slots[v]`` is the bucket's
    ``(start, end, vcbit)`` window into the flat arrays, where ``vcbit``
    is the key vertex's bit in the index's private bit-id space.
    ``masks[p]`` is the vertex bitmask of ``flat_paths[p]`` — two
    partial paths meeting at cut vertex ``v`` join into a *simple* path
    iff ``left_mask & right_mask == vcbit`` (they share exactly the cut
    vertex), which turns the per-probe disjointness test into one int
    AND.  For right levels ``tails`` additionally pre-slices each path's
    ``path[1:]`` so the emit is a single tuple concatenation.

    A packed level is a cache owned by :class:`PathBuckets` (invalidated
    by any mutation); everything in it must be treated as read-only
    (lint rule R013).
    """

    slots: Dict[Vertex, Tuple[int, int, int]]
    flat_paths: List[Path]
    masks: List[int]
    tails: Optional[List[Path]]
    #: Bit-space size at pack time (every mask fits in this many bits).
    bits_used: int
    #: Lazy ``(words_per_mask, uint64 matrix)`` for the numpy block probe.
    _words: Optional[Tuple[int, Any]] = field(default=None, repr=False)

    def words(self, np: Any, width: int) -> Any:
        """The masks as an ``(n, width)`` little-endian uint64 matrix.

        Built once per requested width and cached; the numpy block probe
        in :mod:`repro.core.enumeration` slices row windows out of it.
        """
        cached = self._words
        if cached is not None and cached[0] == width:
            return cached[1]
        nbytes = width * 8
        data = b"".join(m.to_bytes(nbytes, "little") for m in self.masks)
        matrix = np.frombuffer(data, dtype="<u8").reshape(
            len(self.masks), width
        )
        self._words = (width, matrix)
        return matrix


#: One pre-resolved cut-vertex bucket of a join step:
#: ``(left start, left end, vc bit, right start, right end,
#:    left mask slice, left path slice, right (mask, tail) pairs)`` —
#: the slices/pairs are materialized once per index version so the probe
#: loop runs on plain lists with no per-call slicing.
BucketStep = Tuple[
    int, int, int, int, int, List[int], List[Path], List[Tuple[int, Path]]
]

#: One linearized probe of a small join step:
#: ``(left mask, left path, right mask, right tail, vc bit)``.
ProbeStep = Tuple[int, Path, int, Path, int]

#: Per-step probe-count ceiling for linearization: a step whose total
#: probe count stays under this is stored as one flat probe list (one
#: tuple per ``(lp, rp)`` combination, in emission order), so the join
#: runs as a single comprehension; bigger steps keep the per-bucket
#: nested layout (and qualify for the numpy block probe instead).
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
    #: The two packed levels (kept for the numpy word-matrix probe).
    left: PackedLevel
    right: PackedLevel
    #: The linearized probe list (small steps; None otherwise).
    flat: Optional[List[ProbeStep]]
    #: Per-cut-vertex bucket ranges (big steps; empty when ``flat`` is
    #: used).
    buckets: List[BucketStep]


class PathBuckets:
    """One side of the index: paths bucketed by ``(length, key vertex)``.

    The key vertex is the path's *cut-side* endpoint — the last vertex
    for left partial paths, the first for right partial paths.  The
    caller passes it explicitly so the same container serves both sides
    (and the maintenance delta records).
    """

    __slots__ = ("_by_len", "_count", "_slots", "_version", "_packed")

    def __init__(self) -> None:
        self._by_len: Dict[int, Bucket] = {}
        # Running path and vertex-slot totals, so sizing the index never
        # walks the stored paths.
        self._count = 0
        self._slots = 0
        # Mutation counter + per-length packed-level cache.  Every write
        # (add/remove, or a bulk construction write reported through
        # note_added) bumps the version; packed() rebuilds lazily when
        # its stamp is stale.
        self._version = 0
        self._packed: Dict[int, Tuple[int, PackedLevel]] = {}

    def add(self, vertex: Vertex, path: Path) -> bool:
        """Insert ``path`` under ``(hops(path), vertex)``; True if new."""
        size = len(path)
        bucket = self._by_len.setdefault(size - 1, {})
        paths = bucket.setdefault(vertex, set())
        if path in paths:
            return False
        paths.add(path)
        self._count += 1
        self._slots += size
        self._version += 1
        return True

    def remove(self, vertex: Vertex, path: Path) -> bool:
        """Remove ``path``; True if it was present."""
        size = len(path)
        length = size - 1
        bucket = self._by_len.get(length)
        if bucket is None:
            return False
        paths = bucket.get(vertex)
        if paths is None or path not in paths:
            return False
        paths.discard(path)
        self._count -= 1
        self._slots -= size
        self._version += 1
        if not paths:
            del bucket[vertex]
            if not bucket:
                del self._by_len[length]
        return True

    def contains(self, vertex: Vertex, path: Path) -> bool:
        """Membership test under ``(hops(path), vertex)``."""
        bucket = self._by_len.get(hops(path))
        if bucket is None:
            return False
        paths = bucket.get(vertex)
        return paths is not None and path in paths

    def bucket(self, length: int) -> Bucket:
        """All vertex buckets at ``length`` (live mapping; may be empty)."""
        return self._by_len.get(length, {})

    def level_dict(self, length: int) -> Bucket:
        """The live bucket at ``length``, created if missing.

        Bulk-insert fast path for the construction level search: callers
        write path sets directly and report the added count through
        :meth:`note_added`.
        """
        return self._by_len.setdefault(length, {})

    def note_added(self, count: int, length: int) -> None:
        """Adjust the counters after ``count`` new paths were written
        directly into ``level_dict(length)``.

        Every path at hop length ``length`` has ``length + 1`` vertices,
        so the vertex-slot total moves by ``count * (length + 1)``.  Also
        invalidates the packed-level caches: the construction level
        search writes buckets directly and *always* reports through this
        hook, so the bump keeps the caches exact without a per-path cost.
        """
        self._count += count
        self._slots += count * (length + 1)
        self._version += 1

    @property
    def vertex_slots(self) -> int:
        """Total vertex entries over every stored path (O(1))."""
        return self._slots

    @property
    def version(self) -> int:
        """Mutation stamp; changes whenever the stored paths change."""
        return self._version

    def packed(
        self,
        length: int,
        intern: Callable[[Vertex], int],
        with_tails: bool = False,
    ) -> Optional[PackedLevel]:
        """The level at ``length`` as a :class:`PackedLevel` (cached).

        ``intern`` maps a vertex to its bit index in the owning index's
        private bit space (both sides of one index must share it so the
        masks are comparable).  Returns ``None`` for an empty level.
        The result is rebuilt only after a mutation; bucket and
        within-bucket path order follow the live containers, so the
        packed probe enumerates in exactly the order the dict/set walk
        would.
        """
        bucket = self._by_len.get(length)
        if not bucket:
            return None
        cached = self._packed.get(length)
        if cached is not None and cached[0] == self._version:
            return cached[1]
        slots: Dict[Vertex, Tuple[int, int, int]] = {}
        flat_paths: List[Path] = []
        masks: List[int] = []
        tails: Optional[List[Path]] = [] if with_tails else None
        for vertex, paths in bucket.items():
            start = len(flat_paths)
            for path in paths:
                mask = 0
                for v in path:
                    mask |= 1 << intern(v)
                flat_paths.append(path)
                masks.append(mask)
                if tails is not None:
                    tails.append(path[1:])
            slots[vertex] = (start, len(flat_paths), 1 << intern(vertex))
        packed = PackedLevel(
            slots=slots,
            flat_paths=flat_paths,
            masks=masks,
            tails=tails,
            bits_used=max(m.bit_length() for m in masks),
        )
        self._packed[length] = (self._version, packed)
        return packed

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
        return self._count

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
        return f"PathBuckets(paths={self._count})"


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

    def __init__(self, s: Vertex, t: Vertex, k: int, plan: JoinPlan) -> None:
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
        # The query-private bit-id space of the join masks: bits are
        # assigned to vertices in first-packed order, shared by both
        # sides so left/right masks are comparable.
        self._bits = VertexInterner()
        # Join-program cache: (left obj, right obj, left ver, right ver,
        # program).  Identity + version checks catch both in-place
        # mutation and wholesale bucket replacement (build_index assigns
        # fresh PathBuckets).
        self._program: Optional[
            Tuple[Any, Any, int, int, List[JoinStep]]
        ] = None

    # ------------------------------------------------------------------
    # Left side (paths s -> v, keyed by their last vertex)
    # ------------------------------------------------------------------
    def add_left(self, path: Path) -> bool:
        """Store a left partial path; True if new."""
        return self.left.add(path[-1], path)

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
        return self.right.add(path[0], path)

    def remove_right(self, path: Path) -> bool:
        """Drop a right partial path; True if present."""
        return self.right.remove(path[0], path)

    def has_right(self, path: Path) -> bool:
        """Whether a right partial path is stored."""
        return self.right.contains(path[0], path)

    # ------------------------------------------------------------------
    # Packed join views
    # ------------------------------------------------------------------
    def packed_left(self, length: int) -> Optional[PackedLevel]:
        """``LP_length`` flattened for the join probe (None if empty)."""
        return self.left.packed(length, self._bits.intern)

    def packed_right(self, length: int) -> Optional[PackedLevel]:
        """``RP_length`` flattened, with pre-sliced tails (None if empty)."""
        return self.right.packed(length, self._bits.intern, with_tails=True)

    def packed_program(self) -> List[JoinStep]:
        """The join plan resolved against the packed levels.

        One :class:`JoinStep` per plan pair whose two levels are both
        non-empty (a step may have no cut vertex): the two packed levels
        plus, per cut vertex present on both sides, its
        ``(left start, left end, vc bit, right start, right end)`` slot
        ranges — middle-vertex intersection order preserved (driven from
        the smaller side, exactly as the legacy nested join iterates).
        Cached until either side's buckets change or are replaced.
        """
        cached = self._program
        if (
            cached is not None
            and cached[0] is self.left
            and cached[1] is self.right
            and cached[2] == self.left.version
            and cached[3] == self.right.version
        ):
            return cached[4]
        program: List[JoinStep] = []
        for i, j in self.plan:
            lpk = self.packed_left(i)
            rpk = self.packed_right(j)
            if lpk is None or rpk is None:
                continue
            left_slots = lpk.slots
            right_slots = rpk.slots
            if len(left_slots) <= len(right_slots):
                middles = (v for v in left_slots if v in right_slots)
            else:
                middles = (v for v in right_slots if v in left_slots)
            assert rpk.tails is not None
            buckets: List[BucketStep] = []
            probe_total = 0
            for vc in middles:
                ls, le, vcbit = left_slots[vc]
                rs, re, _ = right_slots[vc]
                probe_total += (le - ls) * (re - rs)
                buckets.append(
                    (
                        ls,
                        le,
                        vcbit,
                        rs,
                        re,
                        lpk.masks[ls:le],
                        lpk.flat_paths[ls:le],
                        list(zip(rpk.masks[rs:re], rpk.tails[rs:re])),
                    )
                )
            flat: Optional[List[ProbeStep]] = None
            if probe_total < PACK_FLAT_STEP_MAX:
                flat = [
                    (lmask, lp, rmask, rtail, vcbit)
                    for _ls, _le, vcbit, _rs, _re, lms, lps, rpairs in buckets
                    for lmask, lp in zip(lms, lps)
                    for rmask, rtail in rpairs
                ]
            program.append(JoinStep(
                i, j, len(buckets), probe_total, lpk, rpk, flat,
                [] if flat is not None else buckets,
            ))
        self._program = (
            self.left,
            self.right,
            self.left.version,
            self.right.version,
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
    "Bucket",
    "JoinStep",
    "PackedLevel",
    "PathBuckets",
    "IndexMemoryStats",
    "PartialPathIndex",
]
