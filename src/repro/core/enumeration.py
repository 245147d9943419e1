"""Join-based enumeration on the index (Section III-B).

- :func:`enumerate_full` — Algorithm 1: for every plan pair ``(i, j)``
  join ``LP_i(v_c)`` with ``RP_j(v_c)`` over the middle vertices, with a
  vertex-disjointness check; each k-st path appears exactly once
  (Theorems 1–2).  :func:`enumerate_full_list`, :func:`count_by_pair`
  and :func:`count_full` run the same join, materialized and counted.
- :func:`enumerate_delta` — the update enumeration: joins in which at
  least one side belongs to the changed part of the index, i.e.
  ``ΔLP ⋈ RP  ∪  (LP − ΔLP) ⋈ ΔRP`` (Theorem 3).  Used with the
  *post-addition* index for insertions and the *pre-removal* index for
  deletions, so "``RP``" always denotes the variant that contains the
  changed paths.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro import obs
from repro.core.index import JoinStep, PartialPathIndex, PathBuckets
from repro.core.paths import Path


def enumerate_full(index: PartialPathIndex) -> Iterator[Path]:
    """Yield every k-st path currently represented by the index.

    Runs the join program (:meth:`PartialPathIndex.packed_program`) and
    yields one plan pair's output at a time: one int AND of the stored
    masks against the cut-vertex bit per probe, and the program mirrors
    the live dict/set walk order exactly, so the emitted sequence is
    that order.
    """
    if index.direct_edge:
        yield (index.s, index.t)
    out: List[Path] = []
    for _emitted in _join(index, out):
        yield from out
        out.clear()


def enumerate_full_list(index: PartialPathIndex) -> List[Path]:
    """:func:`enumerate_full` materialized — the throughput fast path.

    Same paths, same order, without a generator frame per path.
    """
    out: List[Path] = [(index.s, index.t)] if index.direct_edge else []
    for _emitted in _join(index, out):
        pass
    return out


def count_full(index: PartialPathIndex) -> int:
    """Number of k-st paths: the join's mask hits, no path is built."""
    return int(index.direct_edge) + sum(count_by_pair(index).values())


def count_by_pair(index: PartialPathIndex) -> Dict[Tuple[int, int], int]:
    """The join's mask hits per plan pair ``(i, j)``, no path is built.

    One entry per program step, in plan order; a plan pair with an
    empty level has no step and no entry.  The direct edge is not a
    join output and is not counted.
    """
    hits = list(_join(index, None))
    return {
        (step.i, step.j): emitted
        for step, emitted in zip(index.packed_program(), hits)
    }


def _join(index: PartialPathIndex, out: Optional[List[Path]]) -> Iterator[int]:
    """The one full-join body, one program step at a time.

    Appends each step's paths to ``out`` (with ``out=None`` it only
    counts the mask hits) and yields the step's emit count: the growth
    of ``out`` over the step.  With obs on, the counts are reported
    once per program step at the end.
    """
    observed = obs.enabled()
    counting = out is None
    sink: List[Path] = [] if out is None else out  # stays empty if counting
    append = sink.append
    program = index.packed_program()
    emits: List[int] = []
    for _i, _j, _cut, _probes, flat, buckets in program:
        before = len(sink)
        hits = 0
        if flat is not None:
            if counting:
                hits = sum([
                    1
                    for lmask, _lp, rmask, _rtail, vcbit in flat
                    if (lmask & rmask) == vcbit
                ])
            else:
                sink += [
                    lp + rtail
                    for lmask, lp, rmask, rtail, vcbit in flat
                    if (lmask & rmask) == vcbit
                ]
        for vcbit, lmasks, lpaths, rpairs in buckets:
            # Nested loops, not comprehensions: most buckets are small,
            # and a comprehension call per bucket costs more than it saves.
            if counting:
                for lmask in lmasks:
                    for rmask, _rtail in rpairs:
                        if (lmask & rmask) == vcbit:
                            hits += 1
            else:
                for lmask, lp in zip(lmasks, lpaths):
                    for rmask, rtail in rpairs:
                        if (lmask & rmask) == vcbit:
                            append(lp + rtail)
        emitted = hits if counting else len(sink) - before
        emits.append(emitted)
        yield emitted
    if observed:
        _record(index, program, emits)


def _record(
    index: PartialPathIndex, program: List[JoinStep], emits: List[int]
) -> None:
    """Report one join's per-step emit counts to obs."""
    for step, emitted in zip(program, emits):
        obs.incr(f"enumeration.join.{step.i}x{step.j}.paths", emitted)
        obs.observe("enumeration.join_pair_output", emitted)
    obs.incr("enumeration.paths", int(index.direct_edge) + sum(emits))


def enumerate_delta(
    index: PartialPathIndex,
    left_delta: PathBuckets,
    right_delta: PathBuckets,
    direct_edge_changed: bool = False,
) -> Iterator[Path]:
    """Yield the full paths with at least one changed partial path.

    The two join terms are disjoint by construction (the second term
    explicitly skips left paths that are in the delta), so every changed
    full path is produced exactly once.  The delta buckets carry the
    masks the index stores, so disjointness is the full join's test:
    ``lmask & rmask == vcbit``.
    """
    if direct_edge_changed:
        yield (index.s, index.t)
    left, right = index.left, index.right
    bits = index.bits
    left_masks, right_masks = left.masks(), right.masks()
    delta_left_masks = left_delta.masks()
    delta_right_masks = right_delta.masks()
    for i, j in index.plan:
        # Term 1: changed left x full right.
        delta_left_bucket = left_delta.bucket(i)
        if delta_left_bucket:
            right_bucket = right.bucket(j)
            for vc, delta_paths in delta_left_bucket.items():
                right_paths = right_bucket.get(vc)
                if not right_paths:
                    continue
                vcbit = bits[vc]
                for lp in delta_paths:
                    lmask = delta_left_masks[lp]
                    for rp in right_paths:
                        if (lmask & right_masks[rp]) == vcbit:
                            yield lp + rp[1:]
        # Term 2: unchanged left x changed right.
        delta_right_bucket = right_delta.bucket(j)
        if delta_right_bucket:
            left_bucket = left.bucket(i)
            for vc, delta_paths in delta_right_bucket.items():
                left_paths = left_bucket.get(vc)
                if not left_paths:
                    continue
                vcbit = bits[vc]
                for lp in left_paths:
                    if left_delta.contains(vc, lp):
                        continue
                    lmask = left_masks[lp]
                    for rp in delta_paths:
                        if (lmask & delta_right_masks[rp]) == vcbit:
                            yield lp + rp[1:]


__all__ = [
    "enumerate_full",
    "enumerate_full_list",
    "enumerate_delta",
    "count_by_pair",
    "count_full",
]
