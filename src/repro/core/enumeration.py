"""Join-based enumeration on the index (Section III-B).

- :func:`enumerate_full` — Algorithm 1: for every plan pair ``(i, j)``
  join ``LP_i(v_c)`` with ``RP_j(v_c)`` over the middle vertices, with a
  vertex-disjointness check; each k-st path appears exactly once
  (Theorems 1–2).  :func:`enumerate_full_list` and :func:`count_full`
  run the same join, materialized and counted.
- :func:`enumerate_delta` — the update enumeration: joins in which at
  least one side belongs to the changed part of the index, i.e.
  ``ΔLP ⋈ RP  ∪  (LP − ΔLP) ⋈ ΔRP`` (Theorem 3).  Used with the
  *post-addition* index for insertions and the *pre-removal* index for
  deletions, so "``RP``" always denotes the variant that contains the
  changed paths.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional

from repro import obs
from repro.obs.explain import ExplainRecord
from repro.obs.explain import active as explain_active
from repro.core.index import (
    JoinStep,
    PackedLevel,
    PartialPathIndex,
    PathBuckets,
)
from repro.core.paths import Path
from repro.graph.npcompat import get_numpy

#: Probe-count floor under which the blocked numpy probe is not worth
#: its per-bucket call overhead (the scalar int-AND loop wins).
_NP_PROBE_MIN = 4096

#: Byte cap on one numpy AND block (left rows are chunked to stay under).
_NP_BLOCK_BYTES = 1 << 24


def enumerate_full(index: PartialPathIndex) -> Iterator[Path]:
    """Yield every k-st path currently represented by the index.

    Runs the packed join (:meth:`PartialPathIndex.packed_program`) and
    yields one plan pair's output at a time: one int AND against the
    cut-vertex bit per probe, and the packed arrays mirror the live
    dict/set walk order exactly, so the emitted sequence is that order.
    """
    if index.direct_edge:
        yield (index.s, index.t)
    out: List[Path] = []
    for _emitted in _join(index, out):
        yield from out
        out.clear()


def enumerate_full_list(index: PartialPathIndex) -> List[Path]:
    """:func:`enumerate_full` materialized — the throughput fast path.

    Same paths, same order, without a generator frame per path; on
    buckets whose probe count reaches :data:`_NP_PROBE_MIN` and with
    numpy available, the mask test runs as a blocked ``uint64`` matrix
    AND over the packed level's word matrix instead of a scalar loop.
    """
    out: List[Path] = [(index.s, index.t)] if index.direct_edge else []
    for _emitted in _join(index, out):
        pass
    return out


def count_full(index: PartialPathIndex) -> int:
    """Number of k-st paths: the join's mask hits, no path is built."""
    return int(index.direct_edge) + sum(_join(index, None))


def _join(index: PartialPathIndex, out: Optional[List[Path]]) -> Iterator[int]:
    """The one full-join body, one program step at a time.

    Appends each step's paths to ``out`` (with ``out=None`` it only
    counts the mask hits) and yields the step's emit count: the growth
    of ``out`` over the step.  With obs on or an EXPLAIN recorder
    installed, the counts are reported once per plan pair at the end.
    """
    recorder = explain_active()
    observed = obs.enabled()
    counting = out is None
    sink: List[Path] = [] if out is None else out  # stays empty if counting
    append = sink.append
    program = index.packed_program()
    emits: List[int] = []
    # The numpy lookup re-reads the fallback env var, so defer it until
    # a bucket is actually big enough to want the block probe.
    np: Any = None
    np_checked = False
    for _i, _j, _cut, _probes, lpk, rpk, flat, buckets in program:
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
        for ls, le, vcbit, rs, re, lmasks, lpaths, rpairs in buckets:
            if (le - ls) * (re - rs) >= _NP_PROBE_MIN:
                if not np_checked:
                    np = get_numpy()
                    np_checked = True
                if np is not None:
                    hits += _np_block_probe(
                        np, None if counting else sink,
                        lpk, rpk, ls, le, rs, re, vcbit,
                    )
                    continue
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
    if observed or recorder is not None:
        _record(index, program, emits, recorder)


def _record(
    index: PartialPathIndex,
    program: List[JoinStep],
    emits: List[int],
    recorder: Optional[ExplainRecord],
) -> None:
    """Report one join's per-pair counts to obs and the EXPLAIN recorder.

    Obs covers the program's steps (pairs whose two levels are both
    non-empty); a recorder gets every plan pair, with zeros where a pair
    has no step, and then obs reports that same set.
    """
    pairs = {
        (step.i, step.j): (step.cut_vertices, step.probe_total, emitted)
        for step, emitted in zip(program, emits)
    }
    if recorder is not None:
        pairs = {pair: pairs.get(pair, (0, 0, 0)) for pair in index.plan}
    for (i, j), (cut_vertices, probes, emitted) in pairs.items():
        if recorder is not None:
            recorder.record_join_pair(i, j, cut_vertices, probes, emitted)
        obs.incr(f"enumeration.join.{i}x{j}.paths", emitted)
        obs.observe("enumeration.join_pair_output", emitted)
    obs.incr("enumeration.paths", int(index.direct_edge) + sum(emits))


def _np_block_probe(
    np: Any,
    out: Optional[List[Path]],
    lpk: PackedLevel,
    rpk: PackedLevel,
    ls: int,
    le: int,
    rs: int,
    re: int,
    vcbit: int,
) -> int:
    """Blocked vectorized mask probe for one large cut-vertex bucket.

    Emits exactly what the scalar loop emits, in the same (row-major)
    order: hit indexes come from ``nonzero`` on the per-block equality
    matrix, which scans rows (left paths) then columns (right paths).
    With ``out=None`` it only counts the hit matrix.  Returns the hit
    count.
    """
    width = (max(lpk.bits_used, rpk.bits_used) + 63) // 64
    lwords = lpk.words(np, width)
    rwords = rpk.words(np, width)[rs:re]
    target = np.frombuffer(vcbit.to_bytes(width * 8, "little"), dtype="<u8")
    left_paths = lpk.flat_paths
    right_tails = rpk.tails
    assert right_tails is not None
    hit_count = 0
    rows_per_block = max(1, _NP_BLOCK_BYTES // (8 * width * max(1, re - rs)))
    for block_start in range(ls, le, rows_per_block):
        block_end = min(le, block_start + rows_per_block)
        block = lwords[block_start:block_end]
        hits = ((block[:, None, :] & rwords[None, :, :]) == target).all(axis=2)
        if out is None:
            hit_count += int(np.count_nonzero(hits))
            continue
        li_idx, ri_idx = hits.nonzero()
        hit_count += len(li_idx)
        append = out.append
        for a, b in zip(li_idx.tolist(), ri_idx.tolist()):
            append(left_paths[block_start + a] + right_tails[rs + b])
    return hit_count


def enumerate_delta(
    index: PartialPathIndex,
    left_delta: PathBuckets,
    right_delta: PathBuckets,
    direct_edge_changed: bool = False,
) -> Iterator[Path]:
    """Yield the full paths with at least one changed partial path.

    The two join terms are disjoint by construction (the second term
    explicitly skips left paths that are in the delta), so every changed
    full path is produced exactly once.
    """
    if direct_edge_changed:
        yield (index.s, index.t)
    left, right = index.left, index.right
    for i, j in index.plan:
        # Term 1: changed left x full right.
        delta_left_bucket = left_delta.bucket(i)
        if delta_left_bucket:
            right_bucket = right.bucket(j)
            for vc, delta_paths in delta_left_bucket.items():
                right_paths = right_bucket.get(vc)
                if not right_paths:
                    continue
                for lp in delta_paths:
                    lp_set = set(lp)
                    for rp in right_paths:
                        if lp_set.isdisjoint(rp[1:]):
                            yield lp + rp[1:]
        # Term 2: unchanged left x changed right.
        delta_right_bucket = right_delta.bucket(j)
        if delta_right_bucket:
            left_bucket = left.bucket(i)
            for vc, delta_paths in delta_right_bucket.items():
                left_paths = left_bucket.get(vc)
                if not left_paths:
                    continue
                for lp in left_paths:
                    if left_delta.contains(vc, lp):
                        continue
                    lp_set = set(lp)
                    for rp in delta_paths:
                        if lp_set.isdisjoint(rp[1:]):
                            yield lp + rp[1:]


__all__ = [
    "enumerate_full",
    "enumerate_full_list",
    "enumerate_delta",
    "count_full",
]
