"""Cardinality estimation for k-st path queries.

PathEnum's cost-based optimizer (reproduced in
:mod:`repro.baselines.pathenum`) relies on walk-count dynamic
programming; this module exposes the same machinery as a public
utility, plus an unbiased sampling estimator:

- :func:`walk_count_bound` — the number of k-hop *walks* from ``s`` to
  ``t`` (distance-pruned), a cheap upper bound on ``|P|`` that is exact
  on DAG-like neighbourhoods;
- :func:`estimate_path_count` — Knuth-style random-probing estimate of
  the simple-path count: repeatedly sample a root-to-leaf branch of the
  DFS tree, multiplying branch factors.  Unbiased for the number of
  DFS tree leaves that are complete paths;
- :func:`exact_path_count` — enumeration-based ground truth (for small
  instances and tests).

These support capacity planning: deciding whether a monitored pair is
cheap enough to watch at a given ``k`` *before* building its index.

All three estimators share :class:`~repro.core.enumerator.CpeEnumerator`'s
query contract: ``s == t`` and ``k < 0`` raise :class:`ValueError` (they
are not valid queries), while ``k == 0`` and unreachable targets are
legitimate queries whose answer is an empty path set, so the estimators
return 0 for them.
"""

from __future__ import annotations

import random
import zlib
from typing import Dict, List, Optional

from repro.core.distance import DistanceMap
from repro.graph.digraph import DynamicDiGraph, Vertex


def derive_seed(s: Vertex, t: Vertex, k: int) -> int:
    """A deterministic RNG seed for the query ``(s, t, k)``.

    Stable across processes and runs (unlike ``hash()``, which varies
    with ``PYTHONHASHSEED``), so estimator-backed decisions are
    reproducible without threading an explicit seed through every call
    site.
    """
    return zlib.crc32(repr((s, t, k)).encode("utf-8"))


def _check_query(s: Vertex, t: Vertex, k: int) -> None:
    """Enforce the enumerator's query contract on estimator inputs."""
    if s == t:
        raise ValueError("s and t must differ")
    if k < 0:
        raise ValueError("k must be non-negative")


def walk_count_bound(
    graph: DynamicDiGraph, s: Vertex, t: Vertex, k: int
) -> int:
    """Number of s-t walks with at most ``k`` hops (distance-pruned).

    Every simple path is a walk, so this upper-bounds ``|P|``; walks may
    repeat vertices, so the bound loosens on cyclic neighbourhoods.
    """
    _check_query(s, t, k)
    if k == 0:
        return 0
    dist_t = DistanceMap(graph.reverse_view(), t, horizon=k)
    if dist_t.get(s) > k:
        return 0
    total = 0
    level: Dict[Vertex, int] = {s: 1}
    for i in range(1, k + 1):
        nxt: Dict[Vertex, int] = {}
        for v, count in level.items():
            for y in graph.out_neighbors(v):
                if i + dist_t.get(y) <= k:
                    nxt[y] = nxt.get(y, 0) + count
        total += nxt.pop(t, 0)
        level = nxt
        if not level:
            break
    return total


def exact_path_count(
    graph: DynamicDiGraph, s: Vertex, t: Vertex, k: int
) -> int:
    """|P| by (distance-pruned) exhaustive DFS — exponential, exact."""
    _check_query(s, t, k)
    if k == 0:
        return 0
    dist_t = DistanceMap(graph.reverse_view(), t, horizon=k)
    count = 0
    stack: List[tuple] = [(s,)]
    while stack:
        path = stack.pop()
        tail = path[-1]
        if tail == t:
            count += 1
            continue
        budget = k - (len(path) - 1)
        for y in graph.out_neighbors(tail):
            if y not in path and dist_t.get(y) < budget:
                stack.append(path + (y,))
    return count


def estimate_path_count(
    graph: DynamicDiGraph,
    s: Vertex,
    t: Vertex,
    k: int,
    samples: int = 200,
    seed: Optional[int] = None,
) -> float:
    """Knuth's random-probing estimate of ``|P|``.

    Each probe walks one random branch of the pruned DFS tree,
    accumulating the product of branching factors; a probe that reaches
    ``t`` contributes its product, others contribute 0.  The mean over
    probes is an unbiased estimator of the number of pruned-DFS leaves
    at ``t`` — exactly ``|P|``.

    Variance can be large on skewed trees; this is the estimator trade
    PathEnum's optimizer makes too.

    With ``seed=None`` the RNG is seeded from :func:`derive_seed`, so
    the estimate for a given ``(s, t, k)`` is deterministic — the same
    value on every call, every process, every run.  Pass an explicit
    seed to draw an independent sample.
    """
    _check_query(s, t, k)
    if samples < 1:
        raise ValueError("samples must be positive")
    if k == 0:
        return 0.0
    rng = random.Random(derive_seed(s, t, k) if seed is None else seed)
    dist_t = DistanceMap(graph.reverse_view(), t, horizon=k)
    if dist_t.get(s) > k:
        return 0.0
    total = 0.0
    for _ in range(samples):
        path = [s]
        weight = 1.0
        while True:
            tail = path[-1]
            if tail == t:
                total += weight
                break
            budget = k - (len(path) - 1)
            choices = [
                y
                for y in graph.out_neighbors(tail)
                if y not in path and dist_t.get(y) < budget
            ]
            if not choices:
                break
            weight *= len(choices)
            path.append(rng.choice(choices))
    return total / samples


__all__ = [
    "derive_seed",
    "walk_count_bound",
    "exact_path_count",
    "estimate_path_count",
]
