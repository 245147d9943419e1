"""Deterministic workload generation, done before any server starts.

Each workload is a fixed op cycle built from ``--seed`` over the same
graph the server loads (``WG`` at scale 1.0).  Updates are round trips:
every update's inverse comes later in the same cycle, and all toggled
edges are distinct, so every update changes the graph and the graph is
back at its start state after each cycle.  A longer run therefore adds
cycles, not a different mix of work.

What a cycle contains (pairs, edge toggles, the multiset of zipf draws)
comes from one fixed population draw; ``--seed`` orders it: the query
order, which round trips overlap, and where updates fall among queries.
Path counts, neighbourhood sizes and update costs of hot pairs are
heavy-tailed, and drawing the contents per seed moved mean update cost
and tail latency by 15-25% between seeds, which would hide the
differences the benchmark exists to show.

Expected answers for a fixed sample of each cycle's replies are computed
here with the brute-force oracle on a mirror graph that replays the
cycle, so checking a reply later is a set comparison.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.baselines.bruteforce import path_set
from repro.core.distance import DistanceMap, induced_vertices
from repro.core.enumerator import CpeEnumerator
from repro.graph import datasets
from repro.graph.digraph import DynamicDiGraph, EdgeUpdate
from repro.service.cache import estimated_entry_bytes
from repro.workloads.queries import hot_queries

DATASET = "WG"
SCALE = 1.0
K = 7
#: The server's default ``--cache-budget`` (4 MiB).
CACHE_BUDGET = 4 << 20
#: Seed of the candidate populations; ``--seed`` picks from them.
POPULATION_SEED = 20230401

#: monitor: watched top-10% pairs whose k-hop neighbourhood (what an
#: update's distance repair walks) has a size in this band.
MONITOR_PAIRS = 64
MONITOR_NEIGHBOURHOOD = (20, 600)
#: Toggles per watched pair and cycle, half insertions, half deletions.
MONITOR_TOGGLES_PER_PAIR = 2
MONITOR_CHECK_TOGGLES = 3
#: Query pairs: top-1% pairs with a path count in a band, so every query
#: of a workload costs about the same.  query_hot's pairs are the larger
#: ones: a hit there is the full join plus encoding, and the engine's
#: fixed per-request work should stay a small share of it.
HOT_PATHS = (400, 1000)
CHURN_PATHS = (200, 600)
#: query_hot: the pool must fit in this share of the cache budget.
HOT_PAIRS = 40
HOT_FILL = 0.85
HOT_PASSES = 2
#: query_churn: banded pairs until their indexes total this many cache
#: budgets; zipf-skewed draws, 10% update round trips.
CHURN_BUDGETS = 4
CHURN_QUERIES = 270
CHURN_TOGGLES = 15
CHURN_ZIPF_A = 1.2
QUERY_CHECKS = 8

Pair = Tuple[int, int]
Op = Tuple[Any, ...]  # ("query", s, t, k) | ("update", u, v, insert)
Paths = List[Tuple[int, ...]]


@dataclass
class Plan:
    """Everything a run replays and checks."""

    workload: str
    seed: int
    cycle: List[Op]
    #: monitor only: pairs watched during set-up.
    watches: List[Pair] = field(default_factory=list)
    #: Expected sorted initial paths of some watched pairs.
    watch_checks: Dict[Pair, Paths] = field(default_factory=dict)
    #: Cycle position -> expected sorted paths (query) or
    #: {pair: expected sorted delta} (update on a monitor).
    checks: Dict[int, Any] = field(default_factory=dict)
    provenance: Dict[str, Any] = field(default_factory=dict)


def load_graph() -> DynamicDiGraph:
    return datasets.load(DATASET, SCALE)


def _hot_pairs(graph: DynamicDiGraph, top: float) -> Iterator[Pair]:
    """Distinct hot pairs, connected within ``K`` hops, in the fixed
    population order."""
    rng = random.Random(POPULATION_SEED)
    seen: Set[Pair] = set()
    while True:
        for query in hot_queries(graph, 64, K, top, seed=rng.randrange(2**31)):
            pair = (query.s, query.t)
            if pair not in seen:
                seen.add(pair)
                yield pair


def _neighbourhood(graph: DynamicDiGraph, pair: Pair):
    dist_s = DistanceMap(graph, pair[0], horizon=K)
    dist_t = DistanceMap(graph.reverse_view(), pair[1], horizon=K)
    return dist_s, dist_t, sorted(induced_vertices(dist_s, dist_t, K))


class _Toggles:
    """Edge toggles that can change a pair's result on the start graph."""

    def __init__(self, graph: DynamicDiGraph, rng: random.Random) -> None:
        self.graph = graph
        self.rng = rng
        self._maps: Dict[Pair, Any] = {}
        self.used: Set[Pair] = set()

    def pick(self, pair: Pair, insert: bool) -> Optional[EdgeUpdate]:
        """A fresh insertion of a missing edge or deletion of a present
        one, relevant to ``pair``; None when none is found."""
        if pair not in self._maps:
            self._maps[pair] = _neighbourhood(self.graph, pair)
        dist_s, dist_t, pool = self._maps[pair]
        if len(pool) < 2:
            return None
        for _ in range(200):
            if insert:
                u, v = self.rng.sample(pool, 2)
                ok = not self.graph.has_edge(u, v)
            else:
                u = self.rng.choice(pool)
                succ = sorted(self.graph.out_neighbors(u))
                if not succ:
                    continue
                v = self.rng.choice(succ)
                ok = u != v
            if (
                ok
                and (u, v) not in self.used
                and dist_s.get(u) + 1 + dist_t.get(v) <= K
            ):
                self.used.add((u, v))
                return EdgeUpdate(u, v, insert)
        return None


def _round_trips(
    toggles: List[EdgeUpdate], rng: random.Random
) -> List[EdgeUpdate]:
    """Each toggle followed, later, by its inverse."""
    pending = list(toggles)
    open_: List[EdgeUpdate] = []
    sequence: List[EdgeUpdate] = []
    while pending or open_:
        if pending and (not open_ or rng.random() < 0.5):
            update = pending.pop(0)
            sequence.append(update)
            open_.append(update)
        else:
            update = open_.pop(rng.randrange(len(open_)))
            sequence.append(update.inverted())
    return sequence


def _query_population(
    graph: DynamicDiGraph, band: Tuple[int, int],
    stop: Callable[[int, int], bool],
) -> List[Tuple[Pair, int, int]]:
    """``(pair, paths, entry_bytes)`` of top-1% pairs whose path count
    lies in ``band``, in population order, until ``stop(count, bytes)``."""
    population: List[Tuple[Pair, int, int]] = []
    total = 0
    lo, hi = band
    for pair in _hot_pairs(graph, 0.01):
        if stop(len(population), total):
            break
        entry = CpeEnumerator(graph, pair[0], pair[1], K)
        paths = entry.count_paths()
        if lo <= paths <= hi:
            size = estimated_entry_bytes(entry)
            population.append((pair, paths, size))
            total += size
    return population


def _sorted_paths(paths) -> Paths:
    return sorted(tuple(p) for p in paths)


def _query_checks(
    graph: DynamicDiGraph, cycle: List[Op], rng: random.Random
) -> Dict[int, Paths]:
    """Brute-force answers for a sample of the cycle's queries, on a
    mirror graph replaying the cycle's updates up to each position."""
    positions = [i for i, op in enumerate(cycle) if op[0] == "query"]
    sample = sorted(rng.sample(positions, min(QUERY_CHECKS, len(positions))))
    mirror = graph.copy()
    checks: Dict[int, Paths] = {}
    cursor = 0
    for position in sample:
        for op in cycle[cursor:position]:
            if op[0] == "update":
                mirror.apply_update(EdgeUpdate(op[1], op[2], op[3]))
        cursor = position
        _, s, t, k = cycle[position]
        checks[position] = _sorted_paths(path_set(mirror, s, t, k))
    return checks


def _pool_provenance(sizes: List[int]) -> Dict[str, Any]:
    return {
        "pool_pairs": len(sizes),
        "pool_index_bytes": sum(sizes),
        "pool_budget_share": round(sum(sizes) / CACHE_BUDGET, 3),
    }


def monitor(graph: DynamicDiGraph, seed: int) -> Plan:
    rng = random.Random(seed)
    fixed = random.Random(POPULATION_SEED)
    lo, hi = MONITOR_NEIGHBOURHOOD
    pairs: List[Pair] = []
    for pair in _hot_pairs(graph, 0.10):
        if len(pairs) == MONITOR_PAIRS:
            break
        if lo <= len(_neighbourhood(graph, pair)[2]) <= hi:
            pairs.append(pair)
    toggles = _Toggles(graph, fixed)
    picked: List[EdgeUpdate] = []
    owners: List[Pair] = []
    for pair in pairs:
        for insert in (True, False) * (MONITOR_TOGGLES_PER_PAIR // 2):
            update = toggles.pick(pair, insert)
            if update is not None:
                picked.append(update)
                owners.append(pair)
    shuffled = list(picked)
    rng.shuffle(shuffled)
    sequence = _round_trips(shuffled, rng)
    cycle: List[Op] = [("update", u.u, u.v, u.insert) for u in sequence]

    # Deltas are checked for the owners of a few toggles, at both ends
    # of each of those toggles' round trips.
    chosen = rng.sample(range(len(picked)), MONITOR_CHECK_TOGGLES)
    check_pairs = sorted({owners[i] for i in chosen})
    check_edges = {picked[i].edge for i in chosen}
    checks: Dict[int, Any] = {}
    mirror = graph.copy()
    for position, update in enumerate(sequence):
        checked = update.edge in check_edges
        if checked:
            before = {p: path_set(mirror, p[0], p[1], K) for p in check_pairs}
        mirror.apply_update(update)
        if checked:
            expected = {}
            for p in check_pairs:
                after = path_set(mirror, p[0], p[1], K)
                delta = after - before[p] if update.insert else before[p] - after
                expected[p] = _sorted_paths(delta)
            checks[position] = expected
    watch_checks = {
        p: _sorted_paths(path_set(graph, p[0], p[1], K)) for p in check_pairs
    }
    return Plan(
        "monitor", seed, cycle, watches=pairs, watch_checks=watch_checks,
        checks=checks,
        provenance={"watched_pairs": len(pairs), "top": 0.10,
                    "updates_per_cycle": len(cycle),
                    "checked_pairs": len(check_pairs)},
    )


def query_hot(graph: DynamicDiGraph, seed: int) -> Plan:
    rng = random.Random(seed)
    pool = _query_population(graph, HOT_PATHS,
                             lambda count, total: count == HOT_PAIRS)
    # Keep the pool inside the budget so every timed query is a hit.
    pool.sort(key=lambda row: row[2])
    while sum(row[2] for row in pool) > HOT_FILL * CACHE_BUDGET:
        pool.pop()
    pairs = [row[0] for row in pool]
    cycle: List[Op] = []
    for _ in range(HOT_PASSES):
        rng.shuffle(pairs)
        cycle.extend(("query", s, t, K) for s, t in pairs)
    provenance = {"top": 0.01, "paths_band": list(HOT_PATHS),
                  "queries_per_cycle": len(cycle)}
    provenance.update(_pool_provenance([row[2] for row in pool]))
    return Plan("query_hot", seed, cycle,
                checks=_query_checks(graph, cycle, rng),
                provenance=provenance)


def query_churn(graph: DynamicDiGraph, seed: int) -> Plan:
    rng = random.Random(seed)
    fixed = random.Random(POPULATION_SEED)
    population = _query_population(
        graph, CHURN_PATHS,
        lambda count, total: total >= CHURN_BUDGETS * CACHE_BUDGET)
    pool = [row[0] for row in population]
    weights = [(i + 1) ** -CHURN_ZIPF_A for i in range(len(pool))]
    queries = [
        ("query", s, t, K)
        for s, t in fixed.choices(pool, weights, k=CHURN_QUERIES)
    ]
    toggles = _Toggles(graph, fixed)
    picked: List[EdgeUpdate] = []
    while len(picked) < CHURN_TOGGLES:
        update = toggles.pick(fixed.choices(pool, weights)[0],
                              fixed.random() < 0.5)
        if update is not None:
            picked.append(update)
    # The seed orders the draws and the round trips and places the
    # updates among the queries; LRU outcomes follow from that order.
    rng.shuffle(queries)
    rng.shuffle(picked)
    updates = [
        ("update", u.u, u.v, u.insert) for u in _round_trips(picked, rng)
    ]
    slots = set(rng.sample(range(len(queries) + len(updates)), len(updates)))
    cycle: List[Op] = []
    query_iter, update_iter = iter(queries), iter(updates)
    for position in range(len(queries) + len(updates)):
        cycle.append(next(update_iter if position in slots else query_iter))
    provenance = {"top": 0.01, "paths_band": list(CHURN_PATHS),
                  "zipf_a": CHURN_ZIPF_A,
                  "queries_per_cycle": len(queries),
                  "updates_per_cycle": len(updates),
                  "distinct_pairs_per_cycle": len({op[1:3] for op in queries})}
    provenance.update(_pool_provenance([row[2] for row in population]))
    return Plan("query_churn", seed, cycle,
                checks=_query_checks(graph, cycle, rng),
                provenance=provenance)


WORKLOADS = {
    "monitor": monitor,
    "query_hot": query_hot,
    "query_churn": query_churn,
}


def build(workload: str, seed: int) -> Plan:
    plan = WORKLOADS[workload](load_graph(), seed)
    plan.provenance.update(
        {"dataset": DATASET, "scale": SCALE, "k": K,
         "cache_budget_bytes": CACHE_BUDGET}
    )
    return plan
