"""An LRU cache of warm per-query enumerators under a memory budget.

Ad-hoc ``query`` requests pay the full ``CPE_startup`` construction on
first contact; repeated queries for the same ``(s, t, k)`` — the common
shape of monitoring traffic — should reuse the warm index and pay only
the (output-linear) enumeration.  :class:`IndexCache` keeps recently
used enumerators alive, bounded by the *estimated* resident size of
their per-query state (:func:`estimated_entry_bytes` — the graph is
excluded, since every cached entry shares the one service graph), and
evicts least-recently-used entries once the budget is exceeded.

Admission follows TinyLFU (Einziger et al., ACM ToS 2017): the cache
counts every valid lookup per key, halving all counts once per
:data:`FREQUENCY_SAMPLE` lookups, and a miss that would have to evict
keeps its entry only if its key had been looked up more often than the
LRU entries it would displace together.  A refused entry still answers
its query, so a one-off key cannot push out the warm indexes that hot
keys keep reusing.

:func:`estimated_entry_bytes` reads the index's running path and
vertex-slot counters, so sizing an entry costs O(1) — after a miss and
after every repair — however many partial paths it stores.  Budgets are
expressed in the units of
:attr:`repro.core.index.IndexMemoryStats.approx_bytes`.

The cache does not keep entries consistent by itself: the owning engine
must replay every graph update into each cached enumerator (via
:meth:`CpeEnumerator.observe`) exactly as it does for watched pairs —
see :meth:`IndexCache.observe_all`.  Because every live entry's
``Dist_s`` map is therefore exact, a miss clones it from a live entry
that shares its source and ``k`` instead of running that BFS again.
An entry's ``Dist_t`` is pruned by its own ``Dist_s`` (a
:class:`~repro.core.distance.JointMap`), so a miss always builds it,
at a fraction of a full BFS.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterator, NamedTuple, Optional, Tuple

from repro import obs
from repro.obs import events
from repro.core.construction import build_index
from repro.core.distance import MAX_HORIZON, DistanceMap
from repro.core.enumerator import CpeEnumerator, UpdateResult
from repro.graph.digraph import DynamicDiGraph, EdgeUpdate, Vertex

CacheKey = Tuple[Vertex, Vertex, int]

#: Fixed per-entry overhead charged on top of the index-proportional
#: cost: the join plan and the cache's own per-key records.  The two
#: distance maps are *not* charged: they are one byte per graph vertex
#: each, about 2 x |V| bytes per entry (≈18 KB for WG at scale 1.0,
#: against ≈55-60 KB charged for a top-1% pair's index at k=7).
ENTRY_BASE_BYTES = 256

#: Lookups between two agings of the admission rule's frequency table.
#: Each aging halves every count and forgets keys that reach 0, so the
#: counts sum to at most ``2 * FREQUENCY_SAMPLE`` and the table holds at
#: most that many keys.
FREQUENCY_SAMPLE = 4096


def check_query(s: Vertex, t: Vertex, k: int) -> None:
    """Raise :class:`ValueError` unless ``(s, t, k)`` can be served:
    ``s != t`` and ``0 <= k <=`` :data:`~repro.core.distance.MAX_HORIZON`."""
    if s == t:
        raise ValueError("s and t must differ")
    if k < 0:
        raise ValueError("k must be non-negative")
    if k > MAX_HORIZON:
        raise ValueError(f"k must be at most {MAX_HORIZON}")


def estimated_entry_bytes(entry: CpeEnumerator) -> int:
    """Estimated resident size of one entry's partial path index.

    The index's own memory accounting
    (:meth:`~repro.core.index.PartialPathIndex.memory_stats`, which
    reads running counters in O(1)) plus a fixed
    :data:`ENTRY_BASE_BYTES` overhead.  Deterministic for a given index
    state, so sizing decisions (cache vs. bypass, eviction pressure)
    are reproducible.
    """
    return ENTRY_BASE_BYTES + entry.memory_stats().approx_bytes


class CacheLookup(NamedTuple):
    """One :meth:`IndexCache.get_or_build` result: the enumerator plus
    how this very call obtained it.

    ``outcome`` is authoritative — ``"hit"`` (served warm), ``"miss"``
    (built and cached) or ``"bypass"`` (built, not retained: too big
    for the budget, or refused admission).
    Callers must not re-derive it by probing cache state afterwards: a
    bypassed build leaves ``key in cache`` False, and an eviction can
    change what it reports between the decision and the probe.
    """

    enumerator: CpeEnumerator
    outcome: str


@dataclass
class CacheStats:
    """Counters describing cache effectiveness and occupancy."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    bypasses: int = 0
    entries: int = 0
    current_bytes: int = 0
    budget_bytes: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served warm (0.0 when never used)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        """JSON-friendly view (for the ``stats`` protocol op)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "bypasses": self.bypasses,
            "entries": self.entries,
            "current_bytes": self.current_bytes,
            "budget_bytes": self.budget_bytes,
            "hit_rate": round(self.hit_rate, 4),
        }


class IndexCache:
    """LRU cache of :class:`CpeEnumerator` keyed by ``(s, t, k)``, with
    frequency-gated admission.

    Parameters
    ----------
    graph:
        The shared service graph; every cached enumerator is built over
        (and observes updates to) this one instance.
    budget_bytes:
        Memory budget for the per-query state of all entries combined.
        An entry is *bypassed* — built and returned, but not retained —
        when its state alone exceeds the budget, or when making room
        for it would evict LRU entries whose lookup counts sum to at
        least its own count of earlier lookups.
    """

    def __init__(self, graph: DynamicDiGraph, budget_bytes: int = 4 << 20) -> None:
        if budget_bytes <= 0:
            raise ValueError("budget_bytes must be positive")
        self.graph = graph
        self.budget_bytes = budget_bytes
        self._entries: "OrderedDict[CacheKey, CpeEnumerator]" = OrderedDict()
        self._sizes: Dict[CacheKey, int] = {}
        self._current_bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._bypasses = 0
        self._frequency: Dict[CacheKey, int] = {}
        self._sampled = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._entries

    def keys(self) -> Iterator[CacheKey]:
        """Cached keys, least recently used first."""
        return iter(tuple(self._entries))

    def peek(self, key: CacheKey) -> Optional[CpeEnumerator]:
        """The cached enumerator without touching recency or counters."""
        return self._entries.get(key)

    # ------------------------------------------------------------------
    def get_or_build(self, s: Vertex, t: Vertex, k: int) -> CacheLookup:
        """The warm enumerator for ``(s, t, k)``, building it on a miss.

        A hit refreshes recency; a miss constructs the index
        (``CPE_startup``'s build phase, with ``Dist_s`` cloned from a
        live entry that shares ``s`` and ``k`` when there is one),
        estimates its size, and either caches it
        (evicting LRU entries past the budget) or bypasses the cache
        when the entry alone is larger than the whole budget, or when
        the LRU entries it would evict were looked up at least as often
        as ``(s, t, k)`` had been before this call (the module's
        admission rule).  The returned :class:`CacheLookup` carries the
        outcome this call took (``hit`` / ``miss`` / ``bypass``)
        explicitly, so callers never have to infer it from post-call
        cache state.  An invalid query (see :func:`check_query`) raises
        :class:`ValueError` before any counter, metric or event moves.
        """
        check_query(s, t, k)
        key = (s, t, k)
        entry = self._entries.get(key)
        if entry is not None:
            self._count(key)
            self._hits += 1
            self._entries.move_to_end(key)
            obs.incr("service.cache.hits")
            events.emit(events.CACHE_HIT, s=s, t=t, k=k)
            self._note_lookup()
            return CacheLookup(entry, "hit")
        self._misses += 1
        obs.incr("service.cache.misses")
        events.emit(events.CACHE_MISS, s=s, t=t, k=k)
        self._note_lookup()
        with obs.span("service.cache.build"):
            entry = self._build(s, t, k)
        size = estimated_entry_bytes(entry)
        kept = size <= self.budget_bytes and self._admits(key, size)
        self._count(key)
        if not kept:
            self._bypasses += 1
            obs.incr("service.cache.bypasses")
            return CacheLookup(entry, "bypass")
        self._entries[key] = entry
        self._sizes[key] = size
        self._current_bytes += size
        self._shrink_to_budget()
        return CacheLookup(entry, "miss")

    def _count(self, key: CacheKey) -> None:
        """Count one lookup of ``key``; once per
        :data:`FREQUENCY_SAMPLE` lookups, halve every count and forget
        the keys that reach 0."""
        self._frequency[key] = self._frequency.get(key, 0) + 1
        self._sampled += 1
        if self._sampled >= FREQUENCY_SAMPLE:
            self._sampled = 0
            self._frequency = {
                counted: count >> 1
                for counted, count in self._frequency.items()
                if count > 1
            }

    def _admits(self, key: CacheKey, size: int) -> bool:
        """Whether a built entry of ``size`` bytes may stay: always when
        it fits beside the live entries, otherwise only when ``key``'s
        count is strictly greater than the summed counts of the LRU
        entries that would leave to make room.

        The lookup being decided is not counted yet, so a key asked as
        often as its victim ties and the incumbent stays.  Counting it
        first lets each key asked once per period evict the next such
        key due, which then misses in turn: a chain of misses.
        """
        excess = self._current_bytes + size - self.budget_bytes
        count = self._frequency.get(key, 0)
        displaced = 0
        for victim in self._entries:  # least recently used first
            if excess <= 0:
                break
            displaced += self._frequency.get(victim, 0)
            if displaced >= count:
                return False
            excess -= self._sizes[victim]
        return True

    def _build(self, s: Vertex, t: Vertex, k: int) -> CpeEnumerator:
        """Construct ``(s, t, k)``, seeding its ``Dist_s`` from a live
        entry.

        :meth:`observe_all` repairs every entry's maps on every update,
        so a live entry with the same ``(s, k)`` holds exactly the
        ``Dist_s`` a fresh BFS would compute; a clone replaces that BFS.
        ``Dist_t`` depends on both endpoints, so it is built pruned by
        that ``Dist_s``.
        """
        dist_s: Optional[DistanceMap] = None
        for (entry_s, _, entry_k), entry in self._entries.items():
            if entry_k == k and entry_s == s:
                dist_s = entry.dist_s.clone()
                break
        build = build_index(self.graph, s, t, k, dist_s=dist_s)
        return CpeEnumerator.from_build(self.graph, build)

    def invalidate(self, key: CacheKey) -> bool:
        """Drop one entry; True if it was cached."""
        if key not in self._entries:
            return False
        del self._entries[key]
        freed = self._sizes.pop(key)
        self._current_bytes -= freed
        self._note_bytes()
        events.emit(
            events.CACHE_INVALIDATE,
            s=key[0], t=key[1], k=key[2], freed_bytes=freed,
        )
        return True

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        dropped = len(self._entries)
        freed = self._current_bytes
        self._entries.clear()
        self._sizes.clear()
        self._current_bytes = 0
        self._note_bytes()
        events.emit(events.CACHE_CLEAR, entries=dropped, freed_bytes=freed)

    # ------------------------------------------------------------------
    def observe_all(self, update: EdgeUpdate) -> Dict[CacheKey, UpdateResult]:
        """Repair every cached index for an already-applied graph update.

        Entries whose index the update changed are re-measured (an
        update can grow an entry past the budget), then LRU eviction
        restores the budget.  An update that failed an entry's relevance
        test repaired only its ``Dist_s``, which is not charged, so that
        entry keeps its size.  Recency is *not* touched: repairing an
        index is bookkeeping, not use.
        """
        results: Dict[CacheKey, UpdateResult] = {}
        resized = False
        for key in tuple(self._entries):
            entry = self._entries[key]
            result = entry.observe(update)
            results[key] = result
            record = result.record
            assert record is not None  # observe always returns its record
            if record.relevant:
                size = estimated_entry_bytes(entry)
                self._current_bytes += size - self._sizes[key]
                self._sizes[key] = size
                resized = True
        if resized:
            self._shrink_to_budget()
        return results

    def _note_lookup(self) -> None:
        """Mirror the lookup counters into :mod:`repro.obs`."""
        if obs.enabled():
            obs.incr("service.cache.lookups")
            total = self._hits + self._misses
            obs.set_gauge(
                "service.cache.hit_rate",
                self._hits / total if total else 0.0,
            )
            obs.set_gauge("service.cache.bytes", self._current_bytes)

    def _note_bytes(self) -> None:
        """Refresh the occupancy gauge after any byte-count mutation."""
        if obs.enabled():
            obs.set_gauge("service.cache.bytes", self._current_bytes)

    def _shrink_to_budget(self) -> None:
        while self._current_bytes > self.budget_bytes and self._entries:
            key, _ = self._entries.popitem(last=False)
            freed = self._sizes.pop(key)
            self._current_bytes -= freed
            self._evictions += 1
            obs.incr("service.cache.evictions")
            events.emit(
                events.CACHE_EVICT,
                s=key[0], t=key[1], k=key[2], freed_bytes=freed,
            )
        self._note_bytes()

    # ------------------------------------------------------------------
    def stats(self) -> CacheStats:
        """A point-in-time snapshot of the cache counters."""
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            bypasses=self._bypasses,
            entries=len(self._entries),
            current_bytes=self._current_bytes,
            budget_bytes=self.budget_bytes,
        )


__all__ = [
    "CacheKey",
    "CacheLookup",
    "CacheStats",
    "ENTRY_BASE_BYTES",
    "FREQUENCY_SAMPLE",
    "IndexCache",
    "check_query",
    "estimated_entry_bytes",
]
