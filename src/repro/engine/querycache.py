"""QueryCache: the session-lifetime cross-query kernel cache.

One :class:`~repro.engine.session.HAPEEngine` instance is one session, and
repeated dashboard-style workloads submit structurally similar plans over
and over.  PR 1 made every operator kernel a pure function memoized by the
structural key of its subplan *within* one ``Executor.execute`` call; this
module promotes that memo to a session-lifetime subsystem so a dimension
scan, a filtered build side or a whole join result computed by one query
can be reused — functionally — by every later query in the session.

The cache is safe across catalog changes because its keys are *versioned*:
the executor builds structural keys with
:func:`repro.relational.physical.structural_key` passing the catalog's
``table_versions``, so every scan in a key embeds the catalog version of
the table it reads.  ``Catalog.register(replace=True)`` / ``Catalog.drop``
bump the version (retiring old keys) *and* push an invalidation through
:meth:`Catalog.subscribe`, which calls :meth:`QueryCache.invalidate_table`
to discard — eagerly and exactly — the entries whose subplan read the
changed table.

Retention is bounded by ``budget_bytes`` (the engine's
``cache_budget_bytes`` knob): every entry is charged the bytes of the
result columns it pins (base-table scan entries are zero-copy views over
catalog-resident arrays and are charged 0 bytes).  A budget of ``0``
disables cross-query caching entirely; ``None`` means unlimited.  Over
budget, the least-recently-used entry is discarded first — a pure
function of the get/put order, so eviction never depends on the host
clock; functional results and simulated seconds are bit-identical
regardless of what was evicted.

Two properties the rest of the engine relies on:

* **Timing neutrality.**  The cache serves *functional* kernel results
  only; cost estimation happens per occurrence outside the cache, so
  simulated seconds are bit-identical whether a query runs cold or warm.
* **Morsel transparency.**  Entries hold fully reassembled batches (never
  partial morsel streams), and kernel outputs are bit-identical for every
  ``morsel_rows`` setting, so the ``morsel_rows`` knob is deliberately
  *not* part of the cache key — a result computed at one granularity is
  valid at every other.
* **Fusion-boundary granularity.**  The executor defers a fused chain's
  intermediate outputs (they stream, one morsel at a time, and never
  materialize), so such chains are cached as ONE entry keyed at the chain
  top with a fused-chain tuning marker (the chain's count of relational
  stages); the value couples the boundary batch with one stats record per
  relational stage, which lets warm runs replay every deferred stage's
  cost.  The marker keeps a subplan's fused entry apart from its
  standalone one (a plan's root, or a subplan the plan repeats, is a
  chain of its own), so a subplan cut differently in another plan can
  cause cold misses but never wrong reuse (see ``docs/CACHING.md``).
* **Placement transparency.**  Structural keys look through the exchange
  operators (routers, mem-moves, device crossings), which move or route
  packets without changing them, so the cpu, hybrid and gpu placements
  of one subplan share one entry; what a placement changes in a stats
  record (a partitioned join's pass plan) is in the tuning half of the
  key.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable, Hashable, Mapping, Sequence
from weakref import WeakValueDictionary

import numpy as np

#: Default retention budget of the session cache: 256 MiB of pinned result
#: columns.  Generous enough to hold every intermediate of the TPC-H suite
#: at the benchmarked scale factors, small enough that an idle session
#: never pins more than a fixed slice of host memory.
DEFAULT_CACHE_BUDGET_BYTES = 256 << 20


@dataclass(frozen=True)
class CacheCounters:
    """Hit/miss/evicted/invalidated counts (cumulative or per query).

    ``hits`` and ``misses`` count *distinct subplans* looked up in the
    session cache; repeats of a subplan inside one plan are served by the
    executor's per-query overlay and bump nothing here.  ``evicted`` counts
    entries dropped to keep the cache within its byte budget (including
    oversized entries rejected at insert), ``invalidated`` counts entries
    discarded because the catalog replaced or dropped a table they read.
    """

    hits: int = 0
    misses: int = 0
    evicted: int = 0
    invalidated: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def describe(self) -> str:
        return (f"hits={self.hits} misses={self.misses} "
                f"evicted={self.evicted} invalidated={self.invalidated}")


@dataclass(frozen=True)
class QueryCacheStats(CacheCounters):
    """A full point-in-time snapshot: counters plus occupancy."""

    entries: int = 0
    bytes_used: int = 0
    budget_bytes: int | None = DEFAULT_CACHE_BUDGET_BYTES

    def describe(self) -> str:
        budget = ("unlimited" if self.budget_bytes is None
                  else f"{self.budget_bytes}B")
        return (f"{super().describe()} entries={self.entries} "
                f"bytes={self.bytes_used} budget={budget}")


class CacheKey(frozenset):
    """A cache key made once, when a plan is compiled (:meth:`QueryCache.key`).

    Its :attr:`value` — a catalog-versioned structural key with its tuning,
    a nested tuple ~10 levels deep — is hashed here, once: CPython keeps
    no tuple's hash, so a bare tuple is walked again by every dict probe,
    but it keeps a frozenset's, and the key is the one-element frozenset
    of its value.  A cache hands out one object per distinct value, so the
    probes of a program's keys hit on identity, and neither hashing nor
    comparing a key runs Python code.  Keys made by different caches are
    different objects that still compare and hash equal by value.
    """

    __slots__ = ()

    def __new__(cls, value: Hashable) -> "CacheKey":
        return super().__new__(cls, (value,))

    @property
    def value(self) -> Hashable:
        return next(iter(self))


@dataclass
class _Entry:
    """One cached kernel result plus the metadata retention needs."""

    value: object
    #: Bytes of result columns this entry pins beyond the catalog (0 for
    #: zero-copy base-table scan entries).
    nbytes: int
    #: Base tables the producing subplan read — the invalidation index.
    tables: frozenset[str] = field(default_factory=frozenset)
    #: What :meth:`QueryCache.kept` made from the entry, by tag.
    kept: dict = field(default_factory=dict)


def result_nbytes(result: object) -> int:
    """Bytes of the output columns inside a kernel result.

    Kernel results are either a bare column map (scans) or a tuple whose
    first element is the column map (``(columns, stats)`` /
    ``(columns, merged_nbytes)``); anything else is accounted as free.
    Shared views are charged at full array size — the budget is an upper
    bound on pinned data, not an exact allocator.
    """
    columns = result[0] if isinstance(result, tuple) and result else result
    if isinstance(columns, Mapping):
        return int(sum(np.asarray(values).nbytes
                       for values in columns.values()))
    return 0


def freeze_result(result: object) -> None:
    """Mark a kernel result's column arrays read-only before retention.

    Cached entries alias the arrays later queries receive in their result
    tables; an in-place write through a returned table would otherwise
    silently corrupt every subsequent answer of the session.  Freezing
    enforces the engine-wide immutability contract at the NumPy level: a
    stray ``result.table.array("x")[0] = ...`` raises instead of
    poisoning the cache (or, for zero-copy scan entries, the catalog).
    """
    columns = result[0] if isinstance(result, tuple) and result else result
    if isinstance(columns, Mapping):
        for values in columns.values():
            if isinstance(values, np.ndarray):
                values.flags.writeable = False


class QueryCache:
    """LRU cache of kernel results keyed by versioned structural keys.

    Keys are opaque hashables and values are whatever the kernel returned.
    The executor's keys are the :class:`CacheKey`\\ s of
    ``(structural_key(node, table_versions=...), tuning)`` that
    :meth:`key` canonicalizes when a plan is compiled, so a lookup hashes
    in O(1) and every program of the cache — the cpu, hybrid and gpu
    lowerings of a query, the tenant sessions sharing a server's cache —
    holds the same object for the same subplan.  The cache never
    re-derives anything; it only retains, evicts (LRU under
    ``budget_bytes``) and invalidates (:meth:`invalidate_table`, driven by
    catalog subscriptions).

    One thread drives a session or a server, so every get, put and
    invalidation runs to completion before the next starts and the
    counters reconcile exactly (``lookups == hits + misses``; bytes match
    the live entries) without a lock.
    """

    def __init__(
            self, budget_bytes: int | None = DEFAULT_CACHE_BUDGET_BYTES,
    ) -> None:
        self._entries: OrderedDict[Hashable, _Entry] = OrderedDict()
        self._bytes_used = 0
        # Plain ints: a lookup adds 1, and a snapshot is built only when
        # one is read (counters(), stats(), window()).
        self._hits = self._misses = self._evicted = self._invalidated = 0
        #: The counters the current :meth:`window` began at.
        self._mark = (0, 0, 0, 0)
        self.budget_bytes = self.validate_budget(budget_bytes)
        #: The canonical keys (:meth:`key`), held weakly: one lives while a
        #: program or an entry holds it.
        self._keys = WeakValueDictionary()

    @staticmethod
    def validate_budget(budget_bytes: int | None) -> int | None:
        if budget_bytes is not None:
            budget_bytes = int(budget_bytes)
            if budget_bytes < 0:
                raise ValueError("cache_budget_bytes must be >= 0 or None")
        return budget_bytes

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """False only for the ``budget_bytes=0`` (caching disabled) knob."""
        return self.budget_bytes != 0

    @property
    def bytes_used(self) -> int:
        return self._bytes_used

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def counters(self) -> CacheCounters:
        """Snapshot of the cumulative hit/miss/evict/invalidate counters."""
        return CacheCounters(self._hits, self._misses, self._evicted,
                             self._invalidated)

    def window(self) -> CacheCounters:
        """The counters since the previous call, which begins the next
        window.  Every execution takes one as it ends, so on a cache that
        many sessions share too, it is that execution's own hits, misses
        and evictions, plus the invalidations since the one before."""
        counts = (self._hits, self._misses, self._evicted, self._invalidated)
        hits, misses, evicted, invalidated = self._mark
        self._mark = counts
        return CacheCounters(counts[0] - hits, counts[1] - misses,
                             counts[2] - evicted, counts[3] - invalidated)

    def stats(self) -> QueryCacheStats:
        """Counters plus occupancy, as one frozen snapshot."""
        return QueryCacheStats(
            self._hits, self._misses, self._evicted, self._invalidated,
            entries=len(self._entries), bytes_used=self._bytes_used,
            budget_bytes=self.budget_bytes,
        )

    # ------------------------------------------------------------------
    # The cache protocol
    # ------------------------------------------------------------------
    def key(self, value: Hashable) -> CacheKey:
        """The one :class:`CacheKey` of ``value`` while any holds it: what
        :meth:`Executor.compile` makes a program's keys with, hashing each
        nested value once."""
        return self._keys.get(value) or self._keys.setdefault(
            value, CacheKey(value))

    def get(self, key: Hashable) -> object | None:
        """Look up a kernel result; counts a hit or a miss."""
        entry = self._entries.get(key)
        if entry is None:
            self._misses += 1
            return None
        self._entries.move_to_end(key)
        self._hits += 1
        return entry.value

    def get_all(self, keys: Sequence[Hashable]) -> bool:
        """Look up every key in one walk, all or nothing: when each is
        cached, count a hit per key in order — the counters and LRU order
        a :meth:`get` per key leaves — and return ``True``.  Else count
        nothing; the keys before the first missing one have moved to the
        end, as the walk that runs next (a charged execution looking the
        same keys up in the same order) moves them anyway."""
        try:
            deque(map(self._entries.move_to_end, keys), maxlen=0)
        except KeyError:
            return False
        self._hits += len(keys)
        return True

    def kept(self, key: Hashable, tag: Hashable,
             make: Callable[[], tuple[object, int]] | None = None) -> object:
        """What the entry of ``key`` keeps under ``tag`` (``None``:
        nothing).  Given ``make``, a first ask keeps ``make()``'s value and
        charges its bytes (``make``'s second value) to the entry, so it
        leaves with the entry and counts under the budget — unless the
        key is not cached or the budget cannot hold both.  Counts no
        lookup and moves nothing in the LRU order."""
        entry = self._entries.get(key)
        value = None if entry is None else entry.kept.get(tag)
        if value is not None or make is None:
            return value
        value, nbytes = make()
        if entry is not None and (self.budget_bytes is None or entry.nbytes
                                  + nbytes <= self.budget_bytes):
            entry.kept[tag] = value
            entry.nbytes += nbytes
            self._bytes_used += nbytes
            self._evict_to_budget()
        return value

    def put(self, key: Hashable, value: object, *, nbytes: int,
            tables: frozenset[str] = frozenset()) -> None:
        """Retain a kernel result, evicting entries to stay in budget.

        An entry larger than the whole budget is dropped immediately (and
        counted as evicted) rather than flushing every other entry for an
        insert that could never fit.
        """
        if not self.enabled:
            return
        if self.budget_bytes is not None and nbytes > self.budget_bytes:
            self._evicted += 1
            return
        freeze_result(value)
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes_used -= old.nbytes
        self._entries[key] = _Entry(value, nbytes=int(nbytes),
                                    tables=tables)
        self._bytes_used += int(nbytes)
        self._evict_to_budget()

    def invalidate_table(self, name: str) -> int:
        """Discard every entry whose subplan read ``name``.

        Wired to :meth:`repro.storage.catalog.Catalog.subscribe`, so
        ``register(replace=True)`` and ``drop`` discard exactly the cached
        results that depended on the changed table — entries over other
        tables stay warm.  Returns how many entries were discarded.
        """
        stale = [key for key, entry in self._entries.items()
                 if name in entry.tables]
        for key in stale:
            entry = self._entries.pop(key)
            self._bytes_used -= entry.nbytes
        self._invalidated += len(stale)
        return len(stale)

    def set_budget(self, budget_bytes: int | None) -> None:
        """Re-tune the byte budget, evicting down to it immediately.

        ``0`` disables cross-query caching (drops everything, counted as
        evictions); ``None`` lifts the bound entirely.
        """
        self.budget_bytes = self.validate_budget(budget_bytes)
        if self.budget_bytes == 0 and self._entries:
            self._evicted += len(self._entries)
            self._entries.clear()
            self._bytes_used = 0
            return
        self._evict_to_budget()

    def clear(self) -> None:
        """Drop every entry without touching the counters.

        A session reset (benchmarks use it to measure cold executions on a
        long-lived engine) — unlike eviction/invalidation this is not an
        observable cache event.
        """
        self._entries.clear()
        self._bytes_used = 0

    # ------------------------------------------------------------------
    def _evict_to_budget(self) -> None:
        if self.budget_bytes is None:
            return
        while self._bytes_used > self.budget_bytes and self._entries:
            _, entry = self._entries.popitem(last=False)  # LRU first
            self._bytes_used -= entry.nbytes
            self._evicted += 1
