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
* **Fusion-boundary granularity.**  Under pipeline-fused streaming the
  executor defers a fused chain's intermediate outputs (they stream, one
  morsel at a time, and never materialize), so such chains are cached as
  ONE entry keyed at the chain top with a fused-chain tuning marker; the
  value couples the boundary batch with the per-stage stats records that
  let warm runs replay every deferred stage's cost.  The marker keeps
  fused and standalone entries for the same subplan apart, so retuning
  ``pipeline_fusion`` mid-session can cause cold misses but never wrong
  reuse (see ``docs/CACHING.md``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Hashable, Mapping

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

    def since(self, earlier: "CacheCounters") -> "CacheCounters":
        """Per-window delta (e.g. counters attributable to one query)."""
        return CacheCounters(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            evicted=self.evicted - earlier.evicted,
            invalidated=self.invalidated - earlier.invalidated,
        )

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


@dataclass
class _Entry:
    """One cached kernel result plus the metadata retention needs."""

    value: object
    #: Bytes of result columns this entry pins beyond the catalog (0 for
    #: zero-copy base-table scan entries).
    nbytes: int
    #: Base tables the producing subplan read — the invalidation index.
    tables: frozenset[str] = field(default_factory=frozenset)


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

    Keys are opaque hashables — the executor uses
    ``(structural_key(node, table_versions=...), tuning)`` — and values are
    whatever the kernel returned.  The cache never re-derives anything; it
    only retains, evicts (LRU under ``budget_bytes``) and invalidates
    (:meth:`invalidate_table`, driven by catalog subscriptions).

    **Thread safety.**  Every mutating or compound operation holds one
    re-entrant lock: worker-driven serving executes tenant queries (and
    therefore cache lookups, inserts and catalog-driven invalidations)
    from multiple threads against one shared cache.  The lock makes each
    get/put/invalidate atomic — counters always reconcile exactly
    (``lookups == hits + misses``; bytes match the live entries) no matter
    how calls interleave.
    """

    def __init__(
            self, budget_bytes: int | None = DEFAULT_CACHE_BUDGET_BYTES,
    ) -> None:
        self._lock = threading.RLock()
        self._entries: OrderedDict[Hashable, _Entry] = OrderedDict()
        self._bytes_used = 0
        self._counters = CacheCounters()
        self.budget_bytes = self.validate_budget(budget_bytes)

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
        return self._counters

    def stats(self) -> QueryCacheStats:
        """Counters plus occupancy, as one frozen snapshot."""
        with self._lock:
            counters = self._counters
            return QueryCacheStats(
                hits=counters.hits, misses=counters.misses,
                evicted=counters.evicted, invalidated=counters.invalidated,
                entries=len(self._entries), bytes_used=self._bytes_used,
                budget_bytes=self.budget_bytes,
            )

    # ------------------------------------------------------------------
    # The cache protocol
    # ------------------------------------------------------------------
    def get(self, key: Hashable) -> object | None:
        """Look up a kernel result; counts a hit or a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._counters = self._bump(misses=1)
                return None
            self._entries.move_to_end(key)
            self._counters = self._bump(hits=1)
            return entry.value

    def put(self, key: Hashable, value: object, *, nbytes: int,
            tables: frozenset[str] = frozenset()) -> None:
        """Retain a kernel result, evicting entries to stay in budget.

        An entry larger than the whole budget is dropped immediately (and
        counted as evicted) rather than flushing every other entry for an
        insert that could never fit.
        """
        with self._lock:
            if not self.enabled:
                return
            if self.budget_bytes is not None and nbytes > self.budget_bytes:
                self._counters = self._bump(evicted=1)
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
        with self._lock:
            stale = [key for key, entry in self._entries.items()
                     if name in entry.tables]
            for key in stale:
                entry = self._entries.pop(key)
                self._bytes_used -= entry.nbytes
            if stale:
                self._counters = self._bump(invalidated=len(stale))
            return len(stale)

    def set_budget(self, budget_bytes: int | None) -> None:
        """Re-tune the byte budget, evicting down to it immediately.

        ``0`` disables cross-query caching (drops everything, counted as
        evictions); ``None`` lifts the bound entirely.
        """
        with self._lock:
            self.budget_bytes = self.validate_budget(budget_bytes)
            if self.budget_bytes == 0 and self._entries:
                self._counters = self._bump(evicted=len(self._entries))
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
        with self._lock:
            self._entries.clear()
            self._bytes_used = 0

    # ------------------------------------------------------------------
    def _evict_to_budget(self) -> None:
        if self.budget_bytes is None:
            return
        evicted = 0
        while self._bytes_used > self.budget_bytes and self._entries:
            _, entry = self._entries.popitem(last=False)  # LRU first
            self._bytes_used -= entry.nbytes
            evicted += 1
        if evicted:
            self._counters = self._bump(evicted=evicted)

    def _bump(self, *, hits: int = 0, misses: int = 0, evicted: int = 0,
              invalidated: int = 0) -> CacheCounters:
        current = self._counters
        return CacheCounters(
            hits=current.hits + hits,
            misses=current.misses + misses,
            evicted=current.evicted + evicted,
            invalidated=current.invalidated + invalidated,
        )
