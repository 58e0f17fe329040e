"""The server-owned cross-session kernel cache.

:class:`SharedQueryCache` is a :class:`~repro.engine.querycache.QueryCache`
promoted to server scope: one instance is handed to every tenant session
(via ``HAPEEngine(query_cache=...)``), so a kernel result computed for one
tenant's query is served warm to every other tenant submitting a
structurally identical subplan against the same catalog state.  The entire
invalidation contract is inherited unchanged — keys are catalog-versioned
and the *server's* shared catalog pushes ``register(replace=True)`` /
``drop`` invalidations through exactly one subscription, wired by
:class:`~repro.server.server.QueryServer`.

What the shared cache adds is **tenant-tagged accounting** with
deterministic attribution.  The server opens a :class:`CacheBracket` per
execution attempt (:meth:`tenant`); lookups inside the bracket are
*traced* — recorded in lookup order, bumping no counters — and the
coordinating thread later :meth:`commit`\\ s each bracket in canonical
admission pick order.  A commit classifies every traced key against the
**canonical key set**: the keys committed so far this epoch (seeded from
the live entries by :meth:`begin_epoch`).  A key already in the set is a
hit; a new key is a miss and joins the set.  Because classification
happens in pick order on one thread, hit/miss attribution is a pure
function of the admission schedule: two tenants racing to compute the
same kernel on worker threads charge exactly one miss (the earlier pick)
and one hit (the later), identical to what a serial drain charges —
regardless of which worker finished first.

Attribution never affects retention — budget, LRU eviction and
invalidation treat all tenants as one workload, and retention itself is
inherited unchanged from :class:`QueryCache`.  Under byte-budget pressure
the canonical set can diverge from the live entries (an evicted entry's
key stays canonical until the epoch ends), mirroring the existing
documented caveat that hit counters under eviction pressure are
best-effort; with caching disabled (budget 0) nothing is ever canonical
and every lookup commits as a miss, exactly like the serial drain.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Hashable, Iterator

from ..engine.querycache import (
    DEFAULT_CACHE_BUDGET_BYTES,
    CacheCounters,
    QueryCache,
)


@dataclass
class CacheBracket:
    """The traced cache traffic of one execution attempt.

    ``trace`` holds every key the attempt looked up, in lookup order.
    The bracket is inert data: counters move only when the coordinating
    thread passes it to :meth:`SharedQueryCache.commit`.
    """

    tenant: str
    trace: list[Hashable] = field(default_factory=list)


class SharedQueryCache(QueryCache):
    """A :class:`QueryCache` shared across tenant sessions, with
    deterministic per-tenant hit/miss attribution (trace at lookup,
    classify at commit)."""

    def __init__(
            self, budget_bytes: int | None = DEFAULT_CACHE_BUDGET_BYTES,
    ) -> None:
        super().__init__(budget_bytes)
        #: Per tenant, ``[hits, misses]``: ints, like the global counters.
        self._tenant_counts: dict[str, list[int]] = {}
        self._local = threading.local()
        #: Keys considered present by committed state: seeded from the
        #: live entries at ``begin_epoch`` and grown by committed misses.
        self._canonical: set[Hashable] = set()

    @property
    def _active_bracket(self) -> CacheBracket | None:
        return getattr(self._local, "bracket", None)

    # ------------------------------------------------------------------
    @contextmanager
    def tenant(self, name: str) -> Iterator[CacheBracket]:
        """Trace cache traffic inside the block into a fresh bracket.

        The active bracket is per-thread: concurrent server workers each
        trace inside their own bracket without clobbering each other.
        The caller must hand the yielded bracket to :meth:`commit` on the
        coordinating thread, in canonical pick order.
        """
        previous = self._active_bracket
        bracket = CacheBracket(tenant=name)
        self._local.bracket = bracket
        with self._lock:
            self._tenant_counts.setdefault(name, [0, 0])
        try:
            yield bracket
        finally:
            self._local.bracket = previous

    def get(self, key: Hashable) -> object | None:
        """Look up a kernel result; inside a bracket, trace instead of
        counting (classification happens at :meth:`commit`)."""
        bracket = self._active_bracket
        if bracket is None:
            return super().get(key)
        with self._lock:
            bracket.trace.append(key)
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry.value

    # ------------------------------------------------------------------
    # Deterministic attribution
    # ------------------------------------------------------------------
    def begin_epoch(self) -> None:
        """Reset the canonical key set to the live entries.

        Called by the server at the top of every drain, so hits carried
        over from a previous epoch's warm entries classify as hits and
        keys whose entries were invalidated or cleared between epochs do
        not.
        """
        with self._lock:
            self._canonical = set(self._entries)

    def commit(self, bracket: CacheBracket) -> CacheCounters:
        """Classify one bracket's traced lookups; returns its delta.

        Must be called on the coordinating thread in canonical pick
        order — the order itself is the determinism contract.  Each
        traced key is a hit if some earlier commit (or the epoch's
        starting entries) made it canonical, else a miss that makes it
        canonical (unless caching is disabled, in which case nothing is
        ever canonical and every lookup is a miss).  Both the global and
        the bracket tenant's counters move by exactly the returned delta,
        so counters reconcile exactly: global hit/miss totals equal the
        sum over tenants at any worker count.
        """
        hits = misses = 0
        with self._lock:
            for key in bracket.trace:
                if key in self._canonical:
                    hits += 1
                else:
                    misses += 1
                    if self.enabled:
                        self._canonical.add(key)
            self._hits += hits
            self._misses += misses
            counts = self._tenant_counts.setdefault(bracket.tenant, [0, 0])
            counts[0] += hits
            counts[1] += misses
        return CacheCounters(hits, misses)

    # ------------------------------------------------------------------
    # Canonical-set maintenance on explicit discards.  Keys are catalog-
    # versioned, so invalidated keys can never be looked up again — the
    # resync below keeps the set tight rather than correct-by-necessity.
    # ------------------------------------------------------------------
    def invalidate_table(self, name: str) -> int:
        with self._lock:
            count = super().invalidate_table(name)
            self._canonical &= set(self._entries)
            return count

    def set_budget(self, budget_bytes: int | None) -> None:
        with self._lock:
            super().set_budget(budget_bytes)
            self._canonical &= set(self._entries)

    def clear(self) -> None:
        with self._lock:
            super().clear()
            self._canonical.clear()

    def tenant_counters(self) -> dict[str, CacheCounters]:
        """Per-tenant hit/miss attribution (a snapshot copy)."""
        with self._lock:
            return {name: CacheCounters(hits, misses)
                    for name, (hits, misses) in self._tenant_counts.items()}
