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

What the shared cache adds is a **per-tenant tally**.  One thread drives
the server and it executes one attempt at a time, so the inherited
counters count each lookup as it happens, and every execution, whichever
session runs it, ends by closing its :meth:`~QueryCache.window`: the
hits and misses of its own lookups.  The server :meth:`attribute`\\ s an
attempt's window to its tenant.  The tally is what the cache really
did, evictions included: a subplan evicted between two tenants' lookups
is a miss for both.  Traffic outside an attempt (a tenant session
executed directly, outside ``run()``) moves the global counters only and
is attributed to no tenant.

Attribution never affects retention — budget, LRU eviction and
invalidation treat all tenants as one workload, exactly as
:class:`QueryCache` does.
"""

from __future__ import annotations

from ..engine.querycache import (
    DEFAULT_CACHE_BUDGET_BYTES,
    CacheCounters,
    QueryCache,
)


class SharedQueryCache(QueryCache):
    """A :class:`QueryCache` shared across tenant sessions, with a
    per-tenant hit/miss tally."""

    def __init__(
            self, budget_bytes: int | None = DEFAULT_CACHE_BUDGET_BYTES,
    ) -> None:
        super().__init__(budget_bytes)
        #: Per tenant, ``[hits, misses]``: ints, like the global counters.
        self._tenant_counts: dict[str, list[int]] = {}

    def attribute(self, tenant: str, window: CacheCounters) -> CacheCounters:
        """Charge the hits and misses of an attempt's :meth:`window` to
        ``tenant``; returns them."""
        hits, misses = window.hits, window.misses
        counts = self._tenant_counts.setdefault(tenant, [0, 0])
        counts[0] += hits
        counts[1] += misses
        return CacheCounters(hits, misses)

    def tenant_counters(self) -> dict[str, CacheCounters]:
        """Per-tenant hit/miss attribution (a snapshot copy)."""
        return {name: CacheCounters(hits, misses)
                for name, (hits, misses) in self._tenant_counts.items()}
