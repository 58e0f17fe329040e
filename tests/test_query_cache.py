"""The cross-query kernel cache: warm sessions, invalidation, eviction.

Covers the session-lifetime :class:`repro.engine.querycache.QueryCache`
end to end: warm repeated queries skip kernel re-evaluation while keeping
results and simulated seconds bit-identical to a cold engine, catalog
``register(replace=True)`` / ``drop`` invalidate exactly the entries that
read the changed table, and the ``cache_budget_bytes`` knob bounds
retention with LRU eviction (``0`` disables cross-query caching without
losing within-query single evaluation).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    DEFAULT_CACHE_BUDGET_BYTES,
    HAPEEngine,
    QueryCache,
    Session,
)
from repro.errors import CatalogError
from repro.hardware import default_server
from repro.operators import kernel_counts, reset_kernel_counts
from repro.relational import agg_count, agg_sum, col, execute_logical, lit, scan
from repro.storage import Table

MODES = ("cpu", "gpu", "hybrid")


def _table(name: str, n: int = 64, *, offset: int = 0) -> Table:
    return Table.from_arrays(name, {
        "k": np.arange(n, dtype=np.int64) + offset,
        "v": (np.arange(n, dtype=np.int64) * 3 + offset) % 17,
    })


def _sum_plan(table: str = "t"):
    return (scan(table).filter(col("v") >= lit(2))
            .aggregate([], [agg_sum(col("k"), "total")]))


@pytest.fixture
def session():
    engine = HAPEEngine(default_server())
    engine.register_table(_table("t"))
    engine.register_table(_table("u", offset=100))
    return engine


# ----------------------------------------------------------------------
# QueryCache unit behavior
# ----------------------------------------------------------------------
class TestQueryCacheUnit:
    def test_get_put_and_counters(self):
        cache = QueryCache(budget_bytes=1024)
        assert cache.get("k") is None
        cache.put("k", "value", nbytes=8)
        assert cache.get("k") == "value"
        counters = cache.counters()
        assert (counters.hits, counters.misses) == (1, 1)
        assert counters.lookups == 2

    def test_lru_eviction_order(self):
        cache = QueryCache(budget_bytes=20)
        cache.put("a", 1, nbytes=8)
        cache.put("b", 2, nbytes=8)
        assert cache.get("a") == 1          # touch: b is now LRU
        cache.put("c", 3, nbytes=8)         # over budget -> evict b
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.counters().evicted == 1
        assert cache.bytes_used == 16

    def test_oversized_entry_rejected_not_flushing_others(self):
        cache = QueryCache(budget_bytes=16)
        cache.put("small", 1, nbytes=8)
        cache.put("huge", 2, nbytes=64)
        assert "huge" not in cache
        assert "small" in cache             # the warm set survives
        assert cache.counters().evicted == 1

    def test_invalidate_table_is_exact(self):
        cache = QueryCache(budget_bytes=None)
        cache.put("a", 1, nbytes=4, tables=frozenset({"t"}))
        cache.put("b", 2, nbytes=4, tables=frozenset({"t", "u"}))
        cache.put("c", 3, nbytes=4, tables=frozenset({"u"}))
        assert cache.invalidate_table("t") == 2
        assert "c" in cache and "a" not in cache and "b" not in cache
        assert cache.counters().invalidated == 2
        assert cache.bytes_used == 4

    def test_zero_budget_disables(self):
        cache = QueryCache(budget_bytes=0)
        assert not cache.enabled
        cache.put("k", 1, nbytes=0)
        assert len(cache) == 0

    def test_set_budget_shrinks_and_validates(self):
        cache = QueryCache(budget_bytes=None)
        for i in range(4):
            cache.put(i, i, nbytes=10)
        cache.set_budget(25)
        assert cache.bytes_used <= 25
        assert cache.counters().evicted == 2
        cache.set_budget(0)
        assert len(cache) == 0 and not cache.enabled
        with pytest.raises(ValueError):
            cache.set_budget(-1)

    def test_clear_keeps_counters(self):
        cache = QueryCache()
        cache.put("k", 1, nbytes=8)
        cache.get("k")
        cache.clear()
        assert len(cache) == 0 and cache.bytes_used == 0
        assert cache.counters().hits == 1


# ----------------------------------------------------------------------
# Catalog versioning and subscriptions
# ----------------------------------------------------------------------
class TestCatalogVersioning:
    def test_versions_are_unique_per_registration(self, session):
        catalog = session.catalog
        first = catalog.version("t")
        session.register_table(_table("t", offset=5), replace=True)
        second = catalog.version("t")
        assert second > first
        session.drop_table("t")
        session.register_table(_table("t"))
        assert catalog.version("t") > second
        with pytest.raises(CatalogError):
            catalog.version("never-registered")

    def test_subscribers_fire_on_replace_and_drop_only(self, session):
        events: list[str] = []
        session.catalog.subscribe(events.append)
        session.register_table(_table("fresh"))        # no event
        session.register_table(_table("t"), replace=True)
        session.drop_table("u")
        assert events == ["t", "u"]


# ----------------------------------------------------------------------
# Warm sessions
# ----------------------------------------------------------------------
class TestWarmSessions:
    def test_cold_query_counts_misses_only(self, session):
        result = session.execute(_sum_plan(), "cpu")
        assert result.cache.hits == 0
        assert result.cache.misses > 0

    def test_warm_repeat_runs_zero_kernels(self, session):
        first = session.execute(_sum_plan(), "cpu")
        reset_kernel_counts()
        second = session.execute(_sum_plan(), "cpu")
        assert kernel_counts() == {}
        assert second.cache.misses == 0
        assert second.cache.hits == first.cache.misses
        assert second.morsels_dispatched == 0

    def test_warm_results_and_simulated_seconds_match_cold_engine(self,
                                                                  session):
        warmup = session.execute(_sum_plan(), "cpu")
        warm = session.execute(_sum_plan(), "cpu")
        cold_engine = HAPEEngine(default_server())
        cold_engine.register_table(_table("t"))
        cold = cold_engine.execute(_sum_plan(), "cpu")
        assert warm.simulated_seconds == cold.simulated_seconds
        assert warmup.simulated_seconds == cold.simulated_seconds
        np.testing.assert_array_equal(warm.table.array("total"),
                                      cold.table.array("total"))

    def test_within_query_repeats_are_not_cache_traffic(self, session):
        """Repeated subplans inside one plan hit the overlay, not the cache."""
        side_a = scan("t").filter(col("v") >= lit(0))
        side_b = scan("t").filter(col("v") >= lit(0))
        plan = side_a.join(side_b, ["k"], ["k"])
        result = session.execute(plan, "cpu")
        # hits/misses count *distinct* subplans: one scan, one
        # filter/project (shared by both sides) and one join — the second
        # occurrence of the duplicated side is served by the per-query
        # overlay and bumps neither counter.
        assert result.cache.hits == 0
        assert result.cache.misses == 3

    def test_shared_dimension_subplan_hits_across_queries(self, session):
        dim = scan("t").filter(col("v") >= lit(5))
        q1 = dim.join(scan("u"), ["k"], ["k"]).aggregate(
            [], [agg_sum(col("v"), "s")])
        dim_again = scan("t").filter(col("v") >= lit(5))
        q2 = dim_again.join(scan("u"), ["k"], ["k"]).aggregate(
            [], [agg_count("cnt")])
        session.execute(q1, "cpu")
        second = session.execute(q2, "cpu")
        # The dimension scan+filter (and the shared probe scan) hit; the
        # different join/aggregate miss.
        assert second.cache.hits > 0
        assert second.cache.misses > 0

    # The whole-suite warm-vs-cold TPC-H identity sweep (outputs,
    # simulated seconds and stats records bit-identical for every query ×
    # mode) lives in the configuration matrix of tests/test_invariants.py,
    # crossed with morsel sizes and pipeline fusion.


# ----------------------------------------------------------------------
# Invalidation edges
# ----------------------------------------------------------------------
class TestInvalidation:
    def test_replace_invalidates_and_recomputes(self, session):
        stale = session.execute(_sum_plan(), "cpu")
        session.register_table(_table("t", n=32, offset=7), replace=True)
        fresh = session.execute(_sum_plan(), "cpu")
        assert fresh.cache.invalidated > 0
        assert fresh.cache.hits == 0
        reference = execute_logical(_sum_plan(), session.catalog)
        np.testing.assert_array_equal(fresh.table.array("total"),
                                      reference.array("total"))
        assert fresh.table.array("total")[0] != stale.table.array("total")[0]

    def test_drop_then_reregister_different_data(self, session):
        session.execute(_sum_plan(), "cpu")
        session.drop_table("t")
        assert session.cache_stats.invalidated > 0
        session.register_table(_table("t", n=16, offset=3))
        result = session.execute(_sum_plan(), "cpu")
        assert result.cache.hits == 0
        reference = execute_logical(_sum_plan(), session.catalog)
        np.testing.assert_array_equal(result.table.array("total"),
                                      reference.array("total"))

    def test_invalidation_spares_other_tables(self, session):
        session.execute(_sum_plan("t"), "cpu")
        session.execute(_sum_plan("u"), "cpu")
        session.register_table(_table("u", offset=9), replace=True)
        warm_t = session.execute(_sum_plan("t"), "cpu")
        assert warm_t.cache.misses == 0      # t's entries stayed warm
        assert warm_t.cache.invalidated > 0  # u's entries were discarded
        cold_u = session.execute(_sum_plan("u"), "cpu")
        assert cold_u.cache.misses > 0

    def test_join_entries_invalidate_on_either_input(self, session):
        plan = (scan("t").join(scan("u"), ["k"], ["k"])
                .aggregate([], [agg_count("cnt")]))
        session.execute(plan, "cpu")
        session.register_table(_table("u", n=32, offset=40), replace=True)
        result = session.execute(plan, "cpu")
        # The u-scan and the join over it recompute; the t-scan stays warm.
        assert result.cache.hits > 0
        assert result.cache.misses > 0
        reference = execute_logical(plan, session.catalog)
        np.testing.assert_array_equal(result.table.array("cnt"),
                                      reference.array("cnt"))


# ----------------------------------------------------------------------
# Budget, eviction and the session knob
# ----------------------------------------------------------------------
class TestBudgetAndEviction:
    def test_tiny_budget_evicts_derived_results(self):
        engine = HAPEEngine(default_server(), cache_budget_bytes=1)
        engine.register_table(_table("t"))
        reset_kernel_counts()
        first = engine.execute(_sum_plan(), "cpu")
        cold_counts = kernel_counts()
        assert first.cache.evicted > 0       # derived entries cannot fit
        reset_kernel_counts()
        second = engine.execute(_sum_plan(), "cpu")
        # Zero-byte scan entries still hit; every derived kernel re-runs.
        assert kernel_counts() == cold_counts
        assert second.cache.hits > 0
        assert second.cache.misses > 0
        assert second.simulated_seconds == first.simulated_seconds

    def test_zero_budget_disables_but_keeps_single_evaluation(self):
        engine = HAPEEngine(default_server(), cache_budget_bytes=0)
        engine.register_table(_table("t"))
        side_a = scan("t").filter(col("v") >= lit(0))
        side_b = scan("t").filter(col("v") >= lit(0))
        plan = side_a.join(side_b, ["k"], ["k"])
        reset_kernel_counts()
        result = engine.execute(plan, "cpu")
        # PR 1 behavior preserved: the duplicated side evaluates once.
        assert kernel_counts().get("filter_project", 0) == 1
        assert result.cache.lookups == 0     # no cross-query cache traffic
        reset_kernel_counts()
        engine.execute(plan, "cpu")
        assert kernel_counts().get("filter_project", 0) == 1  # re-runs cold

    def test_budget_knob_is_retunable_and_validated(self, session):
        assert session.cache_budget_bytes == DEFAULT_CACHE_BUDGET_BYTES
        session.execute(_sum_plan(), "cpu")
        occupied = session.cache_stats.bytes_used
        assert occupied > 0
        session.cache_budget_bytes = 1       # shrink -> evict down
        assert session.cache_stats.bytes_used <= 1
        assert session.cache_stats.evicted > 0
        session.cache_budget_bytes = None    # unlimited
        assert session.cache_budget_bytes is None
        with pytest.raises(ValueError):
            session.cache_budget_bytes = -5
        with pytest.raises(ValueError):
            HAPEEngine(default_server(), cache_budget_bytes=-1)

    def test_clear_query_cache_forces_cold_run(self, session):
        session.execute(_sum_plan(), "cpu")
        session.clear_query_cache()
        assert session.cache_stats.entries == 0
        reset_kernel_counts()
        result = session.execute(_sum_plan(), "cpu")
        assert result.cache.hits == 0
        assert kernel_counts()               # kernels ran again

    def test_cache_stats_snapshot_shape(self, session):
        session.execute(_sum_plan(), "cpu")
        stats = session.cache_stats
        assert stats.entries > 0
        assert stats.bytes_used >= 0
        assert stats.budget_bytes == DEFAULT_CACHE_BUDGET_BYTES
        assert "hits=" in stats.describe()

    def test_cached_results_are_frozen_against_mutation(self, session):
        """In-place writes to returned tables raise instead of poisoning
        the cache (or, via zero-copy scan entries, the catalog)."""
        first = session.execute(_sum_plan(), "cpu")
        with pytest.raises(ValueError):
            first.table.array("total")[0] = -999
        scan_result = session.execute(scan("t"), "cpu")
        with pytest.raises(ValueError):
            scan_result.table.array("k")[0] = 12345
        warm = session.execute(_sum_plan(), "cpu")
        np.testing.assert_array_equal(warm.table.array("total"),
                                      first.table.array("total"))

    def test_cache_survives_morsel_retuning(self, session):
        """The cache key ignores morsel_rows: retuning keeps entries warm."""
        session.execute(_sum_plan(), "cpu")
        session.morsel_rows = 7
        reset_kernel_counts()
        result = session.execute(_sum_plan(), "cpu")
        assert kernel_counts() == {}
        assert result.cache.misses == 0


class TestDescribeSurface:
    def test_query_result_describe_mentions_cache(self, session):
        result = session.execute(_sum_plan(), "cpu")
        assert "cache:" in result.describe()
        assert "misses=" in result.describe()

    def test_default_session_has_cache_enabled(self):
        assert Session().cache_budget_bytes == DEFAULT_CACHE_BUDGET_BYTES
