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
    OptimizerOptions,
    QueryCache,
    Session,
)
from repro.errors import CatalogError, OutOfDeviceMemoryError
from repro.hardware import default_server
from repro.operators import kernel_counts, reset_kernel_counts
from repro.relational import (JoinAlgorithm, agg_count, agg_sum, col,
                              execute_logical, lit, scan)
from repro.server import QueryServer, SharedQueryCache
from repro.storage import Table, generate_tpch
from repro.workloads import all_queries, build_query

MODES = ("cpu", "gpu", "hybrid")


def _table(name: str, n: int = 64, *, offset: int = 0) -> Table:
    return Table.from_arrays(name, {
        "k": np.arange(n, dtype=np.int64) + offset,
        "v": (np.arange(n, dtype=np.int64) * 3 + offset) % 17,
    })


def _sum_plan(table: str = "t"):
    return (scan(table).filter(col("v") >= lit(2))
            .aggregate([], [agg_sum(col("k"), "total")]))


@pytest.fixture(scope="module")
def sf001():
    return generate_tpch(0.01, seed=2019)


def _tpch_session(dataset, **options) -> HAPEEngine:
    engine = HAPEEngine(default_server(), **options)
    engine.register_dataset(dataset.tables)
    return engine


def _report(result):
    """Everything a run reports that placement may set, in plan order."""
    return ([result.table.array(name).tobytes()
             for name in result.table.column_names],
            repr(result.simulated_seconds), result.device_busy,
            result.link_bytes,
            [(op.label, op.estimated_rows, op.actual_rows)
             for op in result.cardinality.operators])


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
# SharedQueryCache: each attempt's lookups charged to its tenant
# ----------------------------------------------------------------------
class TestSharedQueryCacheUnit:
    @staticmethod
    def _attempt(cache, tenant, lookups):
        """One server attempt: open a window, run ``lookups``, attribute
        the window."""
        cache.window()
        lookups(cache)
        return cache.attribute(tenant, cache.window())

    def test_a_shared_entry_misses_once_then_hits_for_every_tenant(self):
        def compute_or_reuse(cache):
            if cache.get("shared") is None:
                cache.put("shared", {"x": np.arange(2, dtype=np.int64)},
                          nbytes=16)

        cache = SharedQueryCache(budget_bytes=None)
        deltas = [self._attempt(cache, f"tenant{index}", compute_or_reuse)
                  for index in range(8)]
        assert (deltas[0].hits, deltas[0].misses) == (0, 1)
        assert all((delta.hits, delta.misses) == (1, 0)
                   for delta in deltas[1:])
        totals = cache.counters()
        assert (totals.hits, totals.misses) == (7, 1)

    def test_each_attempt_is_charged_only_its_own_traffic(self):
        cache = SharedQueryCache(budget_bytes=None)
        cache.put("warm", {"x": np.arange(2, dtype=np.int64)}, nbytes=16)
        for index in range(8):
            delta = self._attempt(cache, f"tenant{index}", lambda cache: [
                cache.get("warm" if op % 2 else ("cold", index, op))
                for op in range(300)])
            assert (delta.hits, delta.misses) == (150, 150)
        per_tenant = cache.tenant_counters()
        assert len(per_tenant) == 8
        assert all((counters.hits, counters.misses) == (150, 150)
                   for counters in per_tenant.values())
        totals = cache.counters()
        assert totals.hits == sum(c.hits for c in per_tenant.values())
        assert totals.misses == sum(c.misses for c in per_tenant.values())

    def test_traffic_outside_an_attempt_is_not_attributed(self):
        cache = SharedQueryCache(budget_bytes=None)
        for op in range(50):
            cache.get(("anon", op))
        assert cache.tenant_counters() == {}
        delta = self._attempt(cache, "a", lambda cache: cache.get("k"))
        assert (delta.hits, delta.misses) == (0, 1)
        assert cache.counters().misses == 51
        assert cache.tenant_counters()["a"].misses == 1

    def test_an_entry_evicted_between_tenants_misses_for_both(self):
        """Room for one entry: what tenant a computed is evicted before
        tenant b looks, so b misses too — the count is what the cache
        did, not what a never-evicting cache would have served."""
        def compute_or_reuse(cache):
            if cache.get("shared") is None:
                cache.put("shared", {"x": np.arange(2, dtype=np.int64)},
                          nbytes=16)

        cache = SharedQueryCache(budget_bytes=16)
        first = self._attempt(cache, "a", compute_or_reuse)
        self._attempt(cache, "filler", lambda cache: cache.put(
            "other", {"x": np.arange(2, dtype=np.int64)}, nbytes=16))
        second = self._attempt(cache, "b", compute_or_reuse)
        assert (first.hits, first.misses) == (second.hits, second.misses) == (
            0, 1)
        assert cache.counters().evicted == 2


# ----------------------------------------------------------------------
# Counters: plain ints, snapshots on read
# ----------------------------------------------------------------------
class TestCounters:
    def test_every_lookup_is_counted_once(self):
        # Room for 3 of the 12 keys, so puts evict; every tenth operation
        # drops one table's entries.
        cache = QueryCache(budget_bytes=3 * 32)
        gets = found = 0
        for stream in range(8):
            for op in range(400):
                table = f"t{(stream + op // 10) % 3}"
                key = (table, (op + 1) // 2 % 4)  # a get reads the last put
                if op % 10 == 9:
                    cache.invalidate_table(table)
                elif op % 2:
                    cache.put(key, {"x": np.arange(4, dtype=np.int64)},
                              nbytes=32, tables=frozenset({table}))
                else:
                    gets += 1
                    found += cache.get(key) is not None
        counters, stats = cache.counters(), cache.stats()
        assert counters.lookups == counters.hits + counters.misses == gets
        assert counters.hits == found > 0
        assert counters.misses == gets - found > 0
        assert counters.evicted > 0 and counters.invalidated > 0
        assert (stats.hits, stats.misses, stats.evicted,
                stats.invalidated) == (counters.hits, counters.misses,
                                       counters.evicted, counters.invalidated)
        assert stats.entries == len(cache)
        assert stats.bytes_used == sum(
            entry.nbytes for entry in cache._entries.values())
        assert stats.bytes_used == 32 * len(cache) <= cache.budget_bytes

    def test_mixed_put_get_invalidate_reconciles_exactly(self):
        # No budget, so nothing is evicted: every entry that leaves goes
        # through an invalidation whose count the caller was told.
        cache = QueryCache(budget_bytes=None)
        rng = np.random.default_rng(2019)
        gets = invalidated = 0
        for op in range(2400):
            key = ("k", int(rng.integers(0, 24)))
            if op % 3 == 0:
                cache.put(key, {"x": np.arange(4, dtype=np.int64)},
                          nbytes=32, tables=frozenset({f"t{key[1] % 4}"}))
            elif op % 3 == 1:
                cache.get(key)
                gets += 1
            else:
                invalidated += cache.invalidate_table(
                    f"t{int(rng.integers(0, 4))}")
        counters = cache.counters()
        assert counters.lookups == counters.hits + counters.misses == gets
        assert counters.invalidated == invalidated > 0
        assert counters.evicted == 0
        assert cache.bytes_used == sum(
            entry.nbytes for entry in cache._entries.values())
        assert cache.bytes_used == 32 * len(cache)

    def test_the_byte_ledger_stays_within_budget_under_eviction(self):
        # Room for four entries; every put of a fifth distinct key evicts.
        cache = QueryCache(budget_bytes=128)
        for stream in range(8):
            for op in range(300):
                key = (stream, op % 40)
                cache.put(key, {"x": np.arange(4, dtype=np.int64)},
                          nbytes=32)
                assert cache.get(key) is not None  # the newest entry stays
                assert 0 <= cache.bytes_used <= 128
        assert cache.bytes_used == sum(
            entry.nbytes for entry in cache._entries.values()) == 128
        # Each put adds one entry; all but the four live ones were evicted.
        assert cache.counters().evicted == 8 * 300 - len(cache) == 2396

    def test_cached_arrays_stay_frozen_across_gets(self):
        cache = QueryCache(budget_bytes=None)
        cache.put("k", {"x": np.arange(8, dtype=np.int64)}, nbytes=64)
        for _ in range(3):
            array = cache.get("k")["x"]
            assert array.flags.writeable is False
            with pytest.raises(ValueError):
                array[0] = 99
        assert int(cache.get("k")["x"][0]) == 0

    def test_attempt_deltas_sum_to_the_global_counters(
            self, tpch_dataset, monkeypatch):
        deltas: list = []
        original = SharedQueryCache.attribute

        def spying(self, tenant, before):
            delta = original(self, tenant, before)
            deltas.append((tenant, delta))
            return delta

        monkeypatch.setattr(SharedQueryCache, "attribute", spying)
        server = QueryServer(default_server())
        server.register_dataset(tpch_dataset.tables)
        tenants = ("alpha", "beta", "gamma")
        for tenant in tenants:
            server.open_session(tenant)
        queries = all_queries(tpch_dataset)
        for _ in range(2):
            for tenant in tenants:
                for query in queries.values():
                    server.submit(tenant, query.plan, "hybrid")
            server.run()
        totals = server.query_cache.counters()
        assert totals.hits and totals.misses
        assert (sum(delta.hits for _, delta in deltas),
                sum(delta.misses for _, delta in deltas)) == (
            totals.hits, totals.misses)
        for tenant, counters in server.query_cache.tenant_counters().items():
            mine = [delta for name, delta in deltas if name == tenant]
            assert (counters.hits, counters.misses) == (
                sum(delta.hits for delta in mine),
                sum(delta.misses for delta in mine))
            assert counters.evicted == counters.invalidated == 0


# ----------------------------------------------------------------------
# Catalog versioning and subscriptions
# ----------------------------------------------------------------------
class TestCatalogVersioning:
    def test_versions_are_unique_per_registration(self, session):
        catalog = session.catalog
        first = catalog.version("t")
        observed: list[int] = []
        catalog.subscribe(
            lambda name: observed.append(catalog.table_versions.get(name)))
        for offset in range(5, 10):
            session.register_table(_table("t", offset=offset), replace=True)
        second = catalog.version("t")
        # Each replacement is delivered with its own, newer version.
        assert observed == sorted(set(observed)) and observed[-1] == second
        assert len(observed) == 5 and observed[0] > first
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

    def test_placements_share_one_entry(self, sf001):
        """Exchanges are left out of the key: a query run in one mode
        serves every later mode from its entries, reporting what a cold
        session in that mode reports."""
        queries = ("Q1", "Q5", "Q6", "Q9")
        plans = {name: build_query(name, sf001).plan for name in queries}
        session = _tpch_session(sf001)
        for name in queries:
            session.execute(plans[name], "cpu")
        entries = session.cache_stats.entries
        for mode in ("hybrid", "gpu"):
            cold = _tpch_session(sf001)
            for name in queries:
                reset_kernel_counts()
                warm = session.execute(plans[name], mode)
                assert kernel_counts() == {}, (name, mode)
                assert warm.cache.misses == 0
                assert warm.morsels_dispatched == 0
                assert _report(warm) == _report(
                    cold.execute(plans[name], mode)), (name, mode)
        assert session.cache_stats.entries == entries

    def test_a_partitioned_join_keeps_its_tuning_apart(self, sf001):
        """A partitioned join is lowered per device (`radix-cpu` /
        `radix-gpu`, each record written with its device's pass plan):
        the gpu placement evaluates its partitioned joins again."""
        options = {"optimizer_options": OptimizerOptions(small_build_rows=500)}
        plan = build_query("Q5", sf001).plan
        session = _tpch_session(sf001, **options)
        session.execute(plan, "cpu")
        reset_kernel_counts()
        gpu = session.execute(plan, "gpu")
        radix = sum(getattr(node, "algorithm", None) is JoinAlgorithm.RADIX_GPU
                    for node in gpu.physical_plan.walk())
        assert radix and kernel_counts()["gpu_partitioned_join"] == radix
        assert gpu.cache.misses and gpu.cache.hits
        cold = _tpch_session(sf001, **options).execute(plan, "gpu")
        assert _report(gpu) == _report(cold)

    def test_a_gpu_join_that_no_longer_fits_is_refused_over_a_warm_entry(
            self, sf001):
        """The capacity check runs before the cache lookup, so the cpu
        placement's entries cannot carry a gpu placement past it."""
        plan = build_query("Q9", sf001).plan
        refusals = []
        for warm in (False, True):
            session = _tpch_session(sf001)
            lowered = session.plan(plan, "gpu")  # lowered while it fits
            if warm:
                session.execute(plan, "cpu")
            for gpu in session.topology.gpus():
                gpu.shrink_memory(2e-5)
            reset_kernel_counts()
            with pytest.raises(OutOfDeviceMemoryError) as refused:
                session.executor.execute(lowered)
            refusals.append((str(refused.value), kernel_counts()))
        (cold_refusal, cold_kernels), (warm_refusal, warm_kernels) = refusals
        assert warm_refusal == cold_refusal
        # Cold, the inputs below the join were evaluated; warm, every one
        # was served, and the join was refused all the same.
        assert cold_kernels and warm_kernels == {}

    # The whole-suite warm-vs-cold TPC-H identity sweep (outputs,
    # simulated seconds and stats records bit-identical for every query ×
    # mode) lives in the configuration matrix of tests/test_invariants.py,
    # crossed with morsel sizes.


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
