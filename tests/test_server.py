"""Tests for the multi-tenant serving subsystem (:mod:`repro.server`).

Covers the serving contracts of ``docs/SERVING.md``:

* interleaved multi-tenant runs are functionally identical (bit-for-bit
  tables, bit-identical per-query simulated seconds) to serial
  single-session runs;
* shared-cache semantics: cross-tenant reuse, exact invalidation on
  ``register(replace=True)`` / ``drop`` under concurrent queries,
  tenant-tagged attribution, and the server's ownership of the knobs;
* admission control: bounded-queue backpressure, per-tenant memory
  budgets and concurrency limits, priority classes, round-robin fairness;
* the device-aware scheduler: CPU/GPU streams overlap, hybrid queries
  reserve both device kinds, occupancy epochs reset per ``run()``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import HAPEEngine
from repro.errors import (
    AdmissionError,
    ServingError,
    UnknownTenantError,
)
from repro.hardware import default_server
from repro.relational import agg_count, agg_sum, col, lit, scan
from repro.server import (
    Arrival,
    DeviceScheduler,
    QueryServer,
    TenantPolicy,
)
from repro.operators import kernel_counts, reset_kernel_counts
from repro.server.server import percentile
from repro.storage import Table, generate_tpch
from repro.workloads import all_queries, build_query


def _table_bytes(result_table) -> tuple:
    return tuple(sorted(
        (name, result_table.array(name).tobytes(),
         str(result_table.array(name).dtype))
        for name in result_table.column_names))


@pytest.fixture
def tpch_server(tpch_dataset):
    server = QueryServer(default_server())
    server.register_dataset(tpch_dataset.tables)
    return server


def _small_tables(seed: int = 5) -> dict[str, Table]:
    rng = np.random.default_rng(seed)
    return {
        "tx": Table.from_arrays("tx", {
            "xk": rng.integers(0, 5, 64, dtype=np.int64),
            "xv": rng.integers(0, 100, 64, dtype=np.int64),
        }),
        "ty": Table.from_arrays("ty", {
            "yk": rng.integers(0, 5, 48, dtype=np.int64),
            "yv": rng.integers(0, 100, 48, dtype=np.int64),
        }),
    }


def _plan_x():
    return (scan("tx").filter(col("xv") < lit(90))
            .aggregate(["xk"], [agg_count("cnt"), agg_sum(col("xv"), "s")]))


def _plan_y():
    return (scan("ty")
            .aggregate(["yk"], [agg_count("cnt"), agg_sum(col("yv"), "s")]))


# ----------------------------------------------------------------------
# Serving is functionally identical to serial single-session execution
# ----------------------------------------------------------------------
class TestServedResultsIdentity:
    def test_interleaved_runs_identical_to_serial(self, tpch_dataset,
                                                  tpch_server):
        queries = all_queries(tpch_dataset)
        submissions = []
        for tenant, mode in (("alpha", "cpu"), ("beta", "gpu"),
                             ("gamma", "hybrid")):
            tpch_server.open_session(tenant)
            for name, query in queries.items():
                ticket = tpch_server.submit(tenant, query.plan, mode,
                                            label=f"{name}/{mode}")
                submissions.append((ticket, query.plan, mode))
        report = tpch_server.run()
        assert report.completed == len(submissions)

        # A fresh serial session (private catalog and cache) must produce
        # bit-identical tables and simulated seconds for every query.
        serial = HAPEEngine(default_server())
        serial.register_dataset(tpch_dataset.tables)
        for ticket, plan, mode in submissions:
            solo = serial.execute(plan, mode)
            assert ticket.status == "completed"
            assert ticket.result.simulated_seconds == solo.simulated_seconds
            assert ticket.result.device_busy == solo.device_busy
            assert _table_bytes(ticket.result.table) == \
                _table_bytes(solo.table)

    def test_shared_cache_serves_second_tenant_warm(self, tpch_dataset,
                                                    tpch_server):
        queries = all_queries(tpch_dataset)
        plan = queries["Q1"].plan
        tpch_server.submit("cold-tenant", plan, "cpu")
        tpch_server.submit("warm-tenant", plan, "cpu")
        report = tpch_server.run()
        cold, warm = report.tickets
        assert cold.tenant == "cold-tenant" and cold.cache.misses > 0
        assert warm.tenant == "warm-tenant"
        assert warm.cache.misses == 0 and warm.cache.hits > 0
        # One miss per shared subplan for the first tenant, one hit each
        # for the second.
        assert warm.cache.hits == cold.cache.misses
        counters = tpch_server.query_cache.tenant_counters()
        assert counters["warm-tenant"].misses == 0
        assert counters["warm-tenant"].hits == warm.cache.hits

    def test_cache_budget_means_the_same_as_on_a_session(self):
        """``None`` is "unlimited" on the server too, not "the default"."""
        from repro.engine import DEFAULT_CACHE_BUDGET_BYTES

        default = QueryServer(default_server())
        assert default.query_cache.budget_bytes == DEFAULT_CACHE_BUDGET_BYTES
        unlimited = QueryServer(default_server(), cache_budget_bytes=None)
        assert unlimited.query_cache.budget_bytes is None
        assert unlimited.open_session("t").cache_budget_bytes is None
        assert not QueryServer(default_server(),
                               cache_budget_bytes=0).query_cache.enabled

    def test_a_dropped_server_is_freed_without_the_cycle_collector(
            self, tpch_dataset):
        """A served epoch pins results, tables and the shared cache: a
        reference cycle through the server would keep all of it resident
        until the next gc pass (it showed as +40% peak RSS on the
        serving benchmark)."""
        import gc
        import weakref

        server = QueryServer(default_server(), tracing=True)
        server.register_dataset(tpch_dataset.tables)
        server.submit("t", all_queries(tpch_dataset)["Q6"].plan, "cpu")
        server.run()
        alive = weakref.ref(server)
        gc.disable()
        try:
            del server
            assert alive() is None
        finally:
            gc.enable()

    def test_shared_cache_requires_shared_catalog(self, tpch_server):
        # A shared cache with a private catalog would collide catalog
        # version counters across sessions (cross-catalog poisoning).
        with pytest.raises(ValueError, match="shared catalog"):
            HAPEEngine(default_server(),
                       query_cache=tpch_server.query_cache)

    def test_peak_intermediate_bytes_reported(self, tpch_dataset,
                                              tpch_server):
        queries = all_queries(tpch_dataset)
        tpch_server.submit("tenant", queries["Q5"].plan, "cpu")
        report = tpch_server.run()
        assert report.tickets[0].result.peak_intermediate_bytes > 0
        assert report.tenants["tenant"].peak_intermediate_bytes > 0


# ----------------------------------------------------------------------
# Shared-cache invalidation under concurrent queries
# ----------------------------------------------------------------------
class TestSharedCacheInvalidation:
    def test_replace_invalidates_exactly_under_concurrency(self):
        server = QueryServer(default_server())
        tables = _small_tables()
        server.register_dataset(tables)
        for tenant in ("a", "b"):
            server.open_session(tenant)
            server.submit(tenant, _plan_x(), "cpu")
            server.submit(tenant, _plan_y(), "cpu")
        server.run()  # warm both plans for both tenants

        # Replace tx: exactly the entries reading tx must be discarded.
        rng = np.random.default_rng(99)
        replacement = Table.from_arrays("tx", {
            "xk": rng.integers(0, 5, 32, dtype=np.int64),
            "xv": rng.integers(0, 100, 32, dtype=np.int64),
        })
        server.register_table(replacement, replace=True)
        assert server.query_cache.stats().invalidated > 0

        for tenant in ("a", "b"):
            server.submit(tenant, _plan_x(), "cpu", label="x")
            server.submit(tenant, _plan_y(), "cpu", label="y")
        report = server.run()
        for ticket in report.tickets:
            if ticket.label == "y":
                # Untouched table: still fully warm for every tenant.
                assert ticket.cache.misses == 0
        first_x = next(t for t in report.tickets if t.label == "x")
        assert first_x.cache.misses > 0  # recomputed against new data

        # Correctness of the recomputed result against a fresh engine.
        check = HAPEEngine(default_server())
        check.register_table(replacement)
        expected = check.execute(_plan_x(), "cpu")
        assert _table_bytes(first_x.result.table) == \
            _table_bytes(expected.table)

    def test_drop_invalidates_shared_entries(self):
        server = QueryServer(default_server())
        server.register_dataset(_small_tables())
        server.submit("a", _plan_y(), "cpu")
        server.run()
        before = server.query_cache.stats().invalidated
        server.drop_table("ty")
        assert server.query_cache.stats().invalidated > before


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class TestAdmission:
    def test_bounded_queue_backpressure(self):
        server = QueryServer(default_server())
        server.register_dataset(_small_tables())
        server.open_session("t", max_queue_depth=2)
        server.submit("t", _plan_x(), "cpu")
        server.submit("t", _plan_x(), "cpu")
        with pytest.raises(AdmissionError, match="backpressure"):
            server.submit("t", _plan_x(), "cpu")
        report = server.run()
        assert report.completed == 2
        assert report.rejected == 1
        assert report.tenants["t"].rejected == 1
        statuses = [ticket.status for ticket in report.tickets]
        assert statuses.count("rejected") == 1

    def test_oversized_query_rejected_at_submit(self):
        server = QueryServer(default_server())
        server.register_dataset(_small_tables())
        server.open_session("t", memory_budget_bytes=8)
        with pytest.raises(AdmissionError, match="byte tenant budget"):
            server.submit("t", _plan_x(), "cpu")

    def test_memory_budget_serializes_in_flight_queries(self):
        server = QueryServer(default_server())
        tables = _small_tables()
        server.register_dataset(tables)
        estimate = tables["tx"].nbytes
        # Concurrency would allow both, but the budget holds one at a time.
        server.open_session("t", max_concurrency=4,
                            memory_budget_bytes=int(estimate * 1.5))
        first = server.submit("t", _plan_x(), "cpu")
        second = server.submit("t", scan("tx").filter(col("xv") < lit(50))
                               .aggregate([], [agg_count("c")]), "cpu")
        server.run()
        assert second.start_time >= first.finish_time
        assert second.queue_wait > 0

    def test_default_concurrency_is_closed_loop(self):
        server = QueryServer(default_server())
        server.register_dataset(_small_tables())
        first = server.submit("t", _plan_x(), "cpu")
        second = server.submit("t", _plan_y(), "cpu")
        server.run()
        # max_concurrency=1: the second query starts only after the first
        # finishes, even though it uses the same idle-at-t=0 devices.
        assert second.start_time >= first.finish_time

    def test_future_submit_time_delays_start(self):
        server = QueryServer(default_server())
        server.register_dataset(_small_tables())
        late = server.submit("t", _plan_x(), "cpu", at=1.0)
        server.run()
        assert late.start_time >= 1.0
        assert late.queue_wait == late.start_time - 1.0

    def test_a_queued_ticket_times_out_at_its_deadline(self):
        """A Q9 queued behind another Q9 at concurrency 1, whose deadline
        passes while it waits, ends at that deadline (85.75 us), not
        when the Q9 ahead of it finishes (171.50 us)."""
        dataset = generate_tpch(0.005, seed=2019)
        plan = build_query("Q9", dataset).plan
        server = QueryServer(default_server())
        server.register_dataset(dataset.tables)
        server.open_session("t", max_concurrency=1)
        first = server.submit("t", plan, "cpu")
        quarter = 0.00017150039994684856 / 4  # Q9 cpu's solo seconds / 4
        second = server.submit("t", plan, "cpu", at=quarter, deadline=quarter)
        server.run()
        assert first.status == "completed"
        assert round(first.finish_time * 1e6, 2) == 171.50
        assert second.status == "timed_out" and second.attempts == 0
        assert second.finish_time == second.deadline_time
        assert round(second.finish_time * 1e6, 2) == 85.75
        assert server.admission.queue_depth("t") == 0

    def test_unknown_tenant_and_duplicate_open(self):
        server = QueryServer(default_server())
        with pytest.raises(UnknownTenantError):
            server.session("ghost")
        server.open_session("t")
        with pytest.raises(ServingError, match="already open"):
            server.open_session("t")

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="priority"):
            TenantPolicy(priority="vip")
        with pytest.raises(ValueError, match="max_concurrency"):
            TenantPolicy(max_concurrency=0)
        with pytest.raises(ValueError, match="max_queue_depth"):
            TenantPolicy(max_queue_depth=0)
        with pytest.raises(ValueError, match="memory_budget_bytes"):
            TenantPolicy(memory_budget_bytes=-1)


# ----------------------------------------------------------------------
# Deadlines of queued tickets: each ends at its own deadline
# ----------------------------------------------------------------------
#: Q9 cpu's solo simulated seconds at SF 0.005, seed 2019 (171.50 us).
Q9_CPU_SECONDS = 0.00017150039994684856
QUARTER = Q9_CPU_SECONDS / 4


@pytest.fixture(scope="module")
def q9_sf0005():
    dataset = generate_tpch(0.005, seed=2019)
    return dataset, build_query("Q9", dataset).plan


class TestQueuedDeadlines:
    """One tenant at concurrency 1 runs a Q9 from 0 to 171.50 us; what is
    submitted behind it waits in the queue."""

    @staticmethod
    def _busy_server(q9_sf0005, *, tracing=False):
        dataset, plan = q9_sf0005
        server = QueryServer(default_server(), tracing=tracing)
        server.register_dataset(dataset.tables)
        server.open_session("t", max_concurrency=1)
        first = server.submit("t", plan, "cpu", label="first")
        return server, plan, first

    def test_queued_tickets_time_out_in_deadline_order(self, q9_sf0005):
        server, plan, first = self._busy_server(q9_sf0005, tracing=True)
        waiting = [server.submit("t", plan, "cpu", label=f"w{index}",
                                 at=QUARTER, deadline=quarters * QUARTER)
                   for index, quarters in enumerate((1.5, 0.5, 2.5))]
        server.run()
        assert first.status == "completed"
        assert first.finish_time == pytest.approx(Q9_CPU_SECONDS)
        for ticket in waiting:
            assert ticket.status == "timed_out" and ticket.attempts == 0
            assert ticket.finish_time == ticket.deadline_time
            assert ticket.finish_time < first.finish_time
        timeouts = [(event.at, event.attrs["ticket"])
                    for event in server.last_trace.events
                    if event.kind == "timeout"]
        assert timeouts == sorted(
            (ticket.deadline_time, ticket.ticket_id) for ticket in waiting)
        assert [ticket_id for _, ticket_id in timeouts] == [
            waiting[1].ticket_id, waiting[0].ticket_id, waiting[2].ticket_id]

    def test_a_queued_timeout_is_a_submit_then_a_timeout(self, q9_sf0005):
        server, plan, _ = self._busy_server(q9_sf0005, tracing=True)
        late = server.submit("t", plan, "cpu", at=QUARTER, deadline=QUARTER)
        server.run()
        events = [event for event in server.last_trace.events
                  if event.attrs.get("ticket") == late.ticket_id]
        assert [event.kind for event in events] == ["submit", "timeout"]
        assert events[-1].at == late.deadline_time == 2 * QUARTER

    def test_a_deadline_that_outlasts_the_wait_runs_the_ticket(self,
                                                               q9_sf0005):
        server, plan, first = self._busy_server(q9_sf0005)
        patient = server.submit("t", plan, "cpu", at=QUARTER,
                                deadline=8 * QUARTER)
        server.run()
        assert patient.status == "completed" and patient.attempts == 1
        assert patient.start_time == first.finish_time
        assert patient.finish_time <= patient.deadline_time

    def test_the_ticket_behind_an_expired_one_waits_only_for_the_slot(
            self, q9_sf0005):
        server, plan, first = self._busy_server(q9_sf0005)
        expired = server.submit("t", plan, "cpu", at=QUARTER,
                                deadline=QUARTER)
        behind = server.submit("t", plan, "cpu", at=QUARTER)
        report = server.run()
        assert expired.status == "timed_out"
        assert expired.finish_time == 2 * QUARTER
        assert behind.status == "completed"
        assert behind.start_time == first.finish_time
        assert report.completed == 2
        assert server.admission.queue_depth("t") == 0

    def test_an_admitted_ticket_the_board_holds_past_its_deadline_ends_there(
            self, q9_sf0005):
        """Another tenant's ticket is admitted at once, but the CPUs it
        needs are busy until 171.50 us: it reserves nothing and ends at
        its deadline (85.75 us), not when the CPUs free."""
        server, plan, first = self._busy_server(q9_sf0005, tracing=True)
        server.open_session("u", max_concurrency=1)
        blocked = server.submit("u", plan, "cpu", at=QUARTER,
                                deadline=QUARTER)
        server.run()
        assert first.status == "completed"
        assert blocked.status == "timed_out" and blocked.attempts == 1
        assert blocked.finish_time == blocked.deadline_time
        assert round(blocked.finish_time * 1e6, 2) == 85.75
        assert blocked.wasted_seconds == 0.0
        kinds = [event.kind for event in server.last_trace.events
                 if event.attrs.get("ticket") == blocked.ticket_id]
        assert kinds == ["submit", "admit", "timeout"]
        assert not [record for record in server.topology.occupancy.records()
                    if record.label.startswith("u:")]

    def test_an_expiry_that_uncovers_an_admissible_head_dispatches_it(
            self, q9_sf0005):
        """The budget holds a Q9 and a Q6: A (Q9) waits behind the running
        Q9, B (Q6 gpu) behind A.  A expires at a quarter, which leaves B
        at the head, within the budget and needing no device the running
        Q9 holds: B starts then, not when that Q9 finishes."""
        dataset, plan = q9_sf0005
        q6 = build_query("Q6", dataset).plan
        probe = HAPEEngine(default_server())
        probe.register_dataset(dataset.tables)
        sizes = [probe.working_set(query) for query in (plan, q6)]
        assert all(size.backed for size in sizes)
        server = QueryServer(default_server())
        server.register_dataset(dataset.tables)
        server.open_session("t", max_concurrency=3, memory_budget_bytes=sum(
            int(size.total_bytes) for size in sizes))
        running = server.submit("t", plan, "cpu")
        expired = server.submit("t", plan, "cpu", deadline=QUARTER)
        behind = server.submit("t", q6, "gpu")
        server.run()
        assert running.start_time == 0.0
        assert running.finish_time == pytest.approx(Q9_CPU_SECONDS)
        assert expired.status == "timed_out" and expired.attempts == 0
        assert expired.finish_time == QUARTER
        assert behind.status == "completed" and behind.start_time == QUARTER

    def test_an_open_loop_arrival_times_out_in_its_queue(self, q9_sf0005):
        server, plan, _ = self._busy_server(q9_sf0005)
        server.add_arrivals([Arrival(at=QUARTER, tenant="t", plan=plan,
                                     mode="cpu", label="late",
                                     deadline=QUARTER)])
        report = server.run()
        late = next(ticket for ticket in report.tickets
                    if ticket.label == "late")
        assert late.status == "timed_out" and late.attempts == 0
        assert round(late.finish_time * 1e6, 2) == 85.75


# ----------------------------------------------------------------------
# Fairness and priority classes
# ----------------------------------------------------------------------
class TestFairnessAndPriority:
    def test_equal_priority_round_robin(self):
        server = QueryServer(default_server())
        server.register_dataset(_small_tables())
        for tenant in ("a", "b"):
            server.open_session(tenant, max_concurrency=3)
            for _ in range(3):
                server.submit(tenant, _plan_x(), "cpu")
        report = server.run()
        ordered = sorted((t for t in report.tickets
                          if t.status == "completed"),
                         key=lambda t: (t.start_time, t.ticket_id))
        assert [t.tenant for t in ordered] == ["a", "b", "a", "b", "a", "b"]

    def test_interactive_class_preempts_batch_queue(self):
        server = QueryServer(default_server())
        server.register_dataset(_small_tables())
        server.open_session("bg", priority="batch", max_concurrency=2)
        server.open_session("fg", priority="interactive", max_concurrency=2)
        # Batch submits first, but interactive dispatches first.
        bg = [server.submit("bg", _plan_x(), "cpu") for _ in range(2)]
        fg = [server.submit("fg", _plan_y(), "cpu") for _ in range(2)]
        server.run()
        assert max(t.start_time for t in fg) <= \
            min(t.start_time for t in bg)


# ----------------------------------------------------------------------
# Device-aware scheduling on the occupancy board
# ----------------------------------------------------------------------
class TestDeviceScheduler:
    def test_cpu_and_gpu_streams_overlap(self, tpch_dataset, tpch_server):
        queries = all_queries(tpch_dataset)
        for tenant, mode in (("cpu-a", "cpu"), ("gpu-a", "gpu"),
                             ("cpu-b", "cpu"), ("gpu-b", "gpu")):
            tpch_server.open_session(tenant)
            for name, query in queries.items():
                tpch_server.submit(tenant, query.plan, mode)
        report = tpch_server.run()
        # The mixed workload must overlap: device-disjoint streams make
        # the server strictly faster than serial submission.
        assert report.makespan < report.serial_seconds
        assert report.speedup_vs_serial > 1.5
        cpu_reserved = set().union(*(t.reserved for t in report.tickets
                                     if t.mode == "cpu"))
        gpu_reserved = set().union(*(t.reserved for t in report.tickets
                                     if t.mode == "gpu"))
        # CPU-mode queries reserve only CPUs; GPU-mode queries are
        # GPU/PCIe-bound (they may also reserve a CPU when, at tiny scale,
        # its busy share clears the occupancy threshold — the cost model
        # decides, not the mode label).
        assert cpu_reserved and all(name.startswith("cpu")
                                    for name in cpu_reserved)
        assert any(name.startswith(("gpu", "pcie"))
                   for name in gpu_reserved)

    def test_hybrid_queries_reserve_both_kinds(self, tpch_dataset,
                                               tpch_server):
        queries = all_queries(tpch_dataset)
        tpch_server.submit("t", queries["Q5"].plan, "hybrid")
        report = tpch_server.run()
        reserved = report.tickets[0].reserved
        assert any(name.startswith("cpu") for name in reserved)
        assert any(name.startswith("gpu") for name in reserved)

    def test_each_run_is_a_fresh_occupancy_epoch(self, tpch_dataset,
                                                 tpch_server):
        plan = all_queries(tpch_dataset)["Q1"].plan
        tpch_server.submit("t", plan, "cpu")
        first = tpch_server.run().tickets[0]
        tpch_server.submit("t", plan, "cpu")
        second = tpch_server.run().tickets[0]
        assert first.start_time == 0.0
        assert second.start_time == 0.0
        assert first.finish_time == second.finish_time

    def test_occupancy_board_survives_engine_resets(self, tpch_dataset):
        # Engine executions reset per-query clocks; server-time occupancy
        # must not rewind with them.
        topology = default_server()
        engine = HAPEEngine(topology)
        engine.register_dataset(tpch_dataset.tables)
        topology.occupancy.reserve({"cpu0": 1.0}, label="standing")
        engine.execute(all_queries(tpch_dataset)["Q1"].plan, "cpu")
        assert topology.occupancy.clock("cpu0").available_at == 1.0

    def test_threshold_validation(self):
        with pytest.raises(ValueError, match="occupancy_threshold"):
            DeviceScheduler(default_server(), occupancy_threshold=1.5)

    def test_latency_accounting(self, tpch_dataset, tpch_server):
        queries = all_queries(tpch_dataset)
        for _ in range(2):
            tpch_server.submit("t", queries["Q1"].plan, "cpu")
        report = tpch_server.run()
        for ticket in report.tickets:
            assert ticket.latency == pytest.approx(
                ticket.queue_wait + ticket.result.simulated_seconds)
        assert report.percentile_latency(50) <= report.percentile_latency(99)
        assert "t:" in report.describe() or "t" in report.tenants


# ----------------------------------------------------------------------
# Statistics-backed admission (working-set estimates)
# ----------------------------------------------------------------------
class TestStatisticsAdmission:
    def test_selective_query_admitted_under_tight_budget(self, tpch_dataset):
        # The headline admission fix: a highly selective probe over the
        # biggest table charges only the working set it materializes, so
        # a budget far below the table's bytes admits it.  The legacy
        # full-referenced-table estimate would reject at submit.
        server = QueryServer(default_server())
        server.register_dataset(tpch_dataset.tables)
        lineitem_bytes = tpch_dataset.tables["lineitem"].nbytes
        budget = lineitem_bytes // 8
        server.open_session("t", memory_budget_bytes=budget)
        plan = (scan("lineitem")
                .filter(col("l_orderkey") == lit(1))
                .aggregate([], [agg_sum(col("l_extendedprice"), "s")]))
        ticket = server.submit("t", plan, "cpu")
        assert ticket.estimated_bytes < budget < lineitem_bytes
        report = server.run()
        assert ticket.status == "completed"
        assert report.completed == 1

    def test_unbacked_estimate_falls_back_to_table_bytes(self, tpch_dataset):
        # A predicate the estimator cannot resolve (computed left-hand
        # side) keeps the conservative legacy estimate: every referenced
        # table's full bytes.
        server = QueryServer(default_server())
        server.register_dataset(tpch_dataset.tables)
        plan = (scan("lineitem")
                .filter((col("l_quantity") + lit(0.0)) > lit(0.0))
                .aggregate([], [agg_count("c")]))
        ticket = server.submit("t", plan, "cpu")
        assert ticket.estimated_bytes == \
            tpch_dataset.tables["lineitem"].nbytes
        server.run()
        assert ticket.status == "completed"


# ----------------------------------------------------------------------
# Shared-cache attribution: each lookup counted as it happens
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sf001_plans():
    dataset = generate_tpch(0.01, seed=2019)
    return dataset, {name: build_query(name, dataset).plan
                     for name in ("Q1", "Q5", "Q6", "Q9")}


class TestSharedCacheAttribution:
    JOBS = (("alpha", "Q1"), ("beta", "Q1"), ("gamma", "Q1"),
            ("alpha", "Q5"), ("beta", "Q5"), ("gamma", "Q9"))

    def _run(self, tpch_dataset):
        queries = all_queries(tpch_dataset)
        server = QueryServer(default_server())
        server.register_dataset(tpch_dataset.tables)
        for tenant in ("alpha", "beta", "gamma"):
            server.open_session(tenant)
        tickets = [
            server.submit(tenant, queries[query].plan, "cpu",
                          label=f"{tenant}:{query}:{index}")
            for index, (tenant, query) in enumerate(self.JOBS)]
        report = server.run()
        return server, report, tickets

    def test_counters_reconcile_exactly(self, tpch_dataset):
        server, report, tickets = self._run(tpch_dataset)
        totals = server.query_cache.counters()
        per_tenant = server.query_cache.tenant_counters()
        # Global == sum over tenants, exactly.
        assert totals.hits == sum(c.hits for c in per_tenant.values())
        assert totals.misses == sum(c.misses for c in per_tenant.values())
        # Tenant == sum over its tickets' per-query deltas.
        for tenant in ("alpha", "beta", "gamma"):
            mine = [t for t in tickets if t.tenant == tenant]
            assert per_tenant[tenant].hits == sum(t.cache.hits for t in mine)
            assert per_tenant[tenant].misses == \
                sum(t.cache.misses for t in mine)
        # Overlapping workloads actually shared: the first Q1 paid the
        # misses, the later structurally identical submissions rode warm.
        assert totals.hits > 0 and totals.misses > 0
        # A tenant session executed directly, outside run(), moves the
        # global counters and is attributed to no tenant.
        server.session("alpha").execute(
            all_queries(tpch_dataset)["Q6"].plan, "cpu")
        assert server.query_cache.counters().lookups > totals.lookups
        assert server.query_cache.tenant_counters() == per_tenant

    def test_attribution_under_eviction_is_what_the_cache_did(self):
        """A 1 MiB shared budget evicts: tenant b re-misses what tenant a
        computed and the cache dropped, so the epoch counts the hits and
        misses a serial session counts for the same sequence, not the
        hits a never-evicting cache would have served."""
        dataset = generate_tpch(0.01, seed=2019)
        plans = {name: build_query(name, dataset).plan
                 for name in ("Q1", "Q5", "Q6", "Q9")}
        budget = 1 << 20
        server = QueryServer(default_server(), cache_budget_bytes=budget)
        server.register_dataset(dataset.tables)
        for tenant in ("a", "b"):
            server.open_session(tenant)
            for name, plan in plans.items():
                server.submit(tenant, plan, "cpu", label=name)
        reset_kernel_counts()
        report = server.run()
        served_kernels = sum(kernel_counts().values())
        served = server.query_cache.stats()
        serial = HAPEEngine(default_server(), cache_budget_bytes=budget)
        serial.register_dataset(dataset.tables)
        reset_kernel_counts()
        for _ in ("a", "b"):
            for plan in plans.values():
                serial.execute(plan, "cpu")
        alone = serial.cache_stats
        assert (served.hits, served.misses, served.evicted) == (29, 31, 4)
        assert (alone.hits, alone.misses, alone.evicted) == (29, 31, 4)
        assert served_kernels == sum(kernel_counts().values()) == 28
        assert sum(ticket.cache.hits for ticket in report.tickets) == 29
        assert sum(ticket.cache.misses for ticket in report.tickets) == 31

    @pytest.mark.parametrize("mode", ("cpu", "gpu", "hybrid"))
    @pytest.mark.parametrize("budget_mib", (1, 4, 16), ids="{}MiB".format)
    def test_an_epoch_counts_what_a_serial_session_counts(
            self, sf001_plans, budget_mib, mode):
        """Whatever the budget evicts, the epoch's hits, misses, evictions
        and kernel runs are those of one serial session executing the
        same queries in the server's admission order."""
        dataset, plans = sf001_plans
        budget = budget_mib << 20
        server = QueryServer(default_server(), cache_budget_bytes=budget,
                             tracing=True)
        server.register_dataset(dataset.tables)
        for tenant in ("a", "b"):
            server.open_session(tenant)
            for name, plan in plans.items():
                server.submit(tenant, plan, mode, label=name)
        reset_kernel_counts()
        report = server.run()
        served_kernels = sum(kernel_counts().values())
        served = server.query_cache.stats()
        by_id = {ticket.ticket_id: ticket for ticket in report.tickets}
        admitted = [by_id[event.attrs["ticket"]]
                    for event in server.last_trace.events
                    if event.kind == "admit"]
        assert len(admitted) == len(report.tickets) == report.completed

        serial = HAPEEngine(default_server(), cache_budget_bytes=budget)
        serial.register_dataset(dataset.tables)
        reset_kernel_counts()
        for ticket in admitted:
            serial.execute(ticket.plan, mode)
        alone = serial.cache_stats
        assert (served.hits, served.misses, served.evicted) == (
            alone.hits, alone.misses, alone.evicted)
        assert served_kernels == sum(kernel_counts().values())
        assert sum(ticket.cache.hits for ticket in report.tickets) == (
            served.hits)
        assert sum(ticket.cache.misses for ticket in report.tickets) == (
            served.misses)


# ----------------------------------------------------------------------
# Auto-mode placement (occupancy-aware)
# ----------------------------------------------------------------------
class TestAutoModePlacement:
    def test_least_loaded_kind_prefers_idle_silicon(self):
        topology = default_server()
        scheduler = DeviceScheduler(topology)
        from repro.hardware.specs import DeviceKind
        # Fresh board: tie goes to the CPUs.
        assert scheduler.least_loaded_kind() is DeviceKind.CPU
        topology.occupancy.reserve({"cpu0": 1.0, "cpu1": 1.0},
                                   label="standing")
        assert scheduler.least_loaded_kind() is DeviceKind.GPU
        topology.occupancy.reserve({"gpu0": 2.0, "gpu1": 2.0},
                                   label="standing")
        assert scheduler.least_loaded_kind() is DeviceKind.CPU

    def test_auto_mode_follows_the_occupancy_board(self, tpch_dataset):
        queries = all_queries(tpch_dataset)
        server = QueryServer(default_server())
        server.register_dataset(tpch_dataset.tables)
        server.open_session("t")  # max_concurrency=1: sequential picks
        first = server.submit("t", queries["Q6"].plan, "auto")
        second = server.submit("t", queries["Q6"].plan, "auto")
        report = server.run()
        assert report.completed == 2
        # Fresh board -> CPU; after the first reserved the CPUs, the
        # GPUs are the less-loaded kind for the second pick.
        assert first.final_mode == "cpu"
        assert second.final_mode == "gpu"

    def test_auto_mode_coprocesses_oversized_working_sets(self, tpch_dataset):
        from repro.hardware.specs import gtx_1080
        tiny_gpu = gtx_1080().with_memory_capacity(64 * 1024)
        server = QueryServer(default_server(gpu_spec=tiny_gpu))
        server.register_dataset(tpch_dataset.tables)
        plan = (scan("orders")
                .join(scan("lineitem", ["l_orderkey", "l_extendedprice"]),
                      ["o_orderkey"], ["l_orderkey"])
                .aggregate([], [agg_sum(col("l_extendedprice"), "s")]))
        ticket = server.submit("t", plan, "auto")
        server.run()
        assert ticket.status == "completed"
        assert ticket.final_mode in ("hybrid", "cpu")
        assert ticket.mode == "auto"  # the requested mode is preserved


# ----------------------------------------------------------------------
# Latency percentiles
# ----------------------------------------------------------------------
class TestPercentile:
    """The reports' pure-Python percentile is ``np.percentile``'s linear
    interpolation, bit for bit."""

    @given(values=st.lists(
        st.one_of(st.floats(1e-9, 1e3),
                  st.sampled_from([1e-9, 0.5, 1.0, 1e3])),
        min_size=1, max_size=300),
        q=st.one_of(st.sampled_from([0.0, 50.0, 99.0, 100.0]),
                    st.floats(0.0, 100.0)))
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_matches_numpy_bit_for_bit(self, values, q):
        expected = float(np.percentile(np.asarray(values), q))
        assert percentile(values, q).hex() == expected.hex()

    def test_no_values_read_zero(self):
        assert percentile([], 99) == 0.0
