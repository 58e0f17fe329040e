"""Open-loop serving: live arrivals, preemption, aging, SLOs, metrics.

Pins the contracts of the open-loop serving layer (``docs/SERVING.md``):

* seeded Poisson / trace arrival streams replay deterministically — the
  same seed reproduces the entire :class:`ServerReport` bit for bit;
* interleaved open-loop runs keep per-query simulated seconds (and
  result tables) bit-identical to solo single-session runs — arrivals,
  preemption and aging may only add queue wait;
* an interactive arrival preempts a running batch attempt at a morsel
  boundary: the victim's reservation tail is released at the kill
  instant (the scheduler regression of this PR), the partial busy time
  is charged via the ``dispatch(fraction=)`` accounting, and the
  re-executed query returns a bit-identical table;
* drain-style submission through the open-loop path (all arrivals at
  t=0, preemption off) is provably the PR 5-era ``run()`` special case;
* a batch tenant under a 10:1 interactive flood still makes progress —
  aging bounds its exposure to preemption;
* per-tenant SLOs are graded on the report and exported through the
  Prometheus/JSON metrics snapshot.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.engine import HAPEEngine
from repro.errors import ServingError
from repro.faults import FaultPlan
from repro.hardware import default_server
from repro.obs import TraceEvent, Tracer, dumps_line
from repro.server import (
    Arrival,
    DeviceScheduler,
    QueryServer,
    poisson_arrivals,
    trace_arrivals,
)
from repro.storage import generate_tpch
from repro.workloads import EVALUATED_QUERIES, build_query

MODES = ("cpu", "gpu", "hybrid")


def _table_bytes(table) -> tuple:
    return tuple(sorted(
        (name, table.array(name).tobytes(), str(table.array(name).dtype))
        for name in table.column_names))


def _solo_records(tpch_dataset) -> dict[tuple[str, str], tuple]:
    """Per-(query, mode) solo fingerprints from a private cold engine."""
    engine = HAPEEngine(default_server(), cache_budget_bytes=0)
    engine.register_dataset(tpch_dataset.tables)
    records = {}
    for query_name in EVALUATED_QUERIES:
        plan = build_query(query_name, tpch_dataset).plan
        for mode in MODES:
            result = engine.execute(plan, mode)
            records[(query_name, mode)] = (
                result.simulated_seconds,
                _table_bytes(result.table),
                tuple(sorted(result.device_busy.items())),
                tuple(sorted(result.link_bytes.items())),
            )
    return records


def _fingerprint(report) -> tuple:
    """Everything a replayed epoch must reproduce bit for bit."""
    return (
        report.makespan,
        report.serial_seconds,
        tuple((t.ticket_id, t.tenant, t.label, t.status, t.mode,
               t.final_mode, t.submit_time, t.start_time, t.finish_time,
               t.attempts, t.retries, t.failovers, t.preemptions,
               t.wasted_seconds, t.simulated_seconds,
               None if t.result is None else _table_bytes(t.result.table),
               (t.cache.hits, t.cache.misses, t.cache.evicted,
                t.cache.invalidated))
              for t in report.tickets),
        tuple(sorted(
            (name, rep.completed, rep.rejected, rep.failed, rep.timed_out,
             rep.preemptions, rep.queue_wait_seconds, rep.simulated_seconds,
             tuple(rep.latencies), rep.slo_p99_seconds, rep.slo_met)
            for name, rep in report.tenants.items())),
        (report.cache.hits, report.cache.misses, report.cache.evicted,
         report.cache.invalidated, report.cache.entries,
         report.cache.bytes_used),
    )


def _open_loop_server(tpch_dataset, *, seed: int,
                      preemption: bool = True) -> QueryServer:
    """A 3-tenant open-loop server: Poisson interactive + traced batch."""
    server = QueryServer(default_server(), preemption=preemption,
                         aging_seconds=2e-4)
    server.register_dataset(tpch_dataset.tables)
    server.open_session("inter", priority="interactive", max_concurrency=2,
                        slo_p99_seconds=0.05)
    server.open_session("norm", priority="normal", max_concurrency=2)
    server.open_session("batch", priority="batch", max_concurrency=2)
    plans = {q: build_query(q, tpch_dataset).plan for q in EVALUATED_QUERIES}
    server.add_arrivals(poisson_arrivals(
        "inter", [plans["Q1"], plans["Q6"]], rate_qps=20_000.0, count=6,
        seed=seed, mode="cpu"))
    server.add_arrivals(poisson_arrivals(
        "norm", [plans["Q5"]], rate_qps=10_000.0, count=3, seed=seed + 1,
        mode="gpu"))
    server.add_arrivals(trace_arrivals(
        "batch", [(0.0, plans["Q9"]), (5e-5, plans["Q5"])], mode="hybrid"))
    return server


# ----------------------------------------------------------------------
# Arrival sources
# ----------------------------------------------------------------------
class TestArrivalSources:
    def test_poisson_is_seed_deterministic(self):
        a = poisson_arrivals("t", ["p"], rate_qps=100.0, count=16, seed=7)
        b = poisson_arrivals("t", ["p"], rate_qps=100.0, count=16, seed=7)
        assert [x.at for x in a] == [y.at for y in b]
        c = poisson_arrivals("t", ["p"], rate_qps=100.0, count=16, seed=8)
        assert [x.at for x in a] != [y.at for y in c]

    def test_poisson_times_are_ordered_and_round_robin(self):
        source = poisson_arrivals("t", ["p0", "p1"], rate_qps=50.0,
                                  count=5, seed=3, start=1.0)
        assert len(source) == 5
        times = [arrival.at for arrival in source]
        assert times == sorted(times)
        assert all(at > 1.0 for at in times)
        assert [arrival.plan for arrival in source] == [
            "p0", "p1", "p0", "p1", "p0"]

    def test_poisson_validation(self):
        with pytest.raises(ValueError):
            poisson_arrivals("t", ["p"], rate_qps=0.0, count=1, seed=1)
        with pytest.raises(ValueError):
            poisson_arrivals("t", ["p"], rate_qps=1.0, count=-1, seed=1)
        with pytest.raises(ValueError):
            poisson_arrivals("t", [], rate_qps=1.0, count=2, seed=1)
        with pytest.raises(ValueError):
            poisson_arrivals("t", ["p"], rate_qps=1.0, count=1, seed=1,
                             start=-0.5)

    def test_trace_rejects_out_of_order_and_bad_entries(self):
        with pytest.raises(ServingError):
            trace_arrivals("t", [(1.0, "a"), (0.5, "b")])
        with pytest.raises(ServingError):
            trace_arrivals("t", [(1.0,)])
        with pytest.raises(ValueError):
            Arrival(at=-1.0, tenant="t", plan="p")

    def test_trace_accepts_per_entry_modes(self):
        source = trace_arrivals("t", [(0.0, "a"), (0.5, "b", "cpu")],
                                mode="gpu")
        assert [arrival.mode for arrival in source] == ["gpu", "cpu"]

    def test_callable_plans_resolve_at_submit(self):
        calls = []

        def build():
            calls.append(1)
            return "the-plan"

        arrival = Arrival(at=0.0, tenant="t", plan=build)
        assert not calls
        assert arrival.resolve_plan() == "the-plan"
        assert calls == [1]



# ----------------------------------------------------------------------
# Determinism: seeded replay and solo identity
# ----------------------------------------------------------------------
class TestOpenLoopDeterminism:
    def test_same_seed_reproduces_the_report_exactly(self, tpch_dataset):
        first = _open_loop_server(tpch_dataset, seed=11).run()
        second = _open_loop_server(tpch_dataset, seed=11).run()
        assert _fingerprint(first) == _fingerprint(second)
        assert first.completed == len(first.tickets) > 0

    def test_different_seed_changes_the_schedule(self, tpch_dataset):
        first = _open_loop_server(tpch_dataset, seed=11).run()
        second = _open_loop_server(tpch_dataset, seed=12).run()
        assert _fingerprint(first) != _fingerprint(second)

    def test_open_loop_matches_solo_runs_bit_for_bit(self, tpch_dataset):
        """Arrivals, preemption and aging only ever add queue wait."""
        solo = _solo_records(tpch_dataset)
        plans = {q: build_query(q, tpch_dataset).plan
                 for q in EVALUATED_QUERIES}
        by_label = {}
        server = QueryServer(default_server(), preemption=True,
                             aging_seconds=2e-4)
        server.register_dataset(tpch_dataset.tables)
        server.open_session("inter", priority="interactive",
                            max_concurrency=2)
        server.open_session("batch", priority="batch", max_concurrency=2)
        arrivals = []
        rng = np.random.default_rng(29)
        at = 0.0
        for index in range(8):
            query = EVALUATED_QUERIES[index % len(EVALUATED_QUERIES)]
            mode = MODES[index % len(MODES)]
            label = f"i{index}:{query}/{mode}"
            by_label[label] = (query, mode)
            arrivals.append(Arrival(at=at, tenant="inter", plan=plans[query],
                                    mode=mode, label=label))
            at += float(rng.exponential(4e-5))
        server.add_arrivals(arrivals)
        batch = [(0.0, plans["Q9"], "cpu"), (0.0, plans["Q5"], "hybrid")]
        server.add_arrivals(trace_arrivals("batch", batch))
        for index, (_, _, mode) in enumerate(batch):
            by_label[f"batch-t{index + 1}"] = (
                ("Q9", "Q5")[index], mode)
        report = server.run()
        assert report.completed == len(report.tickets) == 10
        for ticket in report.tickets:
            query, mode = by_label[ticket.label]
            record = (
                ticket.result.simulated_seconds,
                _table_bytes(ticket.result.table),
                tuple(sorted(ticket.result.device_busy.items())),
                tuple(sorted(ticket.result.link_bytes.items())),
            )
            assert record == solo[(query, mode)], (
                f"{ticket.label}: served run diverged from the solo run")
            assert ticket.start_time >= ticket.submit_time
            assert ticket.finish_time == pytest.approx(
                ticket.start_time + ticket.result.simulated_seconds)


# ----------------------------------------------------------------------
# The PR 5 drain is a provable special case of the open-loop path
# ----------------------------------------------------------------------
class TestDrainStyleEquivalence:
    @pytest.mark.parametrize("budget", [None, 256 * 1024, 0],
                             ids=["shared", "evicting", "off"])
    def test_all_arrivals_at_zero_match_legacy_submit(self, tpch_dataset,
                                                      budget):
        plans = {q: build_query(q, tpch_dataset).plan
                 for q in EVALUATED_QUERIES}
        jobs = [("alpha", "Q1", "cpu"), ("beta", "Q5", "gpu"),
                ("alpha", "Q6", "hybrid"), ("gamma", "Q9", "cpu"),
                ("beta", "Q1", "hybrid"), ("gamma", "Q6", "gpu")]
        # Hit/miss counters are a pure function of the admission schedule
        # — with the shared cache whole, evicting or off — so the
        # fingerprint, cache counters included, matches exactly.
        knobs = {} if budget is None else {"cache_budget_bytes": budget}

        def build(server):
            server.register_dataset(tpch_dataset.tables)
            server.open_session("alpha", priority="interactive",
                                max_concurrency=2)
            server.open_session("beta", priority="normal")
            server.open_session("gamma", priority="batch")

        legacy = QueryServer(default_server(), **knobs)
        build(legacy)
        for tenant, query, mode in jobs:
            legacy.submit(tenant, plans[query], mode)
        legacy_report = legacy.run()

        open_loop = QueryServer(default_server(), preemption=False, **knobs)
        build(open_loop)
        open_loop.add_arrivals(
            Arrival(at=0.0, tenant=tenant, plan=plans[query], mode=mode)
            for tenant, query, mode in jobs)
        open_report = open_loop.run()

        assert _fingerprint(open_report) == _fingerprint(legacy_report)


# ----------------------------------------------------------------------
# Preemption
# ----------------------------------------------------------------------
class TestPreemption:
    @pytest.fixture
    def solo_q9_cpu(self, tpch_dataset):
        engine = HAPEEngine(default_server(), cache_budget_bytes=0)
        engine.register_dataset(tpch_dataset.tables)
        return engine.execute(build_query("Q9", tpch_dataset).plan, "cpu")

    def _preemption_server(self, tpch_dataset, *, arrival_fraction: float,
                           preemption: bool = True,
                           aging_seconds: float | None = 10.0):
        solo = HAPEEngine(default_server(), cache_budget_bytes=0)
        solo.register_dataset(tpch_dataset.tables)
        q9 = build_query("Q9", tpch_dataset).plan
        q6 = build_query("Q6", tpch_dataset).plan
        span = solo.execute(q9, "cpu").simulated_seconds
        server = QueryServer(default_server(), preemption=preemption,
                             aging_seconds=aging_seconds,
                             cache_budget_bytes=0)
        server.register_dataset(tpch_dataset.tables)
        server.open_session("batch", priority="batch")
        server.open_session("inter", priority="interactive")
        server.add_arrivals(trace_arrivals("batch", [(0.0, q9)], mode="cpu"))
        server.add_arrivals(trace_arrivals(
            "inter", [(span * arrival_fraction, q6)], mode="cpu"))
        return server, span

    def test_interactive_preempts_batch_at_morsel_boundary(
            self, tpch_dataset, solo_q9_cpu):
        server, span = self._preemption_server(tpch_dataset,
                                               arrival_fraction=0.4)
        report = server.run()
        assert report.completed == 2
        assert report.preemptions == 1
        batch = next(t for t in report.tickets if t.tenant == "batch")
        inter = next(t for t in report.tickets if t.tenant == "inter")
        # The victim was killed at the first morsel boundary at/after the
        # interactive arrival: 0.4 of the way in, 7 morsels -> 3/7.
        morsels = solo_q9_cpu.morsels_dispatched
        boundary = span * np.ceil(0.4 * morsels) / morsels
        assert batch.preemptions == 1
        assert batch.wasted_seconds == pytest.approx(boundary)
        # Scheduler regression: the reservation tail was released at the
        # kill instant — the interactive query starts there, well before
        # the victim's originally reserved end.
        assert inter.start_time == pytest.approx(boundary)
        assert inter.start_time < span
        # The preempted-then-resumed query is bit-identical to solo.
        assert batch.status == "completed"
        assert batch.result.simulated_seconds == solo_q9_cpu.simulated_seconds
        assert _table_bytes(batch.result.table) == _table_bytes(
            solo_q9_cpu.table)
        # Preemption consumed no retry budget.
        assert batch.attempts == 1
        assert batch.retries == 0

    def test_preemption_off_keeps_fifo_occupancy(self, tpch_dataset):
        server, span = self._preemption_server(tpch_dataset,
                                               arrival_fraction=0.4,
                                               preemption=False)
        report = server.run()
        assert report.preemptions == 0
        inter = next(t for t in report.tickets if t.tenant == "inter")
        # Without preemption the interactive query waits for the batch
        # query's full reserved span.
        assert inter.start_time >= span

    def test_aged_batch_victim_is_protected(self, tpch_dataset, solo_q9_cpu):
        # Aging so small the batch ticket ages to interactive rank long
        # before the arrival strikes: it can no longer be preempted.
        aging = solo_q9_cpu.simulated_seconds * 0.05
        server, span = self._preemption_server(tpch_dataset,
                                               arrival_fraction=0.4,
                                               aging_seconds=aging)
        report = server.run()
        assert report.preemptions == 0

    def test_preemption_charges_fraction_on_the_board(self, tpch_dataset):
        """The board keeps exactly the killed attempt's partial busy time."""
        server, span = self._preemption_server(tpch_dataset,
                                               arrival_fraction=0.4)
        report = server.run()
        batch = next(t for t in report.tickets if t.tenant == "batch")
        clock = server.topology.occupancy.clock("cpu0")
        labels = [r.label for r in clock.records]
        assert labels.count("batch:batch-t1") == 2
        killed = next(r for r in clock.records
                      if r.label == "batch:batch-t1")
        full_busy = batch.result.device_busy["cpu0"]
        fraction = batch.wasted_seconds / span
        assert killed.duration == pytest.approx(full_busy * fraction)


# ----------------------------------------------------------------------
# Aging under a sustained interactive flood
# ----------------------------------------------------------------------
class TestFloodAging:
    def _flood(self, tpch_dataset, *, aging_seconds):
        q9 = build_query("Q9", tpch_dataset).plan
        q6 = build_query("Q6", tpch_dataset).plan
        solo = HAPEEngine(default_server(), cache_budget_bytes=0)
        solo.register_dataset(tpch_dataset.tables)
        batch_span = solo.execute(q9, "cpu").simulated_seconds
        inter_span = solo.execute(q6, "cpu").simulated_seconds
        server = QueryServer(default_server(), preemption=True,
                             aging_seconds=aging_seconds,
                             cache_budget_bytes=0)
        server.register_dataset(tpch_dataset.tables)
        server.open_session("inter", priority="interactive",
                            max_concurrency=1)
        server.open_session("batch", priority="batch", max_concurrency=1)
        # A 10:1 flood: interactive arrivals land back to back (one
        # inter-arrival ~= one interactive span) for ~10x the batch span.
        count = max(int(10 * batch_span / inter_span), 20)
        server.add_arrivals(poisson_arrivals(
            "inter", [q6], rate_qps=1.0 / inter_span, count=count, seed=77,
            mode="cpu"))
        server.add_arrivals(trace_arrivals("batch", [(0.0, q9)], mode="cpu"))
        return server, batch_span

    def test_batch_makes_progress_under_flood(self, tpch_dataset):
        aging = 2e-4
        server, batch_span = self._flood(tpch_dataset, aging_seconds=aging)
        report = server.run()
        batch = next(t for t in report.tickets if t.tenant == "batch")
        flood_end = max(t.finish_time for t in report.tickets
                        if t.tenant == "inter")
        assert batch.status == "completed"
        # The aging bound: once the ticket has waited two full aging
        # steps it outranks the flood and cannot be preempted, so it
        # finishes within (aging exposure + its own span + one in-flight
        # interactive query) — long before the flood drains.
        assert batch.finish_time <= 2 * aging + 2 * batch_span
        assert batch.finish_time < flood_end

    def test_without_aging_the_flood_starves_batch(self, tpch_dataset):
        aged_server, _ = self._flood(tpch_dataset, aging_seconds=2e-4)
        aged_batch = next(t for t in aged_server.run().tickets
                          if t.tenant == "batch")
        raw_server, _ = self._flood(tpch_dataset, aging_seconds=None)
        raw_batch = next(t for t in raw_server.run().tickets
                         if t.tenant == "batch")
        # Same flood, no aging: the batch query is preempted more and
        # finishes strictly later — aging is what bounds the starvation.
        assert raw_batch.preemptions > aged_batch.preemptions
        assert raw_batch.finish_time > aged_batch.finish_time


# ----------------------------------------------------------------------
# SLO grading and the metrics snapshot
# ----------------------------------------------------------------------
class TestSLOsAndMetrics:
    def test_slo_pass_fail_on_report(self, tpch_dataset):
        plans = {q: build_query(q, tpch_dataset).plan
                 for q in EVALUATED_QUERIES}
        server = QueryServer(default_server())
        server.register_dataset(tpch_dataset.tables)
        server.open_session("fast", priority="interactive",
                            slo_p99_seconds=10.0)
        server.open_session("doomed", priority="normal",
                            slo_p99_seconds=1e-9)
        server.open_session("unbound", priority="batch")
        for tenant in ("fast", "doomed", "unbound"):
            server.submit(tenant, plans["Q6"], "cpu")
        report = server.run()
        assert report.tenants["fast"].slo_met is True
        assert report.tenants["doomed"].slo_met is False
        assert report.tenants["unbound"].slo_met is None
        assert report.slos_met is False
        assert "SLO met" in report.describe()
        assert "SLO MISSED" in report.describe()

    def test_metrics_before_any_run_are_zeroed(self):
        server = QueryServer(default_server())
        snapshot = server.metrics()
        assert snapshot.server["completed_total"] == 0
        assert snapshot.tenants == {}
        text = snapshot.to_prometheus()
        assert "repro_server_completed_total 0" in text
        assert "repro_server_healthy 1" in text

    def test_metrics_export_prometheus_and_json(self, tpch_dataset):
        server = _open_loop_server(tpch_dataset, seed=5)
        report = server.run()
        snapshot = server.metrics()
        assert snapshot.server["completed_total"] == report.completed
        text = snapshot.to_prometheus()
        assert text.endswith("\n")
        assert (f"repro_server_completed_total {report.completed}" in text)
        assert 'repro_tenant_latency_p99_seconds{tenant="inter"}' in text
        assert 'repro_tenant_slo_met{tenant="inter"} 1' in text
        # Tenants without an SLO export no slo_met sample.
        assert 'repro_tenant_slo_met{tenant="batch"}' not in text
        assert 'repro_device_available{device="gpu0"} 1' in text
        # HELP/TYPE lines precede every sample family.
        assert text.index("# HELP repro_server_completed_total") < text.index(
            "repro_server_completed_total ")
        import json
        payload = json.loads(snapshot.to_json())
        assert payload["server"]["completed_total"] == report.completed
        assert payload["tenants"]["inter"]["slo_met"] == 1
        assert payload["health"] == "ok"

    def test_metrics_and_health_reflect_device_failure(self):
        server = QueryServer(default_server())
        server.topology.fail_device("gpu1")
        try:
            snapshot = server.metrics()
            assert 'repro_device_available{device="gpu1"} 0' in (
                snapshot.to_prometheus())
            assert "repro_server_healthy 0" in snapshot.to_prometheus()
            health = server.health()
            assert health["status"] == "degraded"
            assert health["degraded_devices"] == ["gpu1"]
        finally:
            server.topology.restore_device("gpu1")
        assert server.health()["status"] == "ok"

    def test_metrics_replay_deterministically(self, tpch_dataset):
        first = _open_loop_server(tpch_dataset, seed=21)
        first.run()
        second = _open_loop_server(tpch_dataset, seed=21)
        second.run()
        assert first.metrics().to_prometheus() == (
            second.metrics().to_prometheus())
        assert first.metrics().to_json() == second.metrics().to_json()


# ----------------------------------------------------------------------
# Reservation truncation (the scheduler release-at-kill regression)
# ----------------------------------------------------------------------
class TestReservationRelease:
    def test_clock_truncate_shrinks_availability_and_busy(self):
        from repro.hardware.clock import SimClock
        clock = SimClock("cpu0")
        record = clock.reserve(10.0, label="victim")
        assert clock.available_at == 10.0
        truncated = clock.truncate(record, 0.3)
        assert truncated.end == pytest.approx(3.0)
        assert clock.available_at == pytest.approx(3.0)
        assert clock.busy_time == pytest.approx(3.0)
        with pytest.raises(ValueError):
            clock.truncate(truncated, 1.5)
        with pytest.raises(ValueError):
            clock.truncate(record, 0.5)  # stale handle: already replaced

    def test_follow_on_query_starts_at_the_kill_instant(self, tpch_dataset):
        """A preempt-killed reservation frees its device at the kill time,
        not at the originally reserved end."""
        from repro.server import DeviceScheduler
        engine = HAPEEngine(default_server(), cache_budget_bytes=0)
        engine.register_dataset(tpch_dataset.tables)
        result = engine.execute(build_query("Q6", tpch_dataset).plan, "cpu")
        topology = engine.topology
        topology.reset_occupancy()
        scheduler = DeviceScheduler(topology)
        reservations = scheduler.reservations(result)
        victim = scheduler.dispatch(result, reservations, start=0.0,
                                    label="victim")
        released = scheduler.release(victim, fraction=0.25)
        assert released.finish == pytest.approx(
            victim.start + 0.25 * (victim.finish - victim.start))
        follow_on = scheduler.dispatch(
            result, reservations,
            start=topology.occupancy.available_at(reservations),
            label="follow-on")
        kill_ends = {r.resource: r.end for r in released.records}
        expected_start = max(kill_ends[name] for name in follow_on.resources
                             if name in kill_ends)
        assert follow_on.start == pytest.approx(expected_start)
        assert follow_on.start < victim.finish

    def test_release_validates_fraction(self, tpch_dataset):
        from repro.server import DeviceScheduler
        engine = HAPEEngine(default_server(), cache_budget_bytes=0)
        engine.register_dataset(tpch_dataset.tables)
        result = engine.execute(build_query("Q6", tpch_dataset).plan, "cpu")
        scheduler = DeviceScheduler(engine.topology)
        placement = scheduler.dispatch(result, scheduler.reservations(result),
                                       start=0.0, label="q")
        with pytest.raises(ValueError):
            scheduler.release(placement, fraction=1.5)


# ----------------------------------------------------------------------
# One reservation per attempt
# ----------------------------------------------------------------------
class TestOneReservationPerAttempt:
    #: sha256 of the epoch's ticket schedule (below) as the server
    #: produced it while it derived each attempt's reservations twice:
    #: once to preempt, once to reserve.
    SCHEDULE_DIGEST = (
        "9cde3960a253961c7d41259d7fc1a1afb46152ebe37b51af14a5b2cecdf3cc5d")
    #: sha256 of the schedule and the trace JSONL.  The trace also carries
    #: each ticket's committed cache counters, which moved once placements
    #: shared kernel-cache entries (three hybrid tickets read entries their
    #: cpu predecessors wrote); the schedule digest above did not.
    DIGEST = "677e271fe3d31161ce10cf37e2fa65c76bdd398a013392d34b2457ac1491e545"
    #: sha256 of the Chrome exports: the epoch's, and the first ticket's
    #: query trace.  Every ticket of the epoch completes, so no slice is
    #: drawn for an unfinished one.
    CHROME_DIGEST = (
        "0c1a04abb1c9d8e7f82882816e70a10406302554e93a6b0946b63635d6ed9cc0")
    QUERY_CHROME_DIGEST = (
        "e4758d6e0f0422bcfa0b039fa980b36f4d42e7c0c473f40221298eb01ebd9ac7")

    @staticmethod
    def _epoch(tpch_dataset, *, tracing: bool = True) -> QueryServer:
        """An open-loop epoch that preempts, fails over and retries:
        interactive hybrid arrivals over cpu batch work, gpu0 down for a
        while and seeded transient faults; traced unless told not to."""
        fault_plan = (FaultPlan(seed=3)
                      .transient_errors(rate=0.2, fraction=0.5)
                      .fail_device("gpu0", at=1e-4, recover_at=3e-4))
        server = QueryServer(default_server(), preemption=True,
                             aging_seconds=2e-4, fault_plan=fault_plan,
                             tracing=tracing)
        server.register_dataset(tpch_dataset.tables)
        server.open_session("inter", priority="interactive",
                            max_concurrency=2)
        server.open_session("batch", priority="batch", max_concurrency=2)
        plans = {q: build_query(q, tpch_dataset).plan
                 for q in EVALUATED_QUERIES}
        server.add_arrivals(poisson_arrivals(
            "inter", [plans["Q1"], plans["Q6"], plans["Q5"]],
            rate_qps=20_000.0, count=9, seed=11, mode="hybrid"))
        server.add_arrivals(trace_arrivals(
            "batch", [(0.0, plans["Q9"]), (0.0, plans["Q5"]),
                      (5e-5, plans["Q9"])], mode="cpu"))
        return server

    def test_reserved_once_and_byte_identical(self, tpch_dataset,
                                              monkeypatch):
        calls = []
        original = DeviceScheduler.reservations

        def counting(self, result):
            calls.append(result)
            return original(self, result)

        monkeypatch.setattr(DeviceScheduler, "reservations", counting)
        server = self._epoch(tpch_dataset)
        report = server.run()
        trace = server.last_trace
        dispatched = sum(event.kind == "dispatch" for event in trace.events)
        assert report.completed == len(report.tickets) == 12
        assert report.preemptions and any(
            ticket.failovers for ticket in report.tickets) and any(
            ticket.retries for ticket in report.tickets)
        assert len(calls) == dispatched > len(report.tickets)
        schedule = [(t.ticket_id, t.tenant, t.label, t.status, t.final_mode,
                     t.submit_time, t.start_time, t.finish_time, t.attempts,
                     t.retries, t.failovers, t.preemptions, t.wasted_seconds)
                    for t in report.tickets]
        assert hashlib.sha256(
            repr(schedule).encode()).hexdigest() == self.SCHEDULE_DIGEST
        digest = hashlib.sha256(
            (repr(schedule) + trace.to_jsonl()).encode()).hexdigest()
        assert digest == self.DIGEST
        assert hashlib.sha256(dumps_line(
            trace.to_chrome()).encode()).hexdigest() == self.CHROME_DIGEST
        assert hashlib.sha256(dumps_line(
            report.tickets[0].result.trace.to_chrome()).encode()
        ).hexdigest() == self.QUERY_CHROME_DIGEST

    def test_an_untraced_epoch_records_nothing(self, tpch_dataset,
                                               monkeypatch):
        """The same epoch untraced: not one ``Tracer.event`` call and not
        one ``TraceEvent`` built, through preemption, faults and retries,
        and the same schedule as the traced epoch's."""
        calls = []
        for owner, name in ((Tracer, "event"), (TraceEvent, "__init__")):
            original = getattr(owner, name)

            def spy(*args, original=original, **kwargs):
                calls.append(args)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, spy)
        server = self._epoch(tpch_dataset, tracing=False)
        report = server.run()
        assert report.completed == len(report.tickets) == 12
        assert report.preemptions and any(
            ticket.failovers for ticket in report.tickets) and any(
            ticket.retries for ticket in report.tickets)
        assert calls == [] and server.last_trace is None
        schedule = [(t.ticket_id, t.tenant, t.label, t.status, t.final_mode,
                     t.submit_time, t.start_time, t.finish_time, t.attempts,
                     t.retries, t.failovers, t.preemptions, t.wasted_seconds)
                    for t in report.tickets]
        assert hashlib.sha256(
            repr(schedule).encode()).hexdigest() == self.SCHEDULE_DIGEST


# ----------------------------------------------------------------------
# An untraced served epoch
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tpch_sf001():
    return generate_tpch(scale_factor=0.01, seed=7)


class TestUntracedServedEpoch:
    """A closed-loop, shared-cache, untraced server: one priming epoch,
    then two epochs whose every ticket replays a kept timeline."""

    #: sha256 of the three epochs' ticket schedules (times as float.hex),
    #: taken while each ticket built its prepared-record stamp twice,
    #: copied every clock's records on restore and traced into a no-op.
    SCHEDULE_DIGEST = (
        "d207fc79d532d49dbe95f4c9c9ff8531f00383541430d026605b8748c75746aa")
    #: sha256 of each epoch's ``metrics()`` as JSON and Prometheus text,
    #: taken while latency percentiles came from ``np.percentile``.
    METRICS_DIGEST = (
        "2489e2e1649318ef359e675149efc9a436668c34ee469d49cadc170ed49ed759")
    #: sha256 of each epoch's ``report.describe()``.
    DESCRIBE_DIGEST = (
        "5fa400733e059d6ea26b2105faf7b42bf05d05687cb1b0f7e031f3e6589ffefc")

    TENANTS = (("cpu-a", "cpu"), ("gpu-a", "gpu"),
               ("cpu-b", "cpu"), ("gpu-b", "gpu"))

    def _epochs(self, dataset):
        server = QueryServer(default_server())
        server.register_dataset(dataset.tables)
        for tenant, _ in self.TENANTS:
            # One graded tenant: its p99 lands in the text and the metrics.
            server.open_session(tenant, max_queue_depth=256,
                                slo_p99_seconds=2e-3 if tenant == "cpu-a"
                                else None)
        plans = {q: build_query(q, dataset).plan for q in EVALUATED_QUERIES}
        for passes in (1, 2, 2):
            for _ in range(passes):
                for tenant, mode in self.TENANTS:
                    for name, plan in plans.items():
                        server.submit(tenant, plan, mode,
                                      label=f"{name}/{mode}")
            yield server, server.run()

    def test_replayed_epochs_are_byte_identical(self, tpch_sf001):
        schedules, metrics, describes = [], [], []
        for epoch, (server, report) in enumerate(self._epochs(tpch_sf001)):
            assert report.completed == len(report.tickets)
            assert server.last_trace is None
            # Past the priming epoch every lookup hits the shared cache.
            assert epoch == 0 or not any(
                t.cache.misses for t in report.tickets)
            schedules.append(repr([
                (t.ticket_id, t.tenant, t.label, t.status, t.final_mode,
                 t.submit_time.hex(), t.start_time.hex(),
                 t.finish_time.hex(), t.simulated_seconds.hex(),
                 t.reserved, t.cache.hits, t.cache.misses)
                for t in report.tickets]))
            snapshot = server.metrics()
            metrics.append(snapshot.to_json() + snapshot.to_prometheus())
            describes.append(report.describe())
        for texts, digest in ((schedules, self.SCHEDULE_DIGEST),
                              (metrics, self.METRICS_DIGEST),
                              (describes, self.DESCRIBE_DIGEST)):
            assert hashlib.sha256(
                "\n".join(texts).encode()).hexdigest() == digest
