"""Generated serving schedules: what any epoch must leave behind.

Hypothesis draws small serving epochs — two or three tenants with a
concurrency of one or two and a priority class each (interactive, normal
or batch, under preemption, with or without aging), two to eight
submissions of Q1 / Q6 / Q9 in random modes at random arrival times,
optional deadlines, optional GPU outages (both GPUs at once, overlapping
windows and outages that never recover included) and a shared-cache
budget (the default, one that evicts, none) — and every drained epoch
must satisfy:

* every ticket is terminal;
* no ticket finishes after its deadline, queued or running;
* a completed ticket's simulated seconds are a solo run's in its final
  mode;
* the per-tenant shared-cache counters sum to the global ones;
* every device is healthy again and the fault injector holds no applied
  fault;
* no two reservations of one resource on the occupancy board overlap;
* the drain handles every event at its own instant: the times it records
  never decrease (a preemption is stamped at its victim's next morsel
  boundary, at or after the instant that decided it), a queued ticket
  times out at its deadline, and a scheduled device-health change lands
  at a fault-plan time.

Times are drawn in eighths of a service unit, Q9's solo cpu time, so the
schedules scale with the dataset.  A repeated (tenant, query, mode) whose
kernels are all cached replays the timeline its program kept, so replays
meet evictions and outages mid-epoch.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.engine import HAPEEngine
from repro.engine.querycache import DEFAULT_CACHE_BUDGET_BYTES
from repro.faults import FaultPlan
from repro.hardware import default_server
from repro.server import QueryServer
from repro.server.lifecycle import EVENT_STATUS, TERMINAL
from repro.workloads import build_query

QUERIES = ("Q1", "Q6", "Q9")
MODES = ("cpu", "gpu", "hybrid")
PRIORITIES = ("interactive", "batch", "normal")

#: A time or a span in eighths of a service unit.
eighths = st.integers(0, 24).map(lambda k: k / 8)

submissions = st.lists(
    st.tuples(st.integers(0, 2), st.sampled_from(QUERIES),
              st.sampled_from(MODES), eighths,
              st.none() | st.integers(1, 24).map(lambda k: k / 8)),
    min_size=2, max_size=8)

#: ``(at, duration)`` of a dual-GPU outage; ``None`` never recovers.
outages = st.lists(
    st.tuples(eighths, st.none() | st.integers(1, 16).map(lambda k: k / 8)),
    max_size=3)

#: Fits Q1's largest entry but not Q9's beside it (SF 0.005), so the
#: queries evict each other.
EVICTING_BUDGET = 1_500_000
budgets = st.sampled_from([DEFAULT_CACHE_BUDGET_BYTES, EVICTING_BUDGET, 0])


@pytest.fixture(scope="module")
def plans(tpch_dataset):
    return {name: build_query(name, tpch_dataset).plan for name in QUERIES}


@pytest.fixture(scope="module")
def solo(tpch_dataset, plans):
    """Healthy private-session simulated seconds per (query, mode)."""
    engine = HAPEEngine(default_server(), cache_budget_bytes=0)
    engine.register_dataset(tpch_dataset.tables)
    return {(name, mode): engine.execute(plan, mode).simulated_seconds
            for name, plan in plans.items() for mode in MODES}


#: A ticket queued behind a running Q9 whose deadline passes while it
#: waits: it must end at its deadline, not when the Q9 ahead finishes.
QUEUED_PAST_ITS_DEADLINE = ((1, 1), [(0, "Q9", "cpu", 0.0, None),
                                     (0, "Q9", "cpu", 0.25, 0.25)], [],
                            DEFAULT_CACHE_BUDGET_BYTES, ("normal",) * 3,
                            None)
#: A ticket admitted at 0 behind its tenant's two earlier Q1s, whose
#: CPUs another tenant's Q1 then holds past its deadline: it never
#: starts, and must end at its deadline, not when the CPUs free.
ADMITTED_PAST_ITS_DEADLINE = ((1, 1), [(0, "Q1", "cpu", 0.0, None),
                                       (0, "Q1", "cpu", 0.0, None),
                                       (0, "Q1", "cpu", 0.0, 0.5),
                                       (1, "Q1", "cpu", 0.25, None)], [],
                              DEFAULT_CACHE_BUDGET_BYTES, ("normal",) * 3,
                              None)


def _serve(dataset, plans, unit, concurrency, jobs, gpu_outages, budget,
           priorities, aging, *, tracing=False):
    """Build and drain the epoch a drawn schedule describes."""
    fault_plan = FaultPlan()
    for at, duration in gpu_outages:
        for gpu in ("gpu0", "gpu1"):
            fault_plan = fault_plan.fail_device(
                gpu, at=at * unit,
                recover_at=None if duration is None
                else (at + duration) * unit)
    server = QueryServer(default_server(), fault_plan=fault_plan,
                         cache_budget_bytes=budget, preemption=True,
                         aging_seconds=None if aging is None
                         else aging * unit, tracing=tracing)
    server.register_dataset(dataset.tables)
    tenants = [f"t{index}" for index in range(len(concurrency))]
    for tenant, limit, priority in zip(tenants, concurrency, priorities):
        server.open_session(tenant, max_concurrency=limit, priority=priority)
    for index, (who, name, mode, at, deadline) in enumerate(jobs):
        server.submit(tenants[who % len(tenants)], plans[name], mode,
                      label=f"{name}#{index}", at=at * unit,
                      deadline=None if deadline is None else deadline * unit)
    server.run()
    return server


schedules = {
    "concurrency": st.lists(st.integers(1, 2), min_size=2, max_size=3)
    .map(tuple),
    "jobs": submissions,
    "gpu_outages": outages,
    "budget": budgets,
    "priorities": st.lists(st.sampled_from(PRIORITIES), min_size=3,
                           max_size=3).map(tuple),
    #: Aging off, or one class per half a service unit of wait.
    "aging": st.sampled_from([None, 0.5]),
}


@settings(derandomize=True, deadline=None, max_examples=30)
@given(**schedules)
@example(*QUEUED_PAST_ITS_DEADLINE)
@example(*ADMITTED_PAST_ITS_DEADLINE)
def test_generated_epochs_keep_their_invariants(
        tpch_dataset, plans, solo, concurrency, jobs, gpu_outages, budget,
        priorities, aging):
    server = _serve(tpch_dataset, plans, solo["Q9", "cpu"], concurrency,
                    jobs, gpu_outages, budget, priorities, aging)
    report = server.last_report

    for ticket in report.tickets:
        where = f"{ticket.tenant}:{ticket.label} ({ticket.status})"
        assert ticket.status in TERMINAL, where
        if ticket.deadline_time is not None:
            assert ticket.finish_time <= ticket.deadline_time, where
        if ticket.status == "completed":
            name = ticket.label.split("#")[0]
            assert ticket.simulated_seconds == solo[name, ticket.final_mode], (
                where)
    totals = server.query_cache.counters()
    per_tenant = server.query_cache.tenant_counters().values()
    assert sum(counters.hits for counters in per_tenant) == totals.hits
    assert sum(counters.misses for counters in per_tenant) == totals.misses
    assert set(server.topology.health_report().values()) == {"healthy"}
    assert not server._injector._applied
    _assert_no_reservations_overlap(server)


def _assert_no_reservations_overlap(server) -> None:
    """Per resource, every reservation starts after the one before it
    ends.  An attempt killed where it starts keeps an empty record, which
    occupies nothing."""
    ends: dict[str, float] = {}
    for record in server.topology.occupancy.records():
        if record.end > record.start:
            assert record.start >= ends.get(record.resource, 0.0), record
            ends[record.resource] = record.end


@settings(derandomize=True, deadline=None, max_examples=60)
@given(**schedules)
@example(*QUEUED_PAST_ITS_DEADLINE)
@example(*ADMITTED_PAST_ITS_DEADLINE)
def test_generated_epochs_handle_every_event_at_its_instant(
        tpch_dataset, plans, solo, concurrency, jobs, gpu_outages, budget,
        priorities, aging):
    server = _serve(tpch_dataset, plans, solo["Q9", "cpu"], concurrency,
                    jobs, gpu_outages, budget, priorities, aging,
                    tracing=True)
    tickets = {ticket.ticket_id: ticket
               for ticket in server.last_report.tickets}
    plan_times = {time for event in server.fault_plan.events
                  for time in (event.at, event.until) if time is not None}
    status: dict[int, str] = {}
    latest = 0.0
    for event in server.last_trace.events:
        ticket = event.attrs.get("ticket")
        if event.kind == "submit":
            # Every submission is made, and recorded, before run().
            status[ticket] = "queued"
            continue
        if event.kind == "preempt":
            assert event.at >= latest, event
        else:
            assert event.at >= latest, event
            latest = event.at
        if event.kind == "timeout" and status[ticket] == "queued":
            assert event.at == tickets[ticket].deadline_time, event
        if event.kind == "device_health" and event.attrs["cause"] == (
                "schedule"):
            assert event.at in plan_times, event
        if event.kind in EVENT_STATUS:
            status[ticket] = EVENT_STATUS[event.kind]
    _assert_no_reservations_overlap(server)


def _facts(report) -> list[tuple]:
    return [(ticket.ticket_id, ticket.status, ticket.final_mode,
             ticket.start_time, ticket.finish_time, ticket.attempts,
             ticket.failovers, ticket.preemptions, ticket.wasted_seconds,
             ticket.simulated_seconds, ticket.cache.hits,
             ticket.cache.misses)
            for ticket in report.tickets]


@settings(derandomize=True, deadline=None, max_examples=15)
@given(**schedules)
@example(*QUEUED_PAST_ITS_DEADLINE)
def test_generated_epochs_replay_exactly(
        tpch_dataset, plans, solo, concurrency, jobs, gpu_outages, budget,
        priorities, aging):
    """One thread drives the server, so an epoch is a function of its
    schedule: a second server fed the same schedule reports the same
    tickets, times and cache counts."""
    first, replay = (
        _serve(tpch_dataset, plans, solo["Q9", "cpu"], concurrency, jobs,
               gpu_outages, budget, priorities, aging).last_report
        for _ in range(2))
    assert _facts(replay) == _facts(first)
    assert replay.makespan == first.makespan
