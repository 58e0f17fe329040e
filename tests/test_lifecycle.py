"""The ticket lifecycle grammar: declared table, generated schedules.

``repro.server.lifecycle.TRANSITIONS`` is the model; these tests check
the server against it.  Small serving epochs are *generated* from a seed
— fault plan (dual-GPU outage, transient attempt faults) x deadlines x
retry policies x preemption/aging x ``mode="auto"`` — and every
ticket's traced event sequence must be a path through the table.  A
failing case names its seed in the test id; seeds are stable across runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import HAPEEngine
from repro.errors import AdmissionError, ServingError
from repro.faults import FaultPlan
from repro.hardware import default_server
from repro.server import QueryServer, QueryTicket, RetryPolicy
from repro.server.lifecycle import (
    EVENT_STATUS,
    TERMINAL,
    TRANSITIONS,
    transition,
)
from repro.workloads import build_query

QUERIES = ("Q1", "Q5", "Q6", "Q9")
MODES = ("cpu", "gpu", "hybrid", "auto")
#: Twenty-four generated epochs; each is a few tenths of a second.
SEEDS = range(24)
#: Events that explain simulated seconds burned by a killed attempt
#: (``failed``: the kill exhausted the retry budget or the mode ladder).
WASTEFUL = {"preempt", "retry", "failover", "timeout", "failed"}


@pytest.fixture(scope="module")
def plans(tpch_dataset):
    return {name: build_query(name, tpch_dataset).plan for name in QUERIES}


@pytest.fixture(scope="module")
def solo(tpch_dataset, plans):
    """Fault-free private-session result per (query, concrete mode)."""
    engine = HAPEEngine(default_server(), cache_budget_bytes=0)
    engine.register_dataset(tpch_dataset.tables)
    return {(name, mode): engine.execute(plan, mode)
            for name, plan in plans.items() for mode in MODES[:3]}


def _serve(seed, dataset, plans, solo):
    """Build and drain the epoch ``seed`` describes; returns the server."""
    rng = np.random.default_rng(seed)
    service = float(np.mean([r.simulated_seconds for r in solo.values()]))
    horizon = 6 * service
    fault_plan = FaultPlan(seed=seed).transient_errors(
        rate=float(rng.choice([0.0, 0.2, 0.5])),
        fraction=float(rng.uniform(0.1, 0.9)))
    if rng.random() < 0.6:
        # Both GPUs together: a lone survivor would change what a gpu-mode
        # query costs, and completed work is held to healthy solo runs.
        at = float(rng.uniform(0.0, horizon))
        recover_at = at + float(rng.uniform(0.5, 3.0)) * service
        for gpu in ("gpu0", "gpu1"):
            fault_plan = fault_plan.fail_device(gpu, at=at,
                                                recover_at=recover_at)
    server = QueryServer(
        default_server(), cache_budget_bytes=0, fault_plan=fault_plan,
        retry_policy=RetryPolicy(
            max_attempts=int(rng.integers(1, 5)),
            backoff_seconds=float(rng.uniform(0.0, service))),
        preemption=bool(rng.random() < 0.7),
        aging_seconds=(None if rng.random() < 0.5
                       else float(rng.uniform(0.5, 4.0)) * service),
        tracing=True)
    server.register_dataset(dataset.tables)
    tenants = ("interactive", "normal", "batch")
    for priority in tenants:
        server.open_session(priority, priority=priority,
                            max_concurrency=int(rng.integers(1, 3)),
                            max_queue_depth=int(rng.integers(3, 8)))
    for index in range(int(rng.integers(6, 13))):
        name = QUERIES[int(rng.integers(len(QUERIES)))]
        tenant = str(rng.choice(tenants, p=(0.4, 0.2, 0.4)))
        # Batch work is there from the start and the rest arrives over it,
        # so interactive arrivals find something to preempt.
        at = (0.0 if tenant == "batch" or rng.random() < 0.3
              else float(rng.uniform(0.0, horizon)))
        deadline = (None if rng.random() < 0.6
                    else float(rng.uniform(0.1, 5.0)) * service)
        try:
            server.submit(tenant, plans[name],
                          MODES[int(rng.integers(len(MODES)))],
                          label=f"{name}#{index}", at=at, deadline=deadline)
        except AdmissionError:
            pass  # backpressure is part of the grammar: queued → rejected
    server.run()
    return server


def _ticket_facts(ticket):
    return (ticket.ticket_id, ticket.tenant, ticket.label, ticket.status,
            ticket.final_mode, ticket.submit_time, ticket.start_time,
            ticket.finish_time, ticket.reserved, ticket.attempts,
            ticket.retries, ticket.failovers, ticket.preemptions,
            ticket.wasted_seconds, ticket.error, ticket.simulated_seconds)


@pytest.mark.parametrize("seed", SEEDS, ids="seed={}".format)
def test_generated_epochs_follow_the_declared_lifecycle(
        seed, tpch_dataset, plans, solo):
    server = _serve(seed, tpch_dataset, plans, solo)
    report, trace = server.last_report, server.last_trace
    assert report.tickets, f"seed={seed}: the generator submitted nothing"

    events: dict[int, list[str]] = {}
    for event in trace.events:
        if "ticket" in event.attrs:
            events.setdefault(event.attrs["ticket"], []).append(event.kind)
    for ticket in report.tickets:
        where = f"seed={seed} ticket {ticket.label}"
        kinds = events[ticket.ticket_id]
        assert kinds[0] == "submit", where
        status = "queued"
        for kind in kinds[1:]:
            if kind == "dispatch":
                assert status == "running", f"{where}: {kinds}"
                continue
            assert EVENT_STATUS[kind] in TRANSITIONS[status], (
                f"{where}: {kind} is not an edge out of {status}: {kinds}")
            status = EVENT_STATUS[kind]
        # A terminal status has no edge out, so the path ending in one
        # means exactly one terminal event.
        assert status in TERMINAL and status == ticket.status, (
            f"{where}: {kinds} ends {status}, ticket says {ticket.status}")
        if ticket.wasted_seconds > 0.0:
            assert WASTEFUL & set(kinds), f"{where}: unexplained waste"
        if ticket.status == "completed":
            name = ticket.label.split("#")[0]
            alone = solo[name, ticket.final_mode]
            assert ticket.simulated_seconds == alone.simulated_seconds, where
            assert ticket.result.table.equals(alone.table), where
            assert ticket.finish_time >= ticket.start_time >= \
                ticket.submit_time, where

    counted = (report.completed + report.rejected + report.failed
               + report.timed_out)
    assert counted == len(report.tickets), f"seed={seed}"
    for tenant in server.admission.tenants:
        assert server.admission.running(tenant) == 0, f"seed={seed} {tenant}"
        assert server.admission.queue_depth(tenant) == 0, (
            f"seed={seed} {tenant}")

    replay = _serve(seed, tpch_dataset, plans, solo)
    assert ([_ticket_facts(t) for t in replay.last_report.tickets]
            == [_ticket_facts(t) for t in report.tickets]), f"seed={seed}"
    assert replay.last_report.makespan == report.makespan, f"seed={seed}"
    assert replay.metrics().to_json() == server.metrics().to_json(), (
        f"seed={seed}")
    assert replay.last_trace.to_jsonl() == trace.to_jsonl(), f"seed={seed}"


def test_the_generator_reaches_every_edge(tpch_dataset, plans, solo):
    """The seeds above are only a test of the grammar if they cover it."""
    seen = set()
    for seed in SEEDS:
        trace = _serve(seed, tpch_dataset, plans, solo).last_trace
        seen.update(event.kind for event in trace.events)
    assert set(EVENT_STATUS) <= seen, sorted(set(EVENT_STATUS) - seen)


class TestTransitionTable:
    def test_table_is_closed_and_has_terminals(self):
        for status, after in TRANSITIONS.items():
            assert set(after) <= set(TRANSITIONS), status
        assert TERMINAL == {"completed", "rejected", "failed", "timed_out"}
        assert set(EVENT_STATUS.values()) == set(TRANSITIONS)

    def test_illegal_transition_raises(self, plans):
        ticket = QueryTicket(ticket_id=1, tenant="t", label="q",
                             plan=plans["Q6"], mode="cpu", submit_time=0.0,
                             estimated_bytes=0)
        with pytest.raises(ServingError, match="queued → completed"):
            transition(ticket, "completed")
        transition(ticket, "running")
        transition(ticket, "completed")
        with pytest.raises(ServingError, match="completed → queued"):
            transition(ticket, "queued")
        assert ticket.status == "completed"
