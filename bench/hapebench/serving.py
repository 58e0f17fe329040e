"""Served workloads: ``serve_closed`` (closed loop) and ``serve_open`` (open loop).

``serve_closed`` keeps one :class:`~repro.server.QueryServer` with the
shared cache on, so after the priming epoch admission, the device
scheduler, the occupancy board, shared-cache commit and report building
carry the epoch.  ``serve_open`` builds a fresh cache-less server per
epoch and feeds it seeded Poisson arrivals on the simulated clock, with
preemption, aging and (in the fault epoch) failover and retry: kernels
and the full ticket lifecycle are both loaded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine import HAPEEngine
from repro.faults import FaultPlan
from repro.hardware import default_server
from repro.server import Arrival, QueryServer, RetryPolicy, poisson_arrivals
from repro.storage import generate_tpch
from repro.workloads import all_queries

from .harness import (
    Clock,
    Recorder,
    Tally,
    host_seconds,
    median,
    percentile,
    timed,
)
from .tpch import MODES

QUEUE_DEPTH = 4096


def solo_sims(dataset, queries) -> dict[tuple[str, str], float]:
    """Simulated seconds of every (query, mode) in a cold solo session."""
    engine = HAPEEngine(default_server(), cache_budget_bytes=0, workers=1)
    engine.register_dataset(dataset.tables)
    return {(name, mode): engine.execute(query.plan, mode).simulated_seconds
            for name, query in queries.items() for mode in MODES}


def query_of(label: str, names: list[str]) -> str:
    """The query a ticket ran: ``Q5/gpu`` or a generator's ``tenant-p7``."""
    if "/" in label:
        return label.split("/")[0]
    return names[(int(label.rsplit("-p", 1)[1]) - 1) % len(names)]


def epoch_facts(report, topology) -> dict:
    """The exact (simulated-clock) outcome of one ``run()``."""
    tickets = report.tickets

    def occupancy(devices) -> float:
        if report.makespan <= 0.0 or not devices:
            return 0.0
        return sum(topology.occupancy.busy_time(device.name)
                   for device in devices) / len(devices) / report.makespan

    return {
        "schedule": tuple(
            (t.tenant, t.label, t.status, t.final_mode, t.submit_time,
             t.start_time, t.finish_time, t.simulated_seconds,
             t.preemptions, t.retries, t.failovers) for t in tickets),
        "tickets": len(tickets),
        "completed": report.completed,
        "rejected": report.rejected,
        "makespan": report.makespan,
        "serial": report.serial_seconds,
        "queue_wait": sum(tenant.queue_wait_seconds
                          for tenant in report.tenants.values()),
        "cpu_occupancy": occupancy(topology.cpus()),
        "gpu_occupancy": occupancy(topology.gpus()),
        "hits": sum(t.cache.hits for t in tickets),
        "lookups": sum(t.cache.lookups for t in tickets),
        "preemptions": report.preemptions,
        "retries": report.retries,
        "failovers": report.failovers,
        "wasted": report.wasted_seconds,
    }


def verify_tickets(report, solo, names, tally: Tally, where: str) -> None:
    """Every ticket completed with a solo run's simulated seconds."""
    bad = [t for t in report.tickets if t.status != "completed"]
    tally.ran(len(report.tickets), len(bad),
              f"{where}: {len(bad)} tickets rejected, failed or timed out")
    if solo is not None:
        tally.check(
            all(t.simulated_seconds
                == solo[query_of(t.label, names), t.final_mode]
                for t in report.tickets if t.status == "completed"),
            f"{where}: a ticket's simulated seconds differ from a solo run "
            f"in its final mode")


def host_layers(rec: Recorder, epochs_per_unit: int) -> dict[str, float]:
    """Host ms per epoch in each public ``QueryServer`` call."""
    return {f"server.{call}_ms":
            rec.floor_ms(f"server.{call}") / epochs_per_unit
            for call in ("open", "submit", "run", "metrics")}


# ----------------------------------------------------------------------
# serve_closed
# ----------------------------------------------------------------------
TENANTS = (("cpu-a", "cpu"), ("gpu-a", "gpu"),
           ("cpu-b", "cpu"), ("gpu-b", "gpu"))


@dataclass
class ClosedState:
    dataset: object
    queries: dict
    names: list[str]
    server: QueryServer
    primed: object
    solo: dict | None = None


class ServeClosed:
    name = "serve_closed"
    predictions = ()

    def __init__(self, *, scale_factor: float, epochs: int,
                 passes: int) -> None:
        self.scale_factor = scale_factor
        #: Epochs per timed unit, each one operation with its own floor:
        #: a short operation fits between two disturbances of a shared
        #: host far more often than a long one.
        self.epochs = epochs
        #: Passes over the 4 tenants x 4 queries per epoch.
        self.passes = passes

    def _open(self, dataset, rec: Recorder, *, tracing: bool = False
              ) -> QueryServer:
        with rec.span("server.open"):
            server = QueryServer(default_server(), workers=1,
                                 tracing=tracing)
            server.register_dataset(dataset.tables)
            for tenant, _ in TENANTS:
                server.open_session(tenant, max_concurrency=1,
                                    max_queue_depth=QUEUE_DEPTH)
        return server

    def _epoch(self, server, queries, passes: int, rec: Recorder):
        with rec.span("server.submit"):
            for _ in range(passes):
                for tenant, mode in TENANTS:
                    for name, query in queries.items():
                        server.submit(tenant, query.plan, mode,
                                      label=f"{name}/{mode}")
        with rec.span("server.run"):
            report = server.run()
        with rec.span("server.metrics"):
            server.metrics().to_json()
        return report

    def setup(self, seed: int, rec: Recorder) -> ClosedState:
        with rec.span("storage.generate"):
            dataset = generate_tpch(self.scale_factor, seed=seed)
        queries = all_queries(dataset)
        server = self._open(dataset, rec)
        primed = self._epoch(server, queries, 1, Recorder(False))
        return ClosedState(dataset, queries, list(queries), server, primed)

    def check(self, state: ClosedState, tally: Tally, traced: bool) -> None:
        state.solo = solo_sims(state.dataset, state.queries)
        verify_tickets(state.primed, state.solo, state.names, tally,
                       "priming epoch")

    def unit(self, state: ClosedState, clock: Clock, rec: Recorder,
             tally: Tally) -> dict:
        facts = []
        for index in range(self.epochs):
            with clock.op(f"epoch{index}"):
                report = self._epoch(state.server, state.queries,
                                     self.passes, rec)
            verify_tickets(report, state.solo, state.names, tally, "epoch")
            facts.append(epoch_facts(report, state.server.topology))
        # The epochs of a unit submit the same tickets to the same primed
        # server, so on the simulated clock they are one epoch repeated.
        tally.check(all(each == facts[0] for each in facts),
                    "an epoch's simulated results differ from the unit's "
                    "first epoch")
        return facts[0]

    def sim_seconds(self, facts: dict) -> float:
        return self.epochs * facts["makespan"]

    def operation_seconds(self, floors: dict[str, float]) -> list[float]:
        """Host seconds per served ticket."""
        return [floor / (self.passes * len(TENANTS) * 4)
                for floor in floors.values()]

    def layers(self, state: ClosedState, run) -> dict[str, float]:
        rec, facts = run.rec, run.facts
        metrics = host_layers(rec, self.epochs)
        # server.open ran once, in set-up.
        metrics["server.open_ms"] = rec.setup_seconds("server.open") * 1e3
        metrics.update({
            "storage.generate_s": rec.setup_seconds("storage.generate"),
            "storage.table_mb": state.dataset.total_bytes / 1e6,
            "server.sim_makespan_s": facts["makespan"],
            "server.sim_serial_s": facts["serial"],
            "server.sim_speedup_vs_serial":
                facts["serial"] / facts["makespan"],
            "server.sim_queue_wait_s": facts["queue_wait"],
            "server.sim_cpu_occupancy": facts["cpu_occupancy"],
            "server.sim_gpu_occupancy": facts["gpu_occupancy"],
            "server.sharedcache.hit_ratio":
                facts["hits"] / facts["lookups"] if facts["lookups"] else 0.0,
            "server.rejected": facts["rejected"],
        })

        # What the server adds per ticket over the same executions run
        # warm in a solo session.
        solo = HAPEEngine(default_server(), workers=1)
        solo.register_dataset(state.dataset.tables)
        warm_ms = 0.0
        for _, mode in TENANTS:
            for query in state.queries.values():
                solo.execute(query.plan, mode)
                warm_ms += self.passes * 1e3 * timed(
                    lambda: solo.execute(query.plan, mode), 10)
        metrics["server.self_ms_per_ticket"] = (
            (metrics["server.run_ms"] - warm_ms) / facts["tickets"])

        # Tracing on vs off, alternating epoch by epoch so both see the
        # same stretch of host weather.
        traced_server = self._open(state.dataset, Recorder(False),
                                   tracing=True)
        self._epoch(traced_server, state.queries, 1, Recorder(False))
        clocks = {state.server: Clock(), traced_server: Clock()}
        for _ in range(3):
            for server, clock in clocks.items():
                with clock.unit(), clock.op("epoch"):
                    self._epoch(server, state.queries, self.passes,
                                Recorder(False))
        trace = traced_server.last_trace
        start = host_seconds()
        trace.to_jsonl()
        metrics.update({
            "obs.export_ms": (host_seconds() - start) * 1e3,
            "obs.tracing_overhead_pct": (
                clocks[traced_server].floor_seconds()
                / clocks[state.server].floor_seconds() - 1.0) * 100.0,
            "obs.spans": sum(len(row.trace.spans) for row in trace.queries
                             if row.trace is not None),
            "obs.events": len(trace.events),
        })
        return metrics


# ----------------------------------------------------------------------
# serve_open
# ----------------------------------------------------------------------
#: Epoch kind -> arrival rate as a multiple of the solo service rate.
RATE = {"x050": 0.5, "x090": 0.9, "x120": 1.2, "fault": 0.9}
RUNGS = ("x050", "x090", "x120")
INTERACTIVE = (("lat_cpu", "cpu"), ("lat_gpu", "gpu"))
#: Interactive p90 limit, in mean solo executions (10 ms at SF 0.05).
SLO_SOLO_EXECUTIONS = 15.0


@dataclass
class OpenState:
    dataset: object
    queries: dict
    names: list[str]
    solo: dict
    #: Mean solo simulated seconds of one execution, per interactive mode.
    service: dict[str, float]
    kinds: tuple[str, ...]
    seed: int
    base: dict = field(default_factory=dict)
    base_report: object = None

    @property
    def slo_seconds(self) -> float:
        return SLO_SOLO_EXECUTIONS * median(self.service.values())


class ServeOpen:
    name = "serve_open"
    #: Printed with the traced pass: what the open loop must show.
    predictions = (
        ("server.sim_arrival_lateness_max_s == 0",
         lambda m: m["server.sim_arrival_lateness_max_s"] == 0),
        ("server.sim_p90_ms.* non-decreasing from x050 to x120",
         lambda m: m["server.sim_p90_ms.x050"] <= m["server.sim_p90_ms.x090"]
         <= m["server.sim_p90_ms.x120"]),
    )

    def __init__(self, *, scale_factor: float, arrivals: int,
                 batch: int) -> None:
        self.scale_factor = scale_factor
        self.arrivals = arrivals
        self.batch = batch

    def _fault_plan(self, state: OpenState) -> FaultPlan:
        """Survivable: gpu0 down for the middle third plus transient errors."""
        makespan = state.base["makespan"]
        return (FaultPlan(seed=state.seed)
                .fail_device("gpu0", at=makespan / 3,
                             recover_at=2 * makespan / 3)
                .transient_errors(rate=0.1))

    def _epoch(self, state: OpenState, kind: str, rec: Recorder, *,
               tracing: bool = False):
        service = median(state.service.values())
        with rec.span("server.open"):
            server = QueryServer(
                default_server(), preemption=True, cache_budget_bytes=0,
                aging_seconds=max(state.solo[name, "hybrid"]
                                  for name in state.names),
                fault_plan=(self._fault_plan(state)
                            if kind == "fault" else None),
                # Backoff and breaker cooldown on the scale of one
                # execution, so retries and recovery land inside the epoch.
                retry_policy=RetryPolicy(max_attempts=6,
                                         backoff_seconds=service),
                breaker_cooldown_seconds=4 * service,
                workers=1, tracing=tracing)
            server.register_dataset(state.dataset.tables)
            for tenant, _ in INTERACTIVE:
                server.open_session(tenant, priority="interactive",
                                    max_queue_depth=QUEUE_DEPTH)
            server.open_session("batch", priority="batch",
                                max_queue_depth=QUEUE_DEPTH)
        plans = [state.queries[name].plan for name in state.names]
        with rec.span("server.submit"):
            sources = [server.add_arrivals(poisson_arrivals(
                tenant, plans, rate_qps=RATE[kind] / state.service[mode],
                count=self.arrivals, seed=state.seed + offset, mode=mode))
                for offset, (tenant, mode) in enumerate(INTERACTIVE)]
            server.add_arrivals(
                [Arrival(at=0.0, tenant="batch",
                         plan=plans[index % len(plans)], mode="hybrid",
                         label=f"{state.names[index % len(plans)]}/hybrid")
                 for index in range(self.batch)], name="batch")
        with rec.span("server.run"):
            report = server.run()
        with rec.span("server.metrics"):
            server.metrics().to_json()
        facts = epoch_facts(report, server.topology)
        scheduled = {(arrival.tenant, arrival.label): arrival.at
                     for source in sources for arrival in source}
        limit = state.slo_seconds
        latency = {"interactive": [], "batch": []}
        for ticket in report.tickets:
            group = "batch" if ticket.tenant == "batch" else "interactive"
            # A ticket that did not complete counts as over the limit.
            latency[group].append(ticket.latency
                                  if ticket.status == "completed"
                                  else 10 * limit)
        facts.update({
            "latency": latency,
            "last_arrival": max(scheduled.values()),
            "lateness": max(
                ticket.submit_time - scheduled[ticket.tenant, ticket.label]
                for ticket in report.tickets
                if (ticket.tenant, ticket.label) in scheduled),
        })
        return report, facts, server

    def setup(self, seed: int, rec: Recorder) -> OpenState:
        with rec.span("storage.generate"):
            dataset = generate_tpch(self.scale_factor, seed=seed)
        queries = all_queries(dataset)
        names = list(queries)
        solo = solo_sims(dataset, queries)
        service = {mode: sum(solo[name, mode] for name in names) / len(names)
                   for _, mode in INTERACTIVE}
        # The untraced unit is the fault-free x090 epoch alone: twice the
        # units in a run, and the fault epoch's host work follows which
        # queries the seed makes fail (5 % over twenty seeds, against 1 %
        # for x090).  check() runs the fault epoch instead.
        state = OpenState(dataset, queries, names, solo, service,
                          kinds=tuple(RATE) if rec.enabled else ("x090",),
                          seed=seed)
        state.base_report, state.base, _ = self._epoch(
            state, "x090", Recorder(False))
        return state

    def check(self, state: OpenState, tally: Tally, traced: bool) -> None:
        verify_tickets(state.base_report, state.solo, state.names, tally,
                       "priming epoch")
        if traced:
            _, facts, _ = self._epoch(state, "x090", Recorder(False),
                                      tracing=True)
            tally.check(facts["schedule"] == state.base["schedule"],
                        "x090 ticket schedule differs with tracing on")
        else:
            # Not in the untraced unit, so held to completion here.
            report, _, _ = self._epoch(state, "fault", Recorder(False))
            verify_tickets(report, None, state.names, tally, "fault")

    def unit(self, state: OpenState, clock: Clock, rec: Recorder,
             tally: Tally) -> dict:
        facts = {}
        for kind in state.kinds:
            with clock.op(kind):
                report, facts[kind], _ = self._epoch(state, kind, rec)
            # During the outage queries run on the surviving devices, so
            # only the fault-free epochs are held to the solo seconds.
            verify_tickets(report, None if kind == "fault" else state.solo,
                           state.names, tally, kind)
        tally.check(facts["x090"]["schedule"] == state.base["schedule"],
                    "x090 ticket schedule differs from the priming epoch")
        return facts

    def sim_seconds(self, facts: dict) -> float:
        return facts["x090"]["makespan"]

    def operation_seconds(self, floors: dict[str, float]) -> list[float]:
        """Host seconds per served ticket, for each kind of epoch."""
        tickets = 2 * self.arrivals + self.batch
        return [floor / tickets for floor in floors.values()]

    def layers(self, state: OpenState, run) -> dict[str, float]:
        facts = run.facts
        limit = state.slo_seconds
        metrics = host_layers(run.rec, len(state.kinds))
        metrics["storage.generate_s"] = run.rec.setup_seconds(
            "storage.generate")
        in_slo = 0.0
        for rung in RUNGS:
            epoch = facts[rung]
            p90 = percentile(epoch["latency"]["interactive"], 9)
            backlog = epoch["makespan"] - epoch["last_arrival"]
            metrics[f"server.sim_p50_ms.{rung}"] = 1e3 * percentile(
                epoch["latency"]["interactive"], 5)
            metrics[f"server.sim_p90_ms.{rung}"] = 1e3 * p90
            metrics[f"server.sim_backlog_s.{rung}"] = backlog
            if p90 <= limit and backlog <= limit:
                in_slo = RATE[rung]
        steady, fault = facts["x090"], facts["fault"]
        metrics.update({
            "server.max_rate_in_slo_x": in_slo,
            "server.batch_sim_p90_ms":
                1e3 * percentile(steady["latency"]["batch"], 9),
            "server.preemptions": steady["preemptions"],
            "server.sim_wasted_frac":
                steady["wasted"] / (steady["wasted"] + steady["serial"]),
            "server.rejected": sum(facts[rung]["rejected"]
                                   for rung in RUNGS),
            "server.sim_arrival_lateness_max_s":
                max(facts[kind]["lateness"] for kind in RATE),
            "server.sim_makespan_s": steady["makespan"],
            "server.sim_serial_s": steady["serial"],
            "server.sim_speedup_vs_serial":
                steady["serial"] / steady["makespan"],
            "server.sim_queue_wait_s": steady["queue_wait"],
            "server.sim_cpu_occupancy": steady["cpu_occupancy"],
            "server.sim_gpu_occupancy": steady["gpu_occupancy"],
            "faults.failovers": fault["failovers"],
            "faults.retries": fault["retries"],
            "faults.completed_frac": fault["completed"] / fault["tickets"],
            "faults.sim_wasted_s": fault["wasted"],
            "faults.sim_makespan_ratio":
                fault["makespan"] / steady["makespan"],
        })
        return metrics
