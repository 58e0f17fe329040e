"""The multi-tenant query server.

:class:`QueryServer` is the serving facade over the single-session engine:
many named tenants submit logical plans, an admission controller
(:mod:`repro.server.admission`) queues and budgets them, and a
device-aware scheduler (:mod:`repro.server.scheduler`) lays the admitted
queries out on the topology's server-time occupancy board so queries using
disjoint hardware overlap.  All tenant sessions share the server's catalog
and its :class:`~repro.server.sharedcache.SharedQueryCache`, so one
tenant's cold kernel evaluation warms every other tenant's structurally
identical subplans.

Two invariants carry over unchanged from the single-session engine:

* **Per-query timing neutrality.**  A query's simulated seconds, device
  busy times and link bytes are bit-identical to running it alone in a
  private session — concurrency only adds *queue wait* and changes server
  wall-clock, never a query's own simulated execution.
* **Functional determinism.**  The serving loop is event-driven over
  simulated server time and coordinated from one thread, so interleaved
  multi-tenant runs return exactly the tables a serial run returns, in a
  reproducible order.  With ``workers > 1`` admitted queries from
  *different tenants* execute genuinely concurrently on worker threads —
  per-query simulated time stays bit-identical (hardware clocks and
  memory ledgers are thread-local), and all scheduling (admission picks,
  occupancy reservations, completion processing) stays on the
  coordinating thread in canonical pick order.

The server is also *fault tolerant*: a :class:`~repro.faults.FaultPlan`
(or an organic failure such as
:class:`~repro.errors.OutOfDeviceMemoryError` — the paper's Q9-on-GPU
failure, Section 6.4) no longer aborts the drain.  This module is the
event loop — it decides *when* an attempt starts and ends; what that means
for the ticket is :mod:`repro.server.lifecycle`, which every ending goes
through (:meth:`~repro.server.lifecycle.TicketLifecycle.end_attempt`).
Failed attempts are isolated to their ticket, device-scoped failures walk
the mode-degradation ladder (gpu → hybrid → cpu), transient failures are
retried under the
tenant's :class:`~repro.server.admission.RetryPolicy` with simulated
backoff charged as queue wait, per-query deadlines bound the whole dance,
and a :class:`~repro.faults.CircuitBreaker` takes chronically failing
devices out of rotation.  Wasted simulated seconds from failed attempts
are accounted separately; the successful attempt itself remains
bit-identical to a solo fault-free run in its final mode, and with an
empty fault plan the server's behaviour is bit-identical to the
fault-free serving layer.

:meth:`QueryServer.run` drains the queues and returns a
:class:`ServerReport` with per-query and per-tenant accounting: queue
wait, device busy seconds, cache hits, peak intermediate bytes, retries,
failovers, wasted seconds, latency percentiles, and the throughput
speedup over serial submission.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from statistics import median

import numpy as np

from ..engine.querycache import (
    DEFAULT_CACHE_BUDGET_BYTES,
    CacheCounters,
    QueryCacheStats,
)
from ..engine.session import HAPEEngine, QueryResult
from ..engine.workers import WorkerPool, resolve_workers
from ..errors import (
    AdmissionError,
    DeviceUnavailableError,
    FaultError,
    ReproError,
    ServingError,
    UnknownTenantError,
)
from ..faults import CircuitBreaker, FaultInjector, FaultPlan
from ..hardware.topology import Topology, default_server
from ..obs.trace import EpochTrace, TracedQuery
from ..obs.tracer import Tracer
from ..relational.logical import LogicalPlan
from ..storage.catalog import Catalog
from ..storage.table import Table
from .admission import AdmissionController, RetryPolicy, TenantPolicy
from .arrivals import Arrival, ArrivalSource
from .lifecycle import (
    DEADLINE,
    PREEMPTED,
    SUCCESS,
    TERMINAL,
    QueryTicket,
    TicketLifecycle,
    _Attempt,
)
from .metrics import MetricsSnapshot
from .scheduler import DeviceScheduler
from .sharedcache import CacheBracket, SharedQueryCache


@dataclass(kw_only=True)
class TicketCounts:
    """What a set of tickets came to — one tenant's, or the whole epoch's.

    :class:`TenantReport` and :class:`ServerReport` are the same fold over
    the epoch's tickets at two granularities; :meth:`count` is its step.
    """

    completed: int = 0
    rejected: int = 0
    failed: int = 0
    timed_out: int = 0
    retries: int = 0
    failovers: int = 0
    preemptions: int = 0
    wasted_seconds: float = 0.0

    def count(self, ticket: QueryTicket) -> None:
        if ticket.status in TERMINAL:
            # Terminal statuses and their counters share names.
            setattr(self, ticket.status, getattr(self, ticket.status) + 1)
        self.retries += ticket.retries
        self.failovers += ticket.failovers
        self.preemptions += ticket.preemptions
        self.wasted_seconds += ticket.wasted_seconds


@dataclass
class TenantReport(TicketCounts):
    """Aggregated accounting for one tenant over one serving run."""

    queue_wait_seconds: float = 0.0
    simulated_seconds: float = 0.0
    #: Cost-model busy seconds summed per resource over the tenant's
    #: completed queries (devices and links).
    busy_seconds: dict[str, float] = field(default_factory=dict)
    cache: CacheCounters = field(default_factory=CacheCounters)
    peak_intermediate_bytes: int = 0
    latencies: list[float] = field(default_factory=list)
    #: The tenant policy's latency objective, copied onto the report so
    #: SLO grading travels with the numbers it grades.
    slo_p99_seconds: float | None = None

    def count(self, ticket: QueryTicket) -> None:
        super().count(ticket)
        if ticket.status != "completed":
            return
        result = ticket.result
        self.queue_wait_seconds += ticket.queue_wait
        self.simulated_seconds += result.simulated_seconds
        for resource, busy in result.device_busy.items():
            if busy > 0:
                self.busy_seconds[resource] = (
                    self.busy_seconds.get(resource, 0.0) + busy)
        self.cache = CacheCounters(
            hits=self.cache.hits + ticket.cache.hits,
            misses=self.cache.misses + ticket.cache.misses,
            evicted=self.cache.evicted + ticket.cache.evicted,
            invalidated=self.cache.invalidated + ticket.cache.invalidated)
        self.peak_intermediate_bytes = max(self.peak_intermediate_bytes,
                                           result.peak_intermediate_bytes)
        self.latencies.append(ticket.latency)

    def percentile_latency(self, q: float) -> float:
        if not self.latencies:
            return 0.0
        return float(np.percentile(np.asarray(self.latencies), q))

    @property
    def slo_met(self) -> bool | None:
        """Pass/fail against the tenant's p99 objective.

        ``None`` when the tenant declared no SLO.  A tenant with an SLO
        but no completed queries fails it — an objective over queries
        that never finished is not met.
        """
        if self.slo_p99_seconds is None:
            return None
        if not self.latencies:
            return False
        return self.percentile_latency(99) <= self.slo_p99_seconds


@dataclass
class ServerReport(TicketCounts):
    """What one :meth:`QueryServer.run` drain produced."""

    tickets: list[QueryTicket]
    tenants: dict[str, TenantReport]
    #: Server time at which the last ticket reached its terminal status.
    makespan: float
    #: Sum of per-query simulated seconds — the serial-submission baseline
    #: (each query's simulated time is bit-identical either way).
    serial_seconds: float
    cache: QueryCacheStats

    def count(self, ticket: QueryTicket) -> None:
        super().count(ticket)
        self.makespan = max(self.makespan, ticket.finish_time)
        if ticket.status == "completed":
            self.serial_seconds += ticket.result.simulated_seconds

    @property
    def slos_met(self) -> bool:
        """True when every tenant that declared an SLO met it."""
        return all(tenant.slo_met is not False
                   for tenant in self.tenants.values())

    @property
    def throughput_qps(self) -> float:
        if self.makespan <= 0:
            return 0.0
        return self.completed / self.makespan

    @property
    def speedup_vs_serial(self) -> float:
        """Throughput gain over submitting the same queries serially."""
        if self.makespan <= 0:
            return 1.0
        return self.serial_seconds / self.makespan

    def percentile_latency(self, q: float) -> float:
        latencies = [t.latency for t in self.tickets
                     if t.status == "completed"]
        if not latencies:
            return 0.0
        return float(np.percentile(np.asarray(latencies), q))

    def describe(self) -> str:
        lines = [
            f"served {self.completed} queries ({self.rejected} rejected) "
            f"in {self.makespan * 1e3:.3f} ms of server time",
            f"  serial submission would take {self.serial_seconds * 1e3:.3f}"
            f" ms -> {self.speedup_vs_serial:.2f}x throughput",
            f"  latency p50={self.percentile_latency(50) * 1e3:.3f} ms "
            f"p99={self.percentile_latency(99) * 1e3:.3f} ms",
            f"  shared cache: {self.cache.describe()}",
        ]
        if (self.failed or self.timed_out or self.retries or self.failovers
                or self.preemptions):
            lines.append(
                f"  faults: {self.failed} failed, {self.timed_out} timed "
                f"out, {self.retries} retries, {self.failovers} failovers, "
                f"{self.preemptions} preemptions, "
                f"{self.wasted_seconds * 1e3:.3f} ms wasted")
        for name in sorted(self.tenants):
            tenant = self.tenants[name]
            line = (
                f"  {name}: {tenant.completed} ok / {tenant.rejected} "
                f"rejected, wait {tenant.queue_wait_seconds * 1e3:.3f} ms, "
                f"cache {tenant.cache.hits}/{tenant.cache.lookups} hits, "
                f"peak {tenant.peak_intermediate_bytes / 1e6:.1f} MB")
            if tenant.failed or tenant.timed_out or tenant.wasted_seconds:
                line += (f", {tenant.failed} failed/{tenant.timed_out} "
                         f"timed out, "
                         f"{tenant.wasted_seconds * 1e3:.3f} ms wasted")
            if tenant.slo_met is not None:
                line += (f", p99 {tenant.percentile_latency(99) * 1e3:.3f} "
                         f"ms SLO "
                         f"{'met' if tenant.slo_met else 'MISSED'}")
            lines.append(line)
        return "\n".join(lines)


class QueryServer:
    """Concurrent multi-tenant serving over one simulated server.

    Construct it with (or let it build) a topology, register tables once —
    the catalog is shared by every tenant — open sessions with per-tenant
    policies, ``submit`` any number of plans, then ``run()`` to drain the
    queues deterministically and collect the :class:`ServerReport`.

    Parameters
    ----------
    topology:
        The simulated hardware every tenant shares; defaults to the
        paper's testbed.
    cache_budget_bytes:
        Retention budget of the server-owned :class:`SharedQueryCache`,
        with the meaning of the :class:`~repro.engine.ExecutorOptions`
        field of the same name (``0`` disables the cache, ``None`` lifts
        the bound).  Tenant sessions cannot re-tune it.
    fault_plan:
        Optional deterministic chaos schedule replayed by a
        :class:`~repro.faults.FaultInjector` during :meth:`run`.  Injected
        faults are epoch-scoped: the topology is restored when the drain
        ends.  An empty/absent plan leaves serving bit-identical to the
        fault-free server.
    retry_policy:
        Server-wide default :class:`RetryPolicy`; ``open_session`` can
        override it per tenant.
    breaker_threshold / breaker_cooldown_seconds:
        Circuit-breaker tuning: a device failing this many consecutive
        attempts is marked failed and probed for recovery after the
        cooldown elapses in server time.
    workers:
        Worker threads the drain uses to execute admitted queries from
        different tenants concurrently (``"auto"`` = CPU count).  The
        default ``1`` keeps the fully serial drain.  Functional results,
        per-query simulated seconds *and* shared-cache hit/miss
        attribution are identical at every worker count: cache traffic
        is traced per attempt and committed on the coordinating thread
        in canonical admission pick order, so two tenants racing to
        compute the same kernel charge exactly one miss (the earlier
        pick) and one hit, just as a serial drain would.
    preemption:
        When ``True``, an interactive arrival that would otherwise wait
        may kill a running batch-priority attempt at its next morsel
        boundary: the victim's partial busy time stays on the occupancy
        board (the ``dispatch(fraction=)`` accounting), the tail of its
        reservation is released at the kill instant, and the victim
        re-queues to run again — its eventual result bit-identical to an
        undisturbed run.  Off by default: drain-style epochs are
        bit-identical to the pre-preemption server.
    aging_seconds:
        Starvation guard for ``preemption`` and for sustained
        high-priority floods: a queued query's effective priority climbs
        one class per ``aging_seconds`` of simulated wait, and a batch
        query that has waited two full steps can no longer be chosen as
        a preemption victim.  ``None`` (default) disables aging.
    tracing:
        Record a deterministic epoch trace (:attr:`last_trace`, an
        :class:`~repro.obs.EpochTrace`): every lifecycle event
        (submit/admit/dispatch, preemptions, retries, failovers, breaker
        and fault transitions, SLO grading) on the simulated server
        clock, plus per-query operator traces (tenant sessions open with
        session tracing on) and the occupancy board's busy slices.  All
        events are recorded on the coordinating thread in canonical
        admission pick order, so the trace is byte-identical at every
        worker count and across replays.  Off by default with near-zero
        overhead (one flag check per lifecycle point); serving results,
        reports and metrics are bit-identical with tracing on or off.
    """

    def __init__(self, topology: Topology | None = None, *,
                 cache_budget_bytes: int | None = DEFAULT_CACHE_BUDGET_BYTES,
                 fault_plan: FaultPlan | None = None,
                 retry_policy: RetryPolicy | None = None,
                 breaker_threshold: int = 3,
                 breaker_cooldown_seconds: float = 1.0,
                 workers: int | str = 1,
                 preemption: bool = False,
                 aging_seconds: float | None = None,
                 tracing: bool = False) -> None:
        self.topology = topology if topology is not None else default_server()
        self.catalog = Catalog()
        self.query_cache = SharedQueryCache(cache_budget_bytes)
        # The one invalidation subscription for the whole server: tenant
        # sessions share this cache and must not subscribe it again.
        self.catalog.subscribe(self.query_cache.invalidate_table)
        if not isinstance(preemption, bool):
            raise ValueError("preemption must be a bool")
        self.preemption = preemption
        self.admission = AdmissionController(aging_seconds=aging_seconds)
        self.scheduler = DeviceScheduler(self.topology)
        self.fault_plan = fault_plan or FaultPlan()
        #: Trips chronically failing devices; every epoch ends by
        #: restoring what it tripped, so one breaker serves them all.
        self.breaker = CircuitBreaker(
            self.topology, threshold=breaker_threshold,
            cooldown_seconds=breaker_cooldown_seconds)
        self.workers = resolve_workers(workers)
        self._pool = WorkerPool(self.workers, tier="server")
        self._sessions: dict[str, HAPEEngine] = {}
        self._ticket_ids = itertools.count(1)
        self._event_seq = itertools.count()
        #: Tickets awaiting (or rejected since) the next ``run()`` drain.
        self._epoch_tickets: list[QueryTicket] = []
        #: Open-loop arrival streams pumped by the next ``run()`` drain.
        self._arrival_sources: list[ArrivalSource] = []
        #: The most recent epoch's report — what ``metrics()`` exports.
        self.last_report: ServerReport | None = None
        self._injector: FaultInjector | None = None
        #: Server time the current (or last) drain has reached.
        self._now = 0.0
        if not isinstance(tracing, bool):
            raise ValueError("tracing must be a bool")
        self.tracing = tracing
        #: Lifecycle-event recorder (no-op unless ``tracing=True``); all
        #: appends happen on the coordinating thread in canonical order.
        self.tracer = Tracer(enabled=tracing)
        #: The ticket state machine the serving loop drives.
        self.lifecycle = TicketLifecycle(
            self.admission, self.scheduler, self.breaker, self.tracer,
            retry_policy or RetryPolicy())
        #: The most recent epoch's :class:`~repro.obs.EpochTrace`
        #: (``None`` before the first traced ``run()`` or when off).
        self.last_trace: EpochTrace | None = None

    # ------------------------------------------------------------------
    # Shared catalog
    # ------------------------------------------------------------------
    def register_table(self, table: Table, *, replace: bool = False) -> None:
        """Register a table for every tenant (shared catalog).

        ``replace=True`` over an existing name invalidates exactly the
        shared-cache entries that read the replaced table, for all
        tenants at once — the single-session invalidation contract, at
        server scope.
        """
        before = (self.query_cache.stats().invalidated
                  if self.tracer.enabled else 0)
        self.catalog.register(table, replace=replace)
        if self.tracer.enabled:
            entries = self.query_cache.stats().invalidated - before
            if replace or entries:
                # Catalog changes happen between epochs; the event sits at
                # time zero of the epoch that first observes it.
                self.tracer.event(0.0, "cache_invalidation",
                                  table=table.name, entries=entries)

    def register_dataset(self, tables: dict[str, Table], *,
                         replace: bool = False) -> None:
        """Register a whole dataset (e.g. the TPC-H tables) at once."""
        for table in tables.values():
            self.register_table(table, replace=replace)

    def drop_table(self, name: str) -> None:
        """Drop a table; shared-cache entries that read it are discarded."""
        before = (self.query_cache.stats().invalidated
                  if self.tracer.enabled else 0)
        self.catalog.drop(name)
        if self.tracer.enabled:
            self.tracer.event(
                0.0, "cache_invalidation", table=name,
                entries=self.query_cache.stats().invalidated - before)

    # ------------------------------------------------------------------
    # Tenancy
    # ------------------------------------------------------------------
    def open_session(self, tenant: str, *, priority: str = "normal",
                     max_concurrency: int = 1, max_queue_depth: int = 32,
                     memory_budget_bytes: int | None = None,
                     slo_p99_seconds: float | None = None,
                     retry: RetryPolicy | None = None) -> HAPEEngine:
        """Open a tenant session with its admission policy.

        The session is a full :class:`HAPEEngine` sharing the server's
        topology, catalog and cache; it can also be used directly for
        immediate (non-queued) execution.  ``retry`` overrides the
        server-wide :class:`RetryPolicy` for this tenant;
        ``slo_p99_seconds`` sets the latency objective the epoch report
        grades the tenant against.
        """
        policy = TenantPolicy(priority=priority,
                              max_concurrency=max_concurrency,
                              max_queue_depth=max_queue_depth,
                              memory_budget_bytes=memory_budget_bytes,
                              slo_p99_seconds=slo_p99_seconds)
        self.admission.open_tenant(tenant, policy)
        if retry is not None:
            self.lifecycle.retry_policies[tenant] = retry
        session = HAPEEngine(self.topology, catalog=self.catalog,
                             query_cache=self.query_cache,
                             tracing=self.tracing)
        self._sessions[tenant] = session
        return session

    def session(self, tenant: str) -> HAPEEngine:
        try:
            return self._sessions[tenant]
        except KeyError as exc:
            raise UnknownTenantError(f"unknown tenant {tenant!r}") from exc

    def tenant_retry_policy(self, tenant: str) -> RetryPolicy:
        """The retry policy in force for one tenant."""
        return self.lifecycle.retry_policy(tenant)

    @property
    def tenants(self) -> tuple[str, ...]:
        return tuple(self._sessions)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, tenant: str, plan: LogicalPlan,
               mode: str = "hybrid", *, label: str | None = None,
               at: float = 0.0,
               deadline: float | None = None) -> QueryTicket:
        """Queue one query for ``tenant``; may raise :class:`AdmissionError`.

        ``mode`` may be ``"auto"``: the server resolves it at dispatch
        time with the optimizer's own policy
        (:meth:`~repro.engine.optimizer.Optimizer.choose_mode`) — cpu/gpu
        when only one kind survives, hybrid when the statistics-backed
        working set overflows GPU memory (or is unbacked) — except that a
        working set that fits goes to whichever device kind the occupancy
        board reports least loaded.

        ``at`` is the simulated submission time (seconds of server time;
        queries of one tenant dispatch FIFO).  ``deadline`` (seconds after
        submission) bounds the query end-to-end — retries, failovers and
        queueing included; it defaults to the tenant retry policy's
        ``deadline_seconds``.  A tenant without an open session gets one
        with the default policy.  Rejected submissions raise — and still
        appear in the next report, counted against the tenant.

        Submission is legal while :meth:`run` is draining: the serving
        loop is open-loop, and registered arrival sources (see
        :meth:`add_arrivals`) call straight into this method as server
        time reaches each arrival.
        """
        if not self.admission.has_tenant(tenant):
            self.open_session(tenant)
        if deadline is None:
            deadline = self.tenant_retry_policy(tenant).deadline_seconds
        ticket = QueryTicket(
            ticket_id=next(self._ticket_ids), tenant=tenant,
            label=label or f"q{len(self._epoch_tickets) + 1}", plan=plan,
            mode=mode, submit_time=float(at),
            estimated_bytes=self._estimate_bytes(tenant, plan),
            deadline_seconds=deadline)
        self._epoch_tickets.append(ticket)
        self.lifecycle.submit(ticket)
        return ticket

    def _estimate_bytes(self, tenant: str, plan: LogicalPlan) -> int:
        """Admission-time working-set estimate for memory budgeting.

        Statistics-backed when every referenced table has catalog
        statistics and every predicate resolved: the estimator's working
        set — peak estimated intermediate bytes plus pinned join build
        hash tables — so a highly selective query over a huge table
        charges only what it materializes, not the table it streams.
        Falls back to the conservative legacy estimate (the full bytes of
        every referenced table) when the estimate is unbacked.
        """
        estimator = self.session(tenant).optimizer.estimator
        working_set = estimator.working_set(plan)
        if working_set.backed:
            return int(working_set.total_bytes)
        return int(sum(self.catalog.stats(name).nbytes
                       for name in plan.referenced_tables()
                       if name in self.catalog))

    # ------------------------------------------------------------------
    # Open-loop arrivals
    # ------------------------------------------------------------------
    def add_arrivals(self, source, *, name: str | None = None
                     ) -> ArrivalSource:
        """Register an arrival stream for the next :meth:`run` epoch.

        ``source`` is an :class:`ArrivalSource` or any iterable of
        :class:`Arrival` entries (a generator is drained eagerly, so the
        stream is plain data before the drain starts).  The serving loop
        submits each arrival at exactly its ``at`` time on the simulated
        server clock; arrivals the admission controller rejects
        (backpressure) are recorded as rejected tickets, not raised.
        Sources are consumed by one epoch and cleared when it ends.
        """
        if not isinstance(source, ArrivalSource):
            source = ArrivalSource(
                name or f"arrivals-{len(self._arrival_sources) + 1}", source)
        source.rewind()
        self._arrival_sources.append(source)
        return source

    def _pump_arrivals(self, now: float) -> None:
        """Submit every registered arrival due at or before ``now``.

        Sources are pumped in registration order, each in stream order —
        the deterministic submit order the epoch replays run after run.
        """
        for source in self._arrival_sources:
            for arrival in source.pop_due(now):
                try:
                    self.submit(arrival.tenant, arrival.resolve_plan(),
                                arrival.mode, label=arrival.label,
                                at=arrival.at, deadline=arrival.deadline)
                except AdmissionError:
                    # Open-loop clients do not stop arriving because the
                    # server pushed back; the rejection is on the report.
                    pass

    def _next_arrival_time(self) -> float | None:
        """Earliest undelivered arrival across all sources (if any)."""
        heads = [source.peek().at for source in self._arrival_sources
                 if not source.exhausted]
        return min(heads) if heads else None

    # ------------------------------------------------------------------
    # The serving loop
    # ------------------------------------------------------------------
    def run(self) -> ServerReport:
        """Drain every queued submission; deterministic and single-threaded.

        Server time starts at zero (a fresh occupancy epoch) and advances
        event by event: admit everything dispatchable now, else jump to
        the next completion, future submission, scheduled fault or breaker
        probe.  Functional execution happens at dispatch — one query at a
        time, against the shared cache — while the scheduler lays the
        measured busy seconds onto the occupancy board, which is where
        concurrency (and therefore throughput) lives.

        The drain is exception-safe: per-query failures are isolated to
        their ticket; anything else (a programming error escaping the
        engine) unwinds the epoch — queued and running tickets are
        finalized as failed, admission state is released, injected faults
        are healed — and re-raises as :class:`ServingError` carrying the
        coherent partial report on its ``report`` attribute.  The server
        remains usable for the next epoch either way.
        """
        self._injector = FaultInjector(self.fault_plan, self.topology)
        self.topology.reset_occupancy()
        self.lifecycle.trace_health(0.0, None)
        # Seed the epoch's canonical cache-key set: commits classify
        # hits/misses against it in pick order (see SharedQueryCache).
        self.query_cache.begin_epoch()
        try:
            self._drain()
        except Exception as exc:
            self.lifecycle.abort(self._epoch_tickets, self._now, exc)
            report = self._close_epoch()
            if isinstance(exc, ServingError):
                exc.report = report
                raise
            error = ServingError(f"serving epoch aborted: {exc}")
            error.report = report
            raise error from exc
        finally:
            self._injector.restore_all()
            self.breaker.restore_all()
            self._arrival_sources = []
        return self._close_epoch()

    def _drain(self) -> None:
        completions: list[tuple[float, int, _Attempt]] = []
        now = self._now = 0.0
        self._apply_faults(now, completions)
        self._pump_arrivals(now)
        while True:
            # One dispatch path at every worker count: the serial pool
            # simply maps execution groups in order on this thread, so
            # workers=1 exercises the same bookkeeping/execute/commit
            # phases (and the same deterministic cache attribution) as a
            # concurrent drain.
            self._dispatch_admissible(now, completions)
            events = []
            while completions and completions[0][2].cancelled:
                heapq.heappop(completions)
            if completions:
                events.append(completions[0][0])
            future_submit = self.admission.earliest_future_submit(now)
            if future_submit is not None:
                events.append(future_submit)
            arrival_at = self._next_arrival_time()
            if arrival_at is not None:
                # Open-loop: undelivered arrivals extend the epoch — the
                # server idles forward to the next arrival if it must.
                events.append(max(arrival_at, now))
            if not events:
                if self.admission.has_queued():  # pragma: no cover
                    raise ServingError(
                        "admission deadlock: queued work but no runnable "
                        "query and no pending completion")
                break
            # Scheduled faults and breaker probes only matter while work
            # remains; they never extend the epoch on their own.
            fault_at = self._injector.next_event_time(now)
            if fault_at is not None:
                events.append(fault_at)
            probe_at = self.breaker.next_probe_time(now)
            if probe_at is not None:
                events.append(probe_at)
            now = self._now = min(events)
            while completions and completions[0][0] <= now:
                _, _, attempt = heapq.heappop(completions)
                if not attempt.cancelled:
                    self.lifecycle.end_attempt(
                        attempt.ticket, attempt.placement.finish,
                        attempt.outcome, attempt)
            self._apply_faults(now, completions)
            self._pump_arrivals(now)

    def _apply_faults(self, now: float, completions: list) -> None:
        """Apply scheduled faults/probes due at ``now``; kill stranded work."""
        newly_failed = self._injector.advance(now)
        self.breaker.advance(now)
        self.lifecycle.trace_health(now, "schedule")
        if not newly_failed:
            return
        for _, _, attempt in completions:
            placement = attempt.placement
            if attempt.cancelled or placement.finish <= now:
                continue
            lost = next((name for name in newly_failed
                         if name in placement.resources), None)
            if lost is not None:
                # The injector already took the device out of rotation, so
                # the error blames no device for the breaker to count.
                self.lifecycle.end_attempt(
                    attempt.ticket, now,
                    DeviceUnavailableError(
                        self.topology.device(lost).kind.value,
                        f"device {lost!r} failed mid-query"),
                    attempt)

    # ------------------------------------------------------------------
    # Dispatch: one execution attempt
    # ------------------------------------------------------------------
    def _execute_attempt(self, ticket: QueryTicket) -> tuple[
            QueryResult | None, CacheBracket, ReproError | None]:
        """Functionally execute one attempt (safe off the drain thread).

        Touches only thread-safe state: the tenant's session (one thread
        runs a given tenant at a time), the shared cache and the
        catalog.  No admission, occupancy or ticket bookkeeping happens
        here — that stays on the coordinating thread.  Cache traffic is
        *traced* into the returned bracket, not counted: the coordinating
        thread commits brackets in canonical pick order, which is what
        makes hit/miss attribution deterministic at any worker count.
        """
        session = self.session(ticket.tenant)
        with self.query_cache.tenant(ticket.tenant) as bracket:
            try:
                result = session.execute(ticket.plan, ticket.current_mode)
            except ReproError as error:
                return None, bracket, error
        return result, bracket, None

    def _enqueue_attempt(self, ticket: QueryTicket, now: float,
                         completions: list, result: QueryResult,
                         cache_delta: CacheCounters) -> None:
        """Reserve a successfully executed attempt on the occupancy board.

        Must run on the coordinating thread in canonical pick order —
        occupancy reservations are order-sensitive (list scheduling).
        """
        tenant = ticket.tenant
        deadline = ticket.deadline_time
        needed = tuple(self.scheduler.reservations(result))
        board = self.topology.occupancy
        # An interactive arrival that would wait behind running batch work
        # may evict it first (at a morsel boundary), so preemption happens
        # before the start estimate and the reservation.
        if (self.preemption
                and self.admission.policy(tenant).rank == 0
                and board.available_at(needed) > now):
            self._preempt_for(needed, now, completions)
        # Decide — before reserving — how this attempt will end: an
        # injected fault may kill it mid-run, and the deadline may cut it
        # short.  The start estimate reproduces the occupancy board's own
        # rule (max of availability and now), so the reservation below
        # lands at exactly this start.
        start = max(board.available_at(needed), now)
        sim = result.simulated_seconds
        fault = self._injector.attempt_fault(tenant, ticket.label,
                                             ticket.attempts)
        outcome, dies_at = SUCCESS, start + sim
        if fault is not None:
            dies_at = start + fault.fraction * sim
            if fault.kind == "device" and fault.device is not None:
                outcome = DeviceUnavailableError(
                    self.topology.device(fault.device).kind.value,
                    fault.message, device=fault.device)
            else:
                outcome = FaultError(fault.message)
        if deadline is not None and dies_at > deadline:
            outcome, dies_at = DEADLINE, deadline
        fraction = 1.0
        if outcome != SUCCESS and sim > 0.0:
            fraction = min(max((dies_at - start) / sim, 0.0), 1.0)
        placement = self.scheduler.dispatch(
            result, earliest=now, label=f"{tenant}:{ticket.label}",
            fraction=fraction)
        self.lifecycle.event(ticket, now, "dispatch",
                             mode=ticket.current_mode,
                             start=placement.start, finish=placement.finish,
                             resources=",".join(placement.resources))
        heapq.heappush(completions, (
            placement.finish, next(self._event_seq),
            _Attempt(ticket, outcome, placement, result, cache_delta)))

    # ------------------------------------------------------------------
    # Preemption: interactive arrivals evict running batch work
    # ------------------------------------------------------------------
    @staticmethod
    def _morsel_boundary(attempt: _Attempt, now: float) -> float:
        """Earliest morsel boundary of ``attempt`` at or after ``now``.

        The attempt's span divides evenly over the morsels its execution
        dispatched — preemption is cooperative, a victim yields between
        morsels, never mid-kernel.  A cache-served attempt dispatched no
        morsels and is treated as one indivisible unit.
        """
        start, finish = attempt.placement.start, attempt.placement.finish
        span = finish - start
        if span <= 0.0:
            return start
        steps = max(attempt.result.morsels_dispatched, 1)
        delta = span / steps
        index = max(math.ceil((now - start) / delta - 1e-12), 0)
        return min(start + index * delta, finish)

    def _preempt_for(self, needed: tuple[str, ...], now: float,
                     completions: list) -> None:
        """Evict running batch attempts holding resources in ``needed``.

        Victims are considered in completion order (earliest reserved
        finish first — the canonical deterministic order): a victim must
        be an uncancelled, still-running successful attempt of a
        batch-priority tenant whose *aged* rank is still below
        interactive — a batch query that has waited long enough to age to
        the top class is starvation-protected and cannot be evicted
        again.  Each victim is killed at its next morsel boundary: the
        busy time up to the kill stays on the occupancy board (and on the
        ticket as wasted seconds), the reservation tail is released there
        and the query re-queues to run again, its eventual result
        bit-identical.  Stops as soon as every needed resource is free.
        """
        for _, _, attempt in sorted(completions, key=lambda e: (e[0], e[1])):
            if self.topology.occupancy.available_at(needed) <= now:
                break
            placement = attempt.placement
            if attempt.cancelled or attempt.outcome != SUCCESS:
                continue
            if placement.finish <= now:
                continue
            ticket = attempt.ticket
            policy = self.admission.policy(ticket.tenant)
            if policy.priority != "batch":
                continue
            if self.admission.aged_rank(
                    policy.rank, now - ticket.submit_time) == 0:
                continue
            if not set(placement.resources) & set(needed):
                continue
            kill = self._morsel_boundary(attempt, now)
            if kill < placement.finish:
                self.lifecycle.end_attempt(ticket, kill, PREEMPTED, attempt)

    def _dispatch_admissible(self, now: float, completions: list) -> None:
        """Drain every currently admissible pick (workers optional).

        Three phases per batch, repeated until nothing is admissible:
        bookkeeping (deadline checks, attempt counting, auto-mode
        resolution) in pick order on this thread; functional execution
        grouped by tenant on worker threads (sessions are not reentrant,
        so one tenant's picks run sequentially inside their group); then
        post-processing — cache-bracket commits, failure routing and
        occupancy reservations — back on this thread in pick order, which
        keeps both the board's order-sensitive ledgers and the shared
        cache's hit/miss attribution canonical.  With ``workers=1`` the
        pool maps the groups serially on this thread, same phases, same
        attribution.
        """
        while True:
            picks = []
            while (pick := self.admission.next_admissible(now)) is not None:
                picks.append(pick[1])
            if not picks:
                return
            runnable = []
            for ticket in picks:
                deadline = ticket.deadline_time
                if deadline is not None and now >= deadline:
                    self.lifecycle.end_attempt(ticket, now, DEADLINE)
                    continue
                if ticket.current_mode == "auto":
                    # Resolved here, not at submit, so the choice sees the
                    # breaker/fault state of the devices and the occupancy
                    # the epoch has accumulated; the resolved mode then
                    # walks the failover ladder like any explicit one.
                    optimizer = self.session(ticket.tenant).optimizer
                    ticket.current_mode = optimizer.choose_mode(
                        ticket.plan,
                        self.scheduler.least_loaded_kind()).value
                self.lifecycle.admit(ticket, now)
                runnable.append(ticket)
            groups: dict[str, list[QueryTicket]] = {}
            for ticket in runnable:
                groups.setdefault(ticket.tenant, []).append(ticket)

            def run_group(tickets: list[QueryTicket]) -> list:
                return [(ticket.ticket_id, self._execute_attempt(ticket))
                        for ticket in tickets]

            outcomes: dict[int, tuple] = {}
            for group in self._pool.map_ordered(run_group,
                                                list(groups.values())):
                outcomes.update(group)
            for ticket in runnable:
                result, bracket, error = outcomes[ticket.ticket_id]
                # Commit in pick order even for failed attempts: the
                # lookups they performed before failing are real traffic
                # and keep global/tenant counters reconciled exactly.
                cache_delta = self.query_cache.commit(bracket)
                if error is not None:
                    self.lifecycle.end_attempt(ticket, now, error)
                else:
                    self._enqueue_attempt(ticket, now, completions, result,
                                          cache_delta)

    # ------------------------------------------------------------------
    # Closing an epoch: report and trace
    # ------------------------------------------------------------------
    def _close_epoch(self) -> ServerReport:
        """Fold the epoch's tickets into its report (and trace); reset.

        Both a drained and an aborted epoch end here: one fold over the
        tickets in submission order builds the server-wide and per-tenant
        accounting, and the ticket buffer resets for the next epoch.
        """
        report = ServerReport(tickets=self._epoch_tickets, tenants={},
                              makespan=0.0, serial_seconds=0.0,
                              cache=self.query_cache.stats())
        for ticket in report.tickets:
            if ticket.tenant not in report.tenants:
                report.tenants[ticket.tenant] = TenantReport(
                    slo_p99_seconds=self.admission.policy(
                        ticket.tenant).slo_p99_seconds)
            report.count(ticket)
            report.tenants[ticket.tenant].count(ticket)
        self.last_report = report
        self.last_trace = self._build_epoch_trace(report)
        self._epoch_tickets = []
        return report

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _build_epoch_trace(self, report: ServerReport) -> EpochTrace | None:
        """Assemble the epoch's trace from the tracer's committed events.

        Called once per epoch on the coordinator thread after the report
        is built: SLO grades are appended (sorted by tenant), per-query
        traces are collected in submission (ticket) order and the shared
        occupancy board is snapshotted.  Draining the tracer here also
        guarantees an aborted epoch cannot leak events into the next one.
        """
        if not self.tracer.enabled:
            return None
        for name in sorted(report.tenants):
            tenant = report.tenants[name]
            if tenant.slo_p99_seconds is None:
                continue
            self.tracer.event(report.makespan, "slo", tenant=name,
                              met=bool(tenant.slo_met),
                              p99=tenant.percentile_latency(99),
                              objective=tenant.slo_p99_seconds)
        queries = []
        for ticket in report.tickets:
            result = ticket.result
            queries.append(TracedQuery(
                ticket=ticket.ticket_id, tenant=ticket.tenant,
                label=ticket.label, status=ticket.status,
                mode=ticket.mode, final_mode=ticket.current_mode,
                submit=ticket.submit_time, start=ticket.start_time,
                finish=ticket.finish_time,
                simulated_seconds=(result.simulated_seconds
                                   if result is not None else 0.0),
                trace=result.trace if result is not None else None))
        return EpochTrace(makespan=report.makespan,
                          events=self.tracer.drain(),
                          queries=queries,
                          occupancy=list(self.topology.occupancy.records()))

    def metrics(self) -> MetricsSnapshot:
        """A scrapeable snapshot of the last epoch plus live server state.

        Combines the most recent :class:`ServerReport` (zeros before the
        first ``run()``), the shared cache's live counters (global and
        per-tenant attribution) and the topology's device health into one
        :class:`MetricsSnapshot` that renders as Prometheus exposition
        text or JSON, plus derived gauges: the epoch's median operator
        q-error and per-device occupancy (busy / makespan).
        """
        return MetricsSnapshot.collect(
            report=self.last_report, cache=self.query_cache.stats(),
            device_health=self.topology.health_report(),
            tenant_cache=self.query_cache.tenant_counters(),
            extra=self._metrics_extra())

    def _metrics_extra(self) -> dict[str, float]:
        """Derived per-epoch gauges for :attr:`MetricsSnapshot.extra`."""
        report = self.last_report
        if report is None:
            return {}
        extra: dict[str, float] = {}
        errors = [op.q_error for ticket in report.tickets
                  if ticket.status == "completed"
                  and ticket.result is not None
                  for op in ticket.result.cardinality.operators]
        if errors:
            extra["epoch_median_q_error"] = float(median(errors))
        if report.makespan > 0.0:
            busy: dict[str, float] = {}
            for tenant in report.tenants.values():
                for resource, seconds in tenant.busy_seconds.items():
                    busy[resource] = busy.get(resource, 0.0) + seconds
            for resource in sorted(busy):
                extra[f'device_occupancy{{device="{resource}"}}'] = (
                    busy[resource] / report.makespan)
        return extra

    def health(self) -> dict:
        """Liveness/readiness view: overall status plus per-device health."""
        devices = self.topology.health_report()
        degraded = sorted(name for name, state in devices.items()
                          if state != "healthy")
        return {"status": "degraded" if degraded else "ok",
                "degraded_devices": degraded, "devices": devices,
                "tenants": sorted(self._sessions)}
