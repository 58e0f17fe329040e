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
  simulated server time and driven by one thread, which executes the
  admitted queries one at a time in admission pick order, so interleaved
  multi-tenant runs return exactly the tables a serial run returns, in a
  reproducible order, and the shared cache counts each lookup as it
  happens.

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
from typing import Sequence

from ..engine.querycache import (
    DEFAULT_CACHE_BUDGET_BYTES,
    CacheCounters,
    QueryCacheStats,
)
from ..engine.session import HAPEEngine, QueryResult
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
from ..obs.trace import EpochTrace
from ..obs.tracer import Tracer
from ..relational.logical import LogicalPlan
from ..storage.catalog import Catalog
from ..storage.table import Table
from .admission import AdmissionController, RetryPolicy, TenantPolicy
from .arrivals import Arrival, ArrivalSource
from .lifecycle import (
    ARRIVAL,
    ATTEMPT_END,
    DEADLINE,
    EXPIRY,
    PREEMPTED,
    STRIKE,
    SUCCESS,
    TERMINAL,
    WAKE,
    QueryTicket,
    TicketLifecycle,
    _Attempt,
)
from .metrics import MetricsSnapshot
from .scheduler import DeviceScheduler, Placement
from .sharedcache import SharedQueryCache


def percentile(values: Sequence[float], q: float) -> float:
    """``np.percentile(values, q)`` bit for bit (linear interpolation
    between the two order statistics around ``(n - 1) * q / 100``, with
    NumPy's two-sided formula), without building an array; ``0.0`` for no
    values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = (len(ordered) - 1) * (q / 100)
    if index >= len(ordered) - 1:
        return float(ordered[-1])
    below = math.floor(index)
    low, high = ordered[below], ordered[below + 1]
    gamma, diff = index - below, high - low
    return float(high - diff * (1 - gamma) if gamma >= 0.5
                 else low + diff * gamma)


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
    peak_intermediate_bytes: int = 0
    latencies: list[float] = field(default_factory=list)
    #: The tenant policy's latency objective, copied onto the report so
    #: SLO grading travels with the numbers it grades.
    slo_p99_seconds: float | None = None
    #: The completed tickets' cache hits, misses, evictions and
    #: invalidations, summed in place (:attr:`cache`).
    _cache: list[int] = field(default_factory=lambda: [0, 0, 0, 0],
                              init=False, repr=False)

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
        cache, counts = ticket.cache, self._cache
        counts[0] += cache.hits
        counts[1] += cache.misses
        counts[2] += cache.evicted
        counts[3] += cache.invalidated
        self.peak_intermediate_bytes = max(self.peak_intermediate_bytes,
                                           result.peak_intermediate_bytes)
        self.latencies.append(ticket.latency)

    @property
    def cache(self) -> CacheCounters:
        """The shared-cache counters of the tenant's completed tickets."""
        return CacheCounters(*self._cache)

    def percentile_latency(self, q: float) -> float:
        return percentile(self.latencies, q)

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
        return percentile([t.latency for t in self.tickets
                           if t.status == "completed"], q)

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
        Not a knob: one thread drives a server.  Kept for callers that
        still pass ``workers=1``; any other value raises ``ValueError``.
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
        events are recorded in canonical admission pick order, so the
        trace is byte-identical across replays.  Off by default with
        near-zero overhead (one flag check per lifecycle point); serving
        results, reports and metrics are bit-identical with tracing on or
        off.
    """

    def __init__(self, topology: Topology | None = None, *,
                 cache_budget_bytes: int | None = DEFAULT_CACHE_BUDGET_BYTES,
                 fault_plan: FaultPlan | None = None,
                 retry_policy: RetryPolicy | None = None,
                 breaker_threshold: int = 3,
                 breaker_cooldown_seconds: float = 1.0,
                 workers: int = 1,
                 preemption: bool = False,
                 aging_seconds: float | None = None,
                 tracing: bool = False) -> None:
        if workers != 1:
            raise ValueError(f"one thread drives a server: workers must "
                             f"be 1, got {workers!r}")
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
        self._sessions: dict[str, HAPEEngine] = {}
        self._ticket_ids = itertools.count(1)
        #: Tickets awaiting (or rejected since) the next ``run()`` drain.
        self._epoch_tickets: list[QueryTicket] = []
        #: Open-loop arrival streams the next ``run()`` drain delivers.
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
        #: appends happen in canonical order.
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
        every referenced table) when the estimate is unbacked.  The
        working set is the one kept on the plan's records in the tenant's
        session (:meth:`~repro.engine.session.HAPEEngine.working_set`), so
        a resubmitted plan is neither estimated nor folded again.
        """
        working_set = self.session(tenant).working_set(plan)
        if working_set.backed:
            return int(working_set.total_bytes)
        return int(sum(self.catalog.statistics(name).nbytes
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
        self._arrival_sources.append(source)
        return source

    def _arrive(self, arrival: Arrival) -> None:
        """Submit one arrival as server time reaches it."""
        try:
            self.submit(arrival.tenant, arrival.resolve_plan(), arrival.mode,
                        label=arrival.label, at=arrival.at,
                        deadline=arrival.deadline)
        except AdmissionError:
            # Open-loop clients do not stop arriving because the server
            # pushed back; the rejection is on the report.
            pass

    # ------------------------------------------------------------------
    # The serving loop
    # ------------------------------------------------------------------
    def run(self) -> ServerReport:
        """Drain every queued submission; deterministic and single-threaded.

        Server time starts at zero (a fresh occupancy epoch) and advances
        over one event heap: each event is posted as soon as it is known,
        and each instant is handled in the order of kinds declared at
        :data:`~repro.server.lifecycle.ATTEMPT_END`.  Open tickets and
        undelivered arrivals keep the epoch going; faults, probes and
        deadlines never extend it.  Functional execution happens at
        dispatch — one query at a time, against the shared cache — while
        the scheduler lays the measured busy seconds onto the occupancy
        board, which is where concurrency (and therefore throughput) lives.

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
            self.lifecycle.events.clear()
        return self._close_epoch()

    def _drain(self) -> None:
        lifecycle, events = self.lifecycle, self.lifecycle.events
        for at in self._injector.times:
            lifecycle.post(at, STRIKE)
        for source in self._arrival_sources:
            for arrival in source:
                lifecycle.post(arrival.at, ARRIVAL, arrival)
        undelivered = sum(map(len, self._arrival_sources))
        now = self._now = 0.0
        dispatch_due = False
        while events or dispatch_due:
            # Past the last event only the dispatch may still be due.
            at, kind, _, payload = (events[0] if events
                                    else (math.inf, EXPIRY, 0, None))
            if dispatch_due and (at, kind) > (now, WAKE):
                # Every event of ``now`` that comes before it is handled.
                dispatch_due = False
                self._dispatch_admissible(now)
                continue
            if at > now and not (lifecycle.open or undelivered):
                break
            heapq.heappop(events)
            # A cancelled attempt's end, and a wake or an expiry of a
            # ticket no longer queued, stand for nothing.
            if (payload.cancelled if kind == ATTEMPT_END
                    else kind >= WAKE and payload.status != "queued"):
                continue
            now = self._now = at
            if kind == ATTEMPT_END:
                lifecycle.end_attempt(payload.ticket, at, payload.outcome,
                                      payload)
            elif kind == STRIKE:
                self._apply_faults(now)
            elif kind == ARRIVAL:
                undelivered -= 1
                self._arrive(payload)
            elif kind == EXPIRY:
                lifecycle.expire(payload)
            dispatch_due = True
        if lifecycle.open:  # pragma: no cover
            raise ServingError("admission deadlock: queued work but no "
                               "runnable query and no pending completion")

    def _apply_faults(self, now: float) -> None:
        """Apply scheduled faults/probes due at ``now``; kill stranded work."""
        newly_failed = self._injector.advance(now)
        self.breaker.advance(now)
        self.lifecycle.trace_health(now, "schedule")
        if not newly_failed:
            return
        for attempt in self.lifecycle.live_attempts():
            lost = next((name for name in newly_failed
                         if name in attempt.placement.resources), None)
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
            QueryResult | None, CacheCounters, ReproError | None]:
        """Functionally execute one attempt in the tenant's session.

        Touches only the session, the shared cache and the catalog; no
        admission, occupancy or ticket bookkeeping happens here.  The
        shared cache's hits and misses during the attempt — failed or not,
        its lookups are real traffic — are the attempt's cache delta: the
        window its execution closed, attributed to its tenant.
        """
        session = self.session(ticket.tenant)
        last = session.executor.cache_delta
        result = error = None
        try:
            result = session.execute(ticket.plan, ticket.current_mode)
        except ReproError as exc:
            error = exc
        # Every execution closes a new window; an attempt refused while it
        # was planned looked nothing up and closed none.
        window = session.executor.cache_delta
        return (result, self.query_cache.attribute(
            ticket.tenant, CacheCounters() if window is last else window),
            error)

    def _enqueue_attempt(self, ticket: QueryTicket, now: float,
                         result: QueryResult,
                         cache_delta: CacheCounters) -> None:
        """Reserve a successfully executed attempt on the occupancy board.

        Runs in canonical pick order — occupancy reservations are
        order-sensitive (list scheduling).
        """
        tenant = ticket.tenant
        deadline = ticket.deadline_time
        needed = self.scheduler.reservations(result)
        board = self.topology.occupancy
        # An interactive arrival that would wait behind running batch work
        # may evict it first (at a morsel boundary), so preemption happens
        # before the start estimate and the reservation.
        if (self.preemption
                and self.admission.policy(tenant).rank == 0
                and board.available_at(needed) > now):
            self._preempt_for(needed, now)
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
        if start > dies_at:
            # The board frees only after the deadline: the attempt never
            # starts, reserves nothing and ends at its deadline.
            placement = Placement(dies_at, dies_at, (), ())
        else:
            placement = self.scheduler.dispatch(
                result, needed, start=start,
                label=f"{tenant}:{ticket.label}", fraction=fraction)
            if self.tracer.enabled:
                self.lifecycle.event(
                    ticket, now, "dispatch", mode=ticket.current_mode,
                    start=placement.start, finish=placement.finish,
                    resources=",".join(placement.resources))
        self.lifecycle.post(placement.finish, ATTEMPT_END, _Attempt(
            ticket, outcome, placement, result, cache_delta))

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

    def _preempt_for(self, needed: dict[str, float], now: float) -> None:
        """Evict running batch attempts holding resources in ``needed``.

        ``needed`` is the arriving attempt's reservations (resource name
        -> busy seconds).  Victims are considered in completion order
        (earliest reserved finish first — the canonical deterministic
        order): a victim must be an uncancelled, still-running successful
        attempt of a batch-priority tenant whose *aged* rank is still below
        interactive — a batch query that has waited long enough to age to
        the top class is starvation-protected and cannot be evicted
        again.  Each victim is killed at its next morsel boundary: the
        busy time up to the kill stays on the occupancy board (and on the
        ticket as wasted seconds), the reservation tail is released there
        and the query re-queues to run again, its eventual result
        bit-identical.  Stops as soon as every needed resource is free.
        """
        for attempt in self.lifecycle.live_attempts():
            if self.topology.occupancy.available_at(needed) <= now:
                break
            placement = attempt.placement
            if attempt.outcome != SUCCESS:
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

    def _dispatch_admissible(self, now: float) -> None:
        """Drain every currently admissible pick.

        Three phases per batch, repeated until nothing is admissible, each
        in pick order: bookkeeping (deadline checks, attempt counting,
        auto-mode resolution), so ``"auto"`` sees the board as it stood
        before the batch; functional execution; then failure routing and
        occupancy reservations, which keeps the board's order-sensitive
        ledgers canonical.
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
                    session = self.session(ticket.tenant)
                    ticket.current_mode = session.optimizer.choose_mode(
                        ticket.plan, session.working_set(ticket.plan),
                        self.scheduler.least_loaded_kind()).value
                self.lifecycle.admit(ticket, now)
                runnable.append(ticket)
            outcomes = [self._execute_attempt(ticket) for ticket in runnable]
            for ticket, (result, cache_delta, error) in zip(runnable,
                                                            outcomes):
                if error is not None:
                    self.lifecycle.end_attempt(ticket, now, error)
                else:
                    self._enqueue_attempt(ticket, now, result, cache_delta)

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

        Called once per epoch after the report is built: SLO grades are
        appended (sorted by tenant), the report's tickets become the
        trace's rows and the shared occupancy board is snapshotted.
        Draining the tracer here also guarantees an aborted epoch cannot
        leak events into the next one.
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
        return EpochTrace(makespan=report.makespan,
                          events=self.tracer.drain(),
                          queries=report.tickets,
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
