"""The ticket lifecycle: one declared state machine, one exit per attempt.

A :class:`QueryTicket` moves through the statuses of :data:`TRANSITIONS`::

    queued  ─→ running | rejected | timed_out | failed
    running ─→ completed | queued | failed | timed_out

and nowhere else: :func:`transition` is the only function that assigns
``ticket.status`` and it refuses an edge the table does not declare.
Every status change is announced by exactly one trace event
(:data:`EVENT_STATUS` names the status each event moves the ticket to),
so a traced ticket's event sequence *is* its path through the table.

The event loop (:mod:`repro.server.server`) decides *when* things happen;
:class:`TicketLifecycle` decides what they mean.  The loop calls
:meth:`~TicketLifecycle.submit`, :meth:`~TicketLifecycle.admit` and — for
every way an attempt can end — :meth:`~TicketLifecycle.end_attempt`, which
is the one place that releases the admission slot, frees a killed
attempt's reservation tail, charges wasted seconds, tells the circuit
breaker, and then re-queues the ticket or finalizes it:

============================  =============================  ==========
outcome                       edge                           charges
============================  =============================  ==========
``SUCCESS``                   running → completed            breaker success
``DEADLINE``                  queued/running → timed_out     waste
``PREEMPTED``                 running → queued               waste; the attempt is refunded
device-scoped error           running → queued (failover)    waste; breaker when a device is blamed
  … ladder exhausted          running → failed
other error                   running → queued (retry)       waste; one retry + backoff
  … retry budget exhausted    running → failed
============================  =============================  ==========
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..engine.querycache import CacheCounters
from ..engine.session import QueryResult
from ..errors import (
    AdmissionError,
    DeviceUnavailableError,
    OptimizerError,
    OutOfDeviceMemoryError,
    QueryTimeoutError,
    RetryExhaustedError,
    ServingError,
)
from ..faults import CircuitBreaker
from ..obs.tracer import Tracer
from ..relational.logical import LogicalPlan
from .admission import AdmissionController, RetryPolicy
from .scheduler import DeviceScheduler, Placement

#: Mode-degradation ladder for device-scoped failures: a query that cannot
#: run in its mode is re-planned one rung down.  CPU-only has no rung left.
MODE_DEGRADATION = {"gpu": "hybrid", "hybrid": "cpu"}

#: Legal status transitions; statuses with no way out are terminal.
TRANSITIONS: dict[str, tuple[str, ...]] = {
    "queued": ("running", "rejected", "timed_out", "failed"),
    "running": ("completed", "queued", "failed", "timed_out"),
    "completed": (),
    "rejected": (),
    "failed": (),
    "timed_out": (),
}
TERMINAL = frozenset(status for status, after in TRANSITIONS.items()
                     if not after)

#: The status each status-changing trace event moves its ticket to (a
#: ticket is born ``queued`` with its ``submit`` event).
EVENT_STATUS = {
    "admit": "running",
    "reject": "rejected",
    "complete": "completed",
    "failed": "failed",
    "timeout": "timed_out",
    "preempt": "queued",
    "retry": "queued",
    "failover": "queued",
}

#: The ways an attempt ends other than with an error (an error outcome is
#: the exception itself).
SUCCESS, DEADLINE, PREEMPTED = "success", "deadline", "preempted"


@dataclass
class QueryTicket:
    """One submission's lifecycle: queued → completed/failed/timed_out.

    Times are simulated *server* seconds.  ``queue_wait`` spans submission
    to (final-attempt) execution start — admission blocking, device
    contention and retry backoff; ``latency`` additionally includes the
    query's own simulated makespan.  The functional answer is reachable
    through :attr:`result`.  ``wasted_seconds`` sums the simulated time
    burned by attempts that a fault killed; the successful attempt's
    :attr:`simulated_seconds` never includes waste.
    """

    ticket_id: int
    tenant: str
    label: str
    plan: LogicalPlan
    mode: str
    submit_time: float
    estimated_bytes: int
    #: One of the keys of :data:`TRANSITIONS`.
    status: str = "queued"
    start_time: float = 0.0
    finish_time: float = 0.0
    reserved: tuple[str, ...] = ()
    result: QueryResult | None = None
    cache: CacheCounters = field(default_factory=CacheCounters)
    #: Execution mode of the current/most recent attempt (the failover
    #: ladder rewrites this; :attr:`mode` keeps the requested mode).
    current_mode: str = ""
    deadline_seconds: float | None = None
    attempts: int = 0
    retries: int = 0
    failovers: int = 0
    preemptions: int = 0
    wasted_seconds: float = 0.0
    error: str | None = None

    def __post_init__(self) -> None:
        if not self.current_mode:
            self.current_mode = self.mode

    @property
    def queue_wait(self) -> float:
        return self.start_time - self.submit_time

    @property
    def latency(self) -> float:
        return self.finish_time - self.submit_time

    @property
    def simulated_seconds(self) -> float:
        return self.result.simulated_seconds if self.result else 0.0

    @property
    def final_mode(self) -> str:
        """The mode of the last attempt (post-failover)."""
        return self.current_mode

    @property
    def deadline_time(self) -> float | None:
        """Absolute server time of the deadline (None = unbounded)."""
        if self.deadline_seconds is None:
            return None
        return self.submit_time + self.deadline_seconds


@dataclass
class _Attempt:
    """One in-flight execution attempt on the completions heap."""

    ticket: QueryTicket
    #: How the attempt ends if it reaches its reserved finish: ``SUCCESS``,
    #: ``DEADLINE`` or the injected fault's error.
    outcome: str | Exception
    placement: Placement
    result: QueryResult
    cache_delta: CacheCounters
    cancelled: bool = False


def transition(ticket: QueryTicket, status: str) -> None:
    """Move ``ticket`` along one declared edge of :data:`TRANSITIONS`."""
    if status not in TRANSITIONS[ticket.status]:
        raise ServingError(
            f"illegal ticket transition {ticket.status} → {status} "
            f"(ticket {ticket.ticket_id}, {ticket.tenant}:{ticket.label})")
    ticket.status = status


def _elapsed_fraction(placement: Placement, at: float) -> float:
    """How far through its reserved span a placement is at ``at``."""
    span = placement.finish - placement.start
    if span <= 0.0:
        return 0.0
    return min(max((at - placement.start) / span, 0.0), 1.0)


class TicketLifecycle:
    """Applies the ticket state machine on behalf of the event loop.

    Owns what the machine's edges consult — the retry policies (server
    default plus per-tenant overrides) — and, because breaker verdicts
    change device health mid-edge, the ``device_health`` trace events.
    It holds no reference back to the server.
    """

    def __init__(self, admission: AdmissionController,
                 scheduler: DeviceScheduler, breaker: CircuitBreaker,
                 tracer: Tracer, retry_policy: RetryPolicy) -> None:
        self.admission = admission
        self.scheduler = scheduler
        self.breaker = breaker
        self.tracer = tracer
        self.default_retry_policy = retry_policy
        #: Per-tenant overrides of the default retry policy.
        self.retry_policies: dict[str, RetryPolicy] = {}
        #: Device-health baseline the transition events are diffed from.
        self._last_health: dict[str, str] = {}

    def retry_policy(self, tenant: str) -> RetryPolicy:
        """The retry policy in force for one tenant."""
        return self.retry_policies.get(tenant, self.default_retry_policy)

    # ------------------------------------------------------------------
    # Events and transitions
    # ------------------------------------------------------------------
    def event(self, ticket: QueryTicket, at: float, kind: str,
              **attrs: object) -> None:
        """Record a trace event about ``ticket`` (stamped with its names)."""
        self.tracer.event(at, kind, tenant=ticket.tenant, query=ticket.label,
                          ticket=ticket.ticket_id, **attrs)

    def trace_health(self, at: float, cause: str | None) -> None:
        """Emit a ``device_health`` event per device whose state changed.

        ``cause=None`` only takes the baseline (the start of an epoch).
        Runs on the coordinator thread at deterministic simulated times
        (fault-schedule and breaker edges), so the events land in the
        trace in the same order at every worker count.
        """
        if not self.tracer.enabled:
            return
        health = self.scheduler.topology.health_report()
        if cause is not None:
            for name in sorted(health):
                if self._last_health.get(name) != health[name]:
                    self.tracer.event(at, "device_health", device=name,
                                      state=health[name], cause=cause)
        self._last_health = dict(health)

    def _move(self, ticket: QueryTicket, at: float, event: str,
              **attrs: object) -> None:
        """Take the edge ``event`` stands for and announce it."""
        transition(ticket, EVENT_STATUS[event])
        self.event(ticket, at, event, **attrs)

    # ------------------------------------------------------------------
    # Into the machine
    # ------------------------------------------------------------------
    def submit(self, ticket: QueryTicket) -> None:
        """Queue a new ticket; a refused one is rejected and re-raised."""
        self.event(ticket, ticket.submit_time, "submit", mode=ticket.mode)
        try:
            self.admission.submit(ticket.tenant, ticket,
                                  estimated_bytes=ticket.estimated_bytes,
                                  at=ticket.submit_time)
        except AdmissionError as exc:
            self._move(ticket, ticket.submit_time, "reject", reason=str(exc))
            raise

    def admit(self, ticket: QueryTicket, at: float) -> None:
        """Start one attempt of a ticket the admission controller picked."""
        ticket.attempts += 1
        self._move(ticket, at, "admit", attempt=ticket.attempts,
                   mode=ticket.current_mode)

    # ------------------------------------------------------------------
    # Out of an attempt
    # ------------------------------------------------------------------
    def end_attempt(self, ticket: QueryTicket, at: float,
                    outcome: str | Exception,
                    attempt: _Attempt | None = None) -> None:
        """End the ticket's current attempt at server time ``at``.

        ``outcome`` is ``SUCCESS``, ``DEADLINE``, ``PREEMPTED`` or the
        exception the attempt failed with; ``attempt`` is its entry on the
        occupancy board, absent when it ended before reserving anything
        (a deadline already past at dispatch, a synchronous execution
        error).  An attempt that dies before its reserved finish occupied
        the hardware only until ``at``: its reservation tail is released
        there, so a follow-on query starts at the kill instant.
        """
        self.admission.on_finish(ticket.tenant, ticket.estimated_bytes)
        if attempt is not None and outcome != SUCCESS:
            placement = attempt.placement
            if at < placement.finish:
                attempt.cancelled = True
                self.scheduler.release(
                    placement, fraction=_elapsed_fraction(placement, at))
            ticket.wasted_seconds += max(at - placement.start, 0.0)
        if outcome == SUCCESS:
            self._complete(ticket, at, attempt)
        elif outcome == DEADLINE:
            self._finalize(ticket, max(at, ticket.deadline_time),
                           QueryTimeoutError(ticket.label,
                                             ticket.deadline_seconds))
        elif outcome == PREEMPTED:
            # Preemption is the server's choice, not the query's failure:
            # the attempt does not count against the retry budget.
            ticket.preemptions += 1
            ticket.attempts -= 1
            self._requeue(ticket, at, at, "preempt")
        elif isinstance(outcome, (OutOfDeviceMemoryError,
                                  DeviceUnavailableError, OptimizerError)):
            self._fail_over(ticket, at, outcome)
        else:
            self._retry(ticket, at, outcome)

    def _complete(self, ticket: QueryTicket, at: float,
                  attempt: _Attempt) -> None:
        placement = attempt.placement
        ticket.start_time = placement.start
        ticket.finish_time = placement.finish
        ticket.reserved = placement.resources
        ticket.result = attempt.result
        ticket.cache = attempt.cache_delta
        ticket.error = None
        self.breaker.record_success(placement.resources)
        self.trace_health(at, "breaker")
        # Cache attribution on the event comes from the *committed*
        # counters (deterministic at every worker count), not raw
        # per-span lookups — see docs/OBSERVABILITY.md.
        self._move(ticket, at, "complete",
                   simulated_seconds=attempt.result.simulated_seconds,
                   cache_hits=attempt.cache_delta.hits,
                   cache_misses=attempt.cache_delta.misses)

    def _fail_over(self, ticket: QueryTicket, at: float,
                   error: Exception) -> None:
        """Walk the mode-degradation ladder; fail when it is exhausted.

        Failovers do not consume retry attempts: changing mode is the
        server adapting placement (the paper's core premise), not the
        query being flaky.  An error that names the device at fault (the
        paper's Q9-on-GPU out-of-memory case, an injected device fault)
        is first counted against that device by the breaker; one with no
        single device to blame goes straight to the ladder.
        """
        blamed = getattr(error, "device", None)
        if blamed is not None:
            self.breaker.record_failure(blamed, at)
            self.trace_health(at, "breaker")
        from_mode = ticket.current_mode
        to_mode = MODE_DEGRADATION.get(from_mode)
        if to_mode is None:
            self._finalize(ticket, at, error)
            return
        ticket.failovers += 1
        ticket.current_mode = to_mode
        self._requeue(ticket, at, at, "failover", from_mode=from_mode,
                      to_mode=to_mode, error=type(error).__name__)

    def _retry(self, ticket: QueryTicket, at: float,
               error: Exception) -> None:
        """Retry under the tenant policy; exhausted retries fail cleanly."""
        policy = self.retry_policy(ticket.tenant)
        if ticket.attempts >= policy.max_attempts:
            self._finalize(ticket, at, RetryExhaustedError(
                ticket.label, ticket.attempts, error))
            return
        ticket.retries += 1
        # Simulated backoff: the ticket sits out the wait in its queue, so
        # the backoff surfaces as queue wait, never as device time.
        resume_at = at + policy.backoff(ticket.attempts)
        self._requeue(ticket, at, resume_at, "retry",
                      attempt=ticket.attempts, resume_at=resume_at,
                      error=type(error).__name__)

    def _requeue(self, ticket: QueryTicket, at: float, ready_at: float,
                 event: str, **attrs: object) -> None:
        """Send a running ticket back to its queue, dispatchable at
        ``ready_at``."""
        self._move(ticket, at, event, **attrs)
        self.admission.requeue(ticket.tenant, ticket,
                               estimated_bytes=ticket.estimated_bytes,
                               at=ready_at)

    def _finalize(self, ticket: QueryTicket, at: float,
                  error: Exception) -> None:
        """Terminal failure: timed out on a missed deadline, else failed."""
        ticket.finish_time = at
        ticket.result = None
        ticket.error = str(error)
        if isinstance(error, QueryTimeoutError):
            self._move(ticket, at, "timeout",
                       deadline_seconds=ticket.deadline_seconds)
        else:
            self._move(ticket, at, "failed", error=ticket.error)

    def abort(self, tickets: Iterable[QueryTicket], at: float,
              cause: Exception) -> None:
        """Unwind an epoch the drain could not finish.

        Every ticket still queued or running fails at the server time the
        drain had reached (never before its own submission), and the
        admission controller drops its queues and in-flight accounting.
        """
        for ticket in tickets:
            if ticket.status not in TERMINAL:
                self._finalize(ticket, max(at, ticket.submit_time),
                               ServingError(f"epoch aborted: {cause}"))
        self.admission.abort_epoch()
