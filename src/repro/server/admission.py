"""Admission control for the multi-tenant query server.

The admission controller is the server's front door: every tenant gets a
bounded FIFO queue and a :class:`TenantPolicy` (priority class, concurrency
limit, memory budget), and the controller decides — deterministically —
which queued query is dispatched next:

* **Backpressure.**  Queues are bounded (``max_queue_depth``): a submission
  to a full queue raises :class:`~repro.errors.AdmissionError` immediately
  instead of growing server state without bound.  A query whose estimated
  working set exceeds its tenant's entire memory budget is likewise
  rejected at submit time — it could never be admitted.
* **Concurrency and memory budgets.**  A tenant never has more than
  ``max_concurrency`` queries in flight, and the sum of the estimated
  bytes of its in-flight queries stays within ``memory_budget_bytes``;
  queries that would overflow wait in the queue until a completion frees
  headroom.
* **Priority classes and fairness.**  Dispatch picks the eligible tenant
  with the most urgent priority class first; within a class, tenants are
  served round-robin by dispatch count (the tenant that has been granted
  the fewest dispatches goes first), with arrival order as the final
  deterministic tie-breaker.

The controller knows nothing about devices or time beyond the submit
timestamps it gates on — placement is the scheduler's job
(:mod:`repro.server.scheduler`) and the event loop lives in
:mod:`repro.server.server`.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from ..errors import AdmissionError, ServingError, UnknownTenantError

#: Priority classes in dispatch order: lower rank dispatches first.
PRIORITY_CLASSES = {"interactive": 0, "normal": 1, "batch": 2}


@dataclass(frozen=True)
class TenantPolicy:
    """Per-tenant admission knobs.

    ``priority`` is one of :data:`PRIORITY_CLASSES`; ``max_concurrency``
    bounds in-flight queries, ``max_queue_depth`` bounds queued ones
    (submissions beyond it are rejected — backpressure), and
    ``memory_budget_bytes`` caps the summed working-set estimate of the
    tenant's in-flight queries (``None`` = unlimited).
    ``slo_p99_seconds`` is the tenant's latency objective: when set, the
    epoch report (and the metrics snapshot) grades the tenant's p99
    submit-to-finish latency against it as pass/fail.
    """

    priority: str = "normal"
    max_concurrency: int = 1
    max_queue_depth: int = 32
    memory_budget_bytes: int | None = None
    slo_p99_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.priority not in PRIORITY_CLASSES:
            raise ValueError(
                f"priority must be one of {sorted(PRIORITY_CLASSES)}")
        if self.max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if (self.memory_budget_bytes is not None
                and self.memory_budget_bytes < 0):
            raise ValueError("memory_budget_bytes must be >= 0 or None")
        if (self.slo_p99_seconds is not None
                and self.slo_p99_seconds <= 0.0):
            raise ValueError("slo_p99_seconds must be positive or None")

    @property
    def rank(self) -> int:
        return PRIORITY_CLASSES[self.priority]


@dataclass(frozen=True)
class RetryPolicy:
    """How the server retries a tenant's failed attempts.

    ``max_attempts`` bounds total executions of one query (1 = never
    retry).  Between attempts the server charges a simulated exponential
    backoff — ``backoff_seconds * backoff_multiplier**(attempt-1)`` after
    the ``attempt``-th failure — which lands in the ticket's queue wait
    (the query sits out the backoff, it does not occupy devices).
    ``deadline_seconds``, when set, is the default per-query deadline
    measured from submit time; :meth:`QueryServer.submit` may override it
    per query.
    """

    max_attempts: int = 3
    backoff_seconds: float = 0.05
    backoff_multiplier: float = 2.0
    deadline_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_seconds < 0.0:
            raise ValueError("backoff_seconds must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0.0:
            raise ValueError("deadline_seconds must be positive or None")

    def backoff(self, attempt: int) -> float:
        """Simulated wait after the ``attempt``-th failed attempt (1-based)."""
        if attempt < 1:
            raise ValueError("attempts are 1-based")
        return self.backoff_seconds * self.backoff_multiplier ** (attempt - 1)


@dataclass
class _Queued:
    """One queued submission (the payload is opaque to the controller)."""

    seq: int
    item: Any
    estimated_bytes: int
    at: float


@dataclass
class _Tenant:
    """One tenant's admission state: its fixed policy, its queue and what
    it has in flight."""

    policy: TenantPolicy
    queue: deque[_Queued] = field(default_factory=deque)
    running: int = 0
    in_flight_bytes: int = 0
    #: Dispatches granted so far (round-robin fairness within a class).
    dispatched: int = 0


class AdmissionController:
    """Bounded, budgeted, priority-and-fairness-aware dispatch queues.

    ``aging_seconds``, when set, protects low-priority tenants from
    starvation under a sustained high-priority flood: a queued head's
    effective rank drops by one class for every ``aging_seconds`` of
    simulated wait (never below interactive), so an old batch query
    eventually outranks fresh interactive arrivals.  The same aged rank
    guards preemption victims — see :meth:`aged_rank`.  ``None`` disables
    aging (the pre-aging dispatch order, bit for bit).
    """

    def __init__(self, *, aging_seconds: float | None = None) -> None:
        if aging_seconds is not None and aging_seconds <= 0.0:
            raise ValueError("aging_seconds must be positive or None")
        self.aging_seconds = aging_seconds
        self._tenants: dict[str, _Tenant] = {}
        self._arrivals = itertools.count()

    # ------------------------------------------------------------------
    # Tenancy
    # ------------------------------------------------------------------
    def open_tenant(self, name: str,
                    policy: TenantPolicy | None = None) -> TenantPolicy:
        """Register a tenant; its policy is fixed for the tenant's lifetime."""
        if name in self._tenants:
            raise ServingError(f"tenant {name!r} is already open")
        policy = policy or TenantPolicy()
        self._tenants[name] = _Tenant(policy)
        return policy

    def has_tenant(self, name: str) -> bool:
        return name in self._tenants

    def _tenant(self, name: str) -> _Tenant:
        try:
            return self._tenants[name]
        except KeyError as exc:
            raise UnknownTenantError(f"unknown tenant {name!r}") from exc

    def policy(self, name: str) -> TenantPolicy:
        return self._tenant(name).policy

    # ------------------------------------------------------------------
    # Submission (backpressure happens here)
    # ------------------------------------------------------------------
    def submit(self, tenant: str, item: Any, *, estimated_bytes: int,
               at: float = 0.0) -> None:
        """Queue one submission or raise :class:`AdmissionError`.

        Rejections are immediate: a full queue (backpressure) or an
        estimate that exceeds the tenant's whole memory budget (the query
        could never be admitted).
        """
        state = self._tenant(tenant)
        policy = state.policy
        if (policy.memory_budget_bytes is not None
                and estimated_bytes > policy.memory_budget_bytes):
            raise AdmissionError(
                tenant, f"query needs ~{estimated_bytes} bytes, over the "
                        f"{policy.memory_budget_bytes} byte tenant budget")
        queue = state.queue
        if len(queue) >= policy.max_queue_depth:
            raise AdmissionError(
                tenant, f"queue full at depth {len(queue)} (backpressure); "
                        "retry after completions drain")
        queue.append(_Queued(seq=next(self._arrivals), item=item,
                             estimated_bytes=int(estimated_bytes),
                             at=float(at)))

    def requeue(self, tenant: str, item: Any, *, estimated_bytes: int,
                at: float) -> None:
        """Re-queue an already-admitted item (retry or failover).

        Bypasses the queue-depth bound: the item was admitted once and its
        slot was released by ``on_finish``; bouncing it on backpressure
        would turn a transient device fault into a lost query.  The item
        receives a fresh arrival sequence and becomes dispatchable at
        ``at`` (the end of its simulated backoff), slotting in ahead of
        any queued entry with a later submit time — a retry must not be
        head-of-line blocked by a query that has not yet arrived.
        """
        queue = self._tenant(tenant).queue
        entry = _Queued(seq=next(self._arrivals), item=item,
                        estimated_bytes=int(estimated_bytes), at=float(at))
        index = len(queue)
        for i, queued in enumerate(queue):
            if queued.at > entry.at:
                index = i
                break
        queue.insert(index, entry)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def aged_rank(self, rank: int, waited: float) -> int:
        """Effective priority rank after ``waited`` simulated seconds.

        With aging enabled the rank drops one class per full
        ``aging_seconds`` of wait, floored at the interactive rank (0).
        Without aging the static rank passes through unchanged.
        """
        if self.aging_seconds is None or waited <= 0.0:
            return rank
        return max(0, rank - int(waited // self.aging_seconds))

    def next_admissible(self, now: float) -> tuple[str, Any, int] | None:
        """Pop the next dispatchable submission at server time ``now``.

        Per tenant only the queue head is considered (FIFO within a
        tenant); across tenants the winner minimizes ``(aged priority
        rank, dispatch count, arrival)``.  Returns ``(tenant, item,
        estimated_bytes)`` or ``None`` when nothing is dispatchable —
        either everything is blocked (a completion will unblock it) or the
        remaining heads carry future submit times.
        """
        best_key: tuple[int, int, int] | None = None
        best_tenant: str | None = None
        for tenant, state in self._tenants.items():
            if not state.queue:
                continue
            head = state.queue[0]
            if head.at > now:
                continue
            policy = state.policy
            if state.running >= policy.max_concurrency:
                continue
            if (policy.memory_budget_bytes is not None
                    and state.in_flight_bytes + head.estimated_bytes
                    > policy.memory_budget_bytes):
                continue
            key = (self.aged_rank(policy.rank, now - head.at),
                   state.dispatched, head.seq)
            if best_key is None or key < best_key:
                best_key, best_tenant = key, tenant
        if best_tenant is None:
            return None
        state = self._tenants[best_tenant]
        head = state.queue.popleft()
        state.running += 1
        state.in_flight_bytes += head.estimated_bytes
        state.dispatched += 1
        return best_tenant, head.item, head.estimated_bytes

    def withdraw(self, tenant: str, item: Any) -> None:
        """Take a queued item out of its tenant's queue (its deadline
        passed while it waited); it never held a slot."""
        queue = self._tenant(tenant).queue
        queue.remove(next(entry for entry in queue if entry.item is item))

    def on_finish(self, tenant: str, estimated_bytes: int) -> None:
        """Release the concurrency slot and memory headroom of one query."""
        state = self._tenants[tenant]
        state.running -= 1
        state.in_flight_bytes -= int(estimated_bytes)

    def abort_epoch(self) -> None:
        """Drop all queued work and in-flight accounting (epoch unwind).

        Used by the server's exception-safe drain: after a fatal epoch
        error the queues are cleared and every concurrency slot and memory
        reservation is released, so the controller is coherent for the
        next epoch.  Dispatch counters (fairness) survive — they describe
        history, not in-flight state.
        """
        for state in self._tenants.values():
            state.queue.clear()
            state.running = 0
            state.in_flight_bytes = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def queue_depth(self, tenant: str) -> int:
        return len(self._tenant(tenant).queue)

    def running(self, tenant: str) -> int:
        return self._tenant(tenant).running

    @property
    def tenants(self) -> tuple[str, ...]:
        return tuple(self._tenants)
