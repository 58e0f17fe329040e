"""Multi-tenant serving: concurrent query scheduling over one engine.

The serving subsystem layers three deterministic components over the
single-session engine (see ``docs/SERVING.md``):

* :class:`~repro.server.admission.AdmissionController` — per-tenant
  bounded queues, concurrency and memory budgets, priority classes and
  round-robin fairness (backpressure raises
  :class:`~repro.errors.AdmissionError`);
* :class:`~repro.server.scheduler.DeviceScheduler` — lays each admitted
  query's cost-model busy seconds onto the topology's server-time
  occupancy board, so queries on disjoint hardware overlap;
* :class:`~repro.server.sharedcache.SharedQueryCache` — the session
  kernel cache promoted to server scope, shared by every tenant with
  per-tenant hit/miss attribution and the same catalog-versioned
  invalidation contract.

:class:`~repro.server.server.QueryServer` ties them together and reports
per-tenant accounting through
:class:`~repro.server.server.ServerReport`.

Serving is *open-loop*: arrival sources (:mod:`repro.server.arrivals` —
seeded Poisson processes, recorded traces) submit queries while the drain
is live, interactive arrivals may preempt running batch work at morsel
boundaries (aging protects batch tenants from starvation), per-tenant
latency SLOs are graded on the report, and
:meth:`~repro.server.server.QueryServer.metrics` exports the whole state
as a Prometheus/JSON :class:`~repro.server.metrics.MetricsSnapshot`.

Serving is fault tolerant (see ``docs/FAULTS.md``): a
:class:`~repro.faults.FaultPlan` passed to the server is replayed
deterministically during :meth:`~repro.server.server.QueryServer.run`,
failed attempts are retried under per-tenant
:class:`~repro.server.admission.RetryPolicy` budgets, device-scoped
failures walk the gpu → hybrid → cpu degradation ladder
(:data:`~repro.server.lifecycle.MODE_DEGRADATION`), and per-query
deadlines bound the whole recovery dance.

What each of those events means for a ticket is one module,
:mod:`repro.server.lifecycle`: the declared status-transition table, and
:meth:`~repro.server.lifecycle.TicketLifecycle.end_attempt`, the one exit
every attempt takes.  :mod:`repro.server.server` is the event loop that
calls it.
"""

from .admission import (
    PRIORITY_CLASSES,
    AdmissionController,
    RetryPolicy,
    TenantPolicy,
)
from .arrivals import Arrival, ArrivalSource, poisson_arrivals, trace_arrivals
from .metrics import MetricsSnapshot
from .lifecycle import MODE_DEGRADATION, QueryTicket
from .scheduler import DeviceScheduler, Placement
from .server import QueryServer, ServerReport, TenantReport
from .sharedcache import SharedQueryCache

__all__ = [
    "MODE_DEGRADATION",
    "PRIORITY_CLASSES",
    "AdmissionController",
    "Arrival",
    "ArrivalSource",
    "DeviceScheduler",
    "MetricsSnapshot",
    "Placement",
    "QueryServer",
    "QueryTicket",
    "RetryPolicy",
    "ServerReport",
    "SharedQueryCache",
    "TenantPolicy",
    "TenantReport",
    "poisson_arrivals",
    "trace_arrivals",
]
