"""Deterministic trace data model and exporters.

Everything observability exports is derived from *simulated* time: the
executor's per-query device/link clocks and the server's event-driven
drain.  No wall clocks, no thread identities, no randomness ever enter a
trace — worker threads only run pure morsel transforms while every span
append and event append happens on the query/coordinating thread in
canonical plan/admission order (the same trace/commit discipline
:class:`~repro.server.sharedcache.SharedQueryCache` uses for hit/miss
attribution).  A trace is therefore **byte-identical at every worker
count and across replays**, which turns the repo's bit-identity gates
into diffable artifacts (``tools/trace_tool.py diff``).

Two trace granularities share one vocabulary:

* :class:`QueryTrace` — one executed query: operator :class:`Span`\\ s
  (placement, timing, bytes, rows, cache status, estimated-vs-actual
  rows) plus the raw device/link :class:`~repro.hardware.clock.
  TaskRecord` slices the cost model scheduled, in query-local simulated
  seconds starting at zero.
* :class:`EpochTrace` — one serving epoch: the server's lifecycle
  :class:`TraceEvent` log (submit/admit/dispatch, preemption, retries,
  failovers, breaker and fault transitions, SLO grading), one
  :class:`TracedQuery` row per ticket, the per-query traces shifted to
  server time, and the occupancy board's server-time reservations.

Both render to two formats:

* **JSONL** (:meth:`QueryTrace.to_jsonl` / :meth:`EpochTrace.to_jsonl`)
  — one self-describing JSON object per line (``"kind"`` discriminates),
  compact separators, sorted keys.  This is the canonical byte-stable
  artifact the determinism gates compare.
* **Chrome trace-event JSON** (:meth:`QueryTrace.to_chrome` /
  :meth:`EpochTrace.to_chrome`) — loads directly in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``, one track per
  device, link and tenant, with operator spans and instant events.
  Timestamps are microseconds of simulated time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..hardware.clock import TaskRecord
from .critical import CriticalPath, critical_path

__all__ = [
    "EpochTrace",
    "QueryTrace",
    "Span",
    "TraceEvent",
    "TracedQuery",
    "dumps_line",
    "holders_label",
]


def dumps_line(payload: Mapping[str, object]) -> str:
    """One canonical JSON line: sorted keys, compact separators, no NaN.

    ``repr``-exact floats and sorted keys make the rendering a pure
    function of the payload values — the byte-stability the determinism
    gates rely on.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


#: Span/event attributes that are wall-clock/cache-warmth diagnostics,
#: not simulated-time facts: identical *replays* reproduce them exactly,
#: but a warm run legitimately differs from a cold one here (and only
#: here).  :meth:`QueryTrace.timing_jsonl` strips them.
VOLATILE_SPAN_KEYS = ("cache", "morsels")


def holders_label(holders: Iterable[str]) -> str:
    """:attr:`Span.location` of a batch held by the named memory nodes."""
    names = list(holders)
    return ("distributed:" if len(names) > 1 else "") + ",".join(names)


@dataclass
class Span:
    """One operator-level span of a query's simulated execution.

    ``start`` is the instant the operator's inputs were ready and
    ``end`` the instant its output was ready — the same list-scheduling
    endpoints the cost model charges; the device/link busy slices inside
    the span live in the trace's :attr:`QueryTrace.tasks`.  Times are
    query-local simulated seconds.
    """

    node_id: int
    op: str
    start: float
    end: float
    #: Names of the devices that ran (or received) the operator.
    devices: tuple[str, ...]
    #: Data location of the operator's input batch.
    location: str
    #: Bytes of the input batch the operator consumed.
    input_bytes: int
    #: Actual output rows (merged from the executor's q-error accounting;
    #: ``None`` for exchange operators, which forward batches).
    rows: int | None = None
    #: Optimizer-estimated output rows (the plan node's ``est_rows``
    #: stamp) and the q-error against :attr:`rows`.
    est_rows: float | None = None
    q_error: float | None = None
    #: Session-cache status of the kernel evaluation backing this span:
    #: ``"hit"`` / ``"miss"`` / ``"overlay"`` (within-plan repeat).  Only
    #: recorded for session-owned caches — under a server-shared cache
    #: raw lookup outcomes race between tenants, so per-attempt cache
    #: attribution comes from the committed counters on the ``complete``
    #: event instead (see ``docs/OBSERVABILITY.md``).
    cache: str | None = None
    #: Morsels the kernel evaluation behind this span dispatched (zero
    #: when the cache served it); session-owned caches only, like
    #: :attr:`cache`.
    morsels: int | None = None
    #: Operator-specific extras (table name, mem-move destination,
    #: aggregate phase ...).  Values must be plain JSON scalars.
    attrs: dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict[str, object]:
        payload: dict[str, object] = {
            "node": self.node_id, "op": self.op,
            "start": self.start, "end": self.end,
            "devices": list(self.devices), "location": self.location,
            "input_bytes": self.input_bytes,
        }
        if self.rows is not None:
            payload["rows"] = self.rows
        if self.est_rows is not None:
            payload["est_rows"] = self.est_rows
        if self.q_error is not None:
            payload["q_error"] = self.q_error
        if self.cache is not None:
            payload["cache"] = self.cache
        if self.morsels is not None:
            payload["morsels"] = self.morsels
        payload.update(self.attrs)
        return payload


@dataclass
class TraceEvent:
    """One lifecycle event of the serving stack, at simulated time ``at``."""

    at: float
    kind: str
    attrs: dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict[str, object]:
        payload: dict[str, object] = {"t": self.at, "event": self.kind}
        payload.update(self.attrs)
        return payload


@dataclass
class QueryTrace:
    """Operator spans plus raw task slices of one executed query."""

    spans: list[Span]
    #: The per-query timeline's device/link busy slices, sorted by
    #: (start, resource) — the raw material of the critical path.
    tasks: tuple[TaskRecord, ...]
    #: The query's simulated makespan (``QueryResult.simulated_seconds``).
    makespan: float
    #: Bytes moved per interconnect link.
    link_bytes: dict[str, int] = field(default_factory=dict)
    morsels_dispatched: int = 0
    label: str = ""
    mode: str = ""

    # ------------------------------------------------------------------
    def critical_path(self) -> CriticalPath:
        """Which device or link bounded the makespan, with idle gaps."""
        return critical_path(self.tasks, self.makespan,
                             links=frozenset(self.link_bytes))

    # ------------------------------------------------------------------
    def _lines(self) -> list[dict[str, object]]:
        lines: list[dict[str, object]] = [{
            "kind": "trace", "label": self.label, "mode": self.mode,
            "makespan": self.makespan,
            "morsels": self.morsels_dispatched,
            "spans": len(self.spans), "tasks": len(self.tasks),
        }]
        for span in self.spans:
            lines.append({"kind": "span", **span.to_dict()})
        for record in self.tasks:
            lines.append({"kind": "task", "resource": record.resource,
                          "label": record.label, "start": record.start,
                          "end": record.end})
        for name in sorted(self.link_bytes):
            lines.append({"kind": "link", "link": name,
                          "bytes": self.link_bytes[name]})
        return lines

    def to_jsonl(self) -> str:
        """Canonical byte-stable structured log (one JSON object per line)."""
        return "\n".join(dumps_line(line) for line in self._lines()) + "\n"

    def timing_jsonl(self) -> str:
        """Like :meth:`to_jsonl` with cache-warmth attributes stripped.

        Warm and cold runs of the same query are bit-identical here —
        the determinism contract for simulated time — while the full
        JSONL additionally pins cache status and morsel counts, which
        only replays (same warmth) reproduce byte-for-byte.
        """
        lines = []
        for line in self._lines():
            lines.append(dumps_line({key: value
                                     for key, value in line.items()
                                     if key not in VOLATILE_SPAN_KEYS}))
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------
    def to_chrome(self) -> dict:
        """Chrome trace-event JSON (Perfetto-loadable) for this query.

        Track layout: pid 1 carries one thread per device/link with the
        cost model's busy slices; pid 2 carries the operator spans as
        async events (they overlap freely across devices).
        """
        events: list[dict[str, object]] = [
            _meta("process_name", 1, 0, "devices & links"),
            _meta("process_name", 2, 0, "operators"),
            _meta("thread_name", 2, 1, "plan"),
        ]
        resources = sorted({record.resource for record in self.tasks})
        tids = {name: index + 1 for index, name in enumerate(resources)}
        for name in resources:
            events.append(_meta("thread_name", 1, tids[name], name))
        for record in self.tasks:
            events.append({
                "ph": "X", "pid": 1, "tid": tids[record.resource],
                "cat": "task", "name": record.label,
                "ts": record.start * 1e6,
                "dur": (record.end - record.start) * 1e6,
            })
        for span in self.spans:
            args = {key: value for key, value in span.to_dict().items()
                    if key not in ("start", "end")}
            if span.end > span.start:
                events.append({
                    "ph": "b", "pid": 2, "tid": 1, "cat": "operator",
                    "id": span.node_id, "name": span.op,
                    "ts": span.start * 1e6, "args": args,
                })
                events.append({
                    "ph": "e", "pid": 2, "tid": 1, "cat": "operator",
                    "id": span.node_id, "name": span.op,
                    "ts": span.end * 1e6,
                })
            else:
                events.append({
                    "ph": "i", "pid": 2, "tid": 1, "s": "t",
                    "name": span.op, "ts": span.start * 1e6, "args": args,
                })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"label": self.label, "mode": self.mode,
                          "makespan_ms": self.makespan * 1e3},
        }

    # ------------------------------------------------------------------
    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())

    def write_chrome(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(dumps_line(self.to_chrome()))
            handle.write("\n")


@dataclass
class TracedQuery:
    """One ticket's row in an epoch trace (server-time seconds)."""

    ticket: int
    tenant: str
    label: str
    status: str
    mode: str
    final_mode: str
    submit: float
    start: float
    finish: float
    simulated_seconds: float = 0.0
    #: The successful attempt's query trace (query-local times; shift by
    #: :attr:`start` for server time).  ``None`` for failed/rejected
    #: tickets and for epochs served without session tracing.
    trace: QueryTrace | None = None


@dataclass
class EpochTrace:
    """One serving epoch: event log, per-ticket rows, occupancy slices."""

    makespan: float
    events: list[TraceEvent]
    queries: list[TracedQuery]
    #: The occupancy board's server-time reservations, sorted by
    #: (start, resource, label); labels are ``tenant:query``.
    occupancy: list[TaskRecord]

    # ------------------------------------------------------------------
    def query(self, label: str, *, tenant: str | None = None
              ) -> TracedQuery | None:
        """The first ticket row matching ``label`` (and ``tenant``)."""
        for row in self.queries:
            if row.label == label and (tenant is None or row.tenant == tenant):
                return row
        return None

    def critical_paths(self) -> dict[int, CriticalPath]:
        """Per-ticket critical paths for every completed traced query."""
        return {row.ticket: row.trace.critical_path()
                for row in self.queries
                if row.status == "completed" and row.trace is not None}

    # ------------------------------------------------------------------
    def _lines(self) -> list[dict[str, object]]:
        lines: list[dict[str, object]] = [{
            "kind": "epoch", "makespan": self.makespan,
            "events": len(self.events), "queries": len(self.queries),
        }]
        for event in self.events:
            lines.append({"kind": "event", **event.to_dict()})
        for row in self.queries:
            lines.append({
                "kind": "query", "ticket": row.ticket, "tenant": row.tenant,
                "label": row.label, "status": row.status, "mode": row.mode,
                "final_mode": row.final_mode, "submit": row.submit,
                "start": row.start, "finish": row.finish,
                "simulated_seconds": row.simulated_seconds,
            })
            if row.trace is None:
                continue
            for span in row.trace.spans:
                payload = span.to_dict()
                payload["start"] = row.start + span.start
                payload["end"] = row.start + span.end
                lines.append({"kind": "span", "ticket": row.ticket, **payload})
            for record in row.trace.tasks:
                lines.append({
                    "kind": "qtask", "ticket": row.ticket,
                    "resource": record.resource, "label": record.label,
                    "start": row.start + record.start,
                    "end": row.start + record.end,
                })
        for record in self.occupancy:
            lines.append({"kind": "occupancy", "resource": record.resource,
                          "label": record.label, "start": record.start,
                          "end": record.end})
        return lines

    def to_jsonl(self) -> str:
        """Canonical byte-stable structured log of the whole epoch."""
        return "\n".join(dumps_line(line) for line in self._lines()) + "\n"

    # ------------------------------------------------------------------
    def to_chrome(self) -> dict:
        """Chrome trace-event JSON (Perfetto-loadable) for the epoch.

        Track layout: pid 1 has one thread per device/link carrying the
        occupancy board's server-time reservations; pid 2 has one thread
        per tenant carrying a slice per completed/failed ticket; pid 3
        carries the server's lifecycle events as instants.
        """
        events: list[dict[str, object]] = [
            _meta("process_name", 1, 0, "devices & links"),
            _meta("process_name", 2, 0, "tenants"),
            _meta("process_name", 3, 0, "server"),
            _meta("thread_name", 3, 1, "events"),
        ]
        resources = sorted({record.resource for record in self.occupancy})
        resource_tids = {name: index + 1
                         for index, name in enumerate(resources)}
        for name in resources:
            events.append(_meta("thread_name", 1, resource_tids[name], name))
        tenants = sorted({row.tenant for row in self.queries})
        tenant_tids = {name: index + 1 for index, name in enumerate(tenants)}
        for name in tenants:
            events.append(_meta("thread_name", 2, tenant_tids[name], name))
        for record in self.occupancy:
            events.append({
                "ph": "X", "pid": 1, "tid": resource_tids[record.resource],
                "cat": "occupancy", "name": record.label,
                "ts": record.start * 1e6,
                "dur": (record.end - record.start) * 1e6,
            })
        for row in self.queries:
            if row.status in ("rejected",) or row.finish < row.start:
                continue
            events.append({
                "ph": "X", "pid": 2, "tid": tenant_tids[row.tenant],
                "cat": "query", "name": f"{row.label} [{row.status}]",
                "ts": row.start * 1e6,
                "dur": max(row.finish - row.start, 0.0) * 1e6,
                "args": {"ticket": row.ticket, "mode": row.mode,
                         "final_mode": row.final_mode,
                         "queue_wait_s": row.start - row.submit,
                         "simulated_seconds": row.simulated_seconds},
            })
        for event in self.events:
            events.append({
                "ph": "i", "pid": 3, "tid": 1, "s": "t",
                "name": event.kind, "ts": event.at * 1e6,
                "args": dict(event.attrs),
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"makespan_ms": self.makespan * 1e3,
                          "queries": len(self.queries)},
        }

    # ------------------------------------------------------------------
    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())

    def write_chrome(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(dumps_line(self.to_chrome()))
            handle.write("\n")


def _meta(name: str, pid: int, tid: int, value: str) -> dict[str, object]:
    """A Chrome trace metadata event (process/thread naming)."""
    return {"ph": "M", "pid": pid, "tid": tid, "name": name,
            "args": {"name": value}}
