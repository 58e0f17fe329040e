"""Deterministic trace data model and exporters.

Everything observability exports is derived from *simulated* time: the
executor's per-query device/link clocks and the server's event-driven
drain.  No wall clocks, no thread identities, no randomness ever enter a
trace — one thread drives a session or a server, and every span append
and event append happens in canonical plan/admission order.  A trace is
therefore **byte-identical across replays**, which turns the repo's
bit-identity gates into diffable artifacts (``tools/trace_tool.py
diff``).

Two trace granularities share one vocabulary:

* :class:`QueryTrace` — one executed query: operator :class:`Span`\\ s
  (placement, timing, bytes, rows, cache status, estimated-vs-actual
  rows) plus the raw device/link :class:`~repro.hardware.clock.
  TaskRecord` slices the cost model scheduled, in query-local simulated
  seconds starting at zero.
* :class:`EpochTrace` — one serving epoch: the server's lifecycle
  :class:`TraceEvent` log (submit/admit/dispatch, preemption, retries,
  failovers, breaker and fault transitions, SLO grading), the epoch's
  own :class:`~repro.server.lifecycle.QueryTicket`\\ s with their
  per-query traces shifted to server time, and the occupancy board's
  server-time reservations.

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
from types import MappingProxyType
from typing import TYPE_CHECKING, Collection, Iterable, Mapping

from ..hardware.clock import TaskRecord
from ..stats.cardinality import q_error
from .critical import CriticalPath, critical_path

if TYPE_CHECKING:
    from ..server.lifecycle import QueryTicket

__all__ = [
    "EpochTrace",
    "QueryTrace",
    "Span",
    "TraceEvent",
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


def holders_label(holders: Collection[str]) -> str:
    """:attr:`Span.location` of a batch held by the named memory nodes."""
    return ("distributed:" if len(holders) > 1 else "") + ",".join(holders)


def _read_only() -> Mapping:
    return MappingProxyType({})


@dataclass(frozen=True)
class Span:
    """One operator-level span of a query's simulated execution.

    ``start`` is the instant the operator's inputs were ready and
    ``end`` the instant its output was ready — the same list-scheduling
    endpoints the cost model charges; the device/link busy slices inside
    the span live in the trace's :attr:`QueryTrace.tasks`.  Times are
    query-local simulated seconds.  Immutable, like the trace holding it.
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
    #: stamp); :attr:`q_error` compares it with :attr:`rows`.
    est_rows: float | None = None
    #: Session-cache status of the kernel evaluation backing this span:
    #: ``"hit"`` / ``"miss"`` / ``"overlay"`` (within-plan repeat).  Only
    #: recorded for session-owned caches — under a server-shared cache
    #: per-attempt cache attribution is the tenant's shared-cache delta
    #: on the ``complete`` event instead (see ``docs/OBSERVABILITY.md``).
    cache: str | None = None
    #: Morsels the kernel evaluation behind this span dispatched (zero
    #: when the cache served it); session-owned caches only, like
    #: :attr:`cache`.
    morsels: int | None = None
    #: Operator-specific extras (table name, mem-move destination,
    #: aggregate phase ...), read-only.  Values must be plain JSON scalars.
    attrs: Mapping[str, object] = field(default_factory=_read_only)

    @property
    def q_error(self) -> float | None:
        """The q-error of :attr:`est_rows` against :attr:`rows`, derived
        when read (``None`` unless both are known)."""
        return (None if self.rows is None or self.est_rows is None
                else q_error(self.est_rows, self.rows))

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
        if self.rows is not None and self.est_rows is not None:
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


class _Exporter:
    """The JSONL and Chrome file writers both trace classes share.

    A subclass supplies ``_lines`` (the JSONL objects) and ``to_chrome``.
    """

    def to_jsonl(self) -> str:
        """Canonical byte-stable structured log (one JSON object per line)."""
        return "\n".join(dumps_line(line) for line in self._lines()) + "\n"

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())

    def write_chrome(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(dumps_line(self.to_chrome()))
            handle.write("\n")


@dataclass(frozen=True)
class QueryTrace(_Exporter):
    """Operator spans plus raw task slices of one executed query.

    Immutable: every replay of a kept program hands out the trace of the
    execution that kept it (``docs/OBSERVABILITY.md``).
    """

    spans: tuple[Span, ...]
    #: The per-query timeline's device/link busy slices, sorted by
    #: (start, resource) — the raw material of the critical path.
    tasks: tuple[TaskRecord, ...]
    #: The query's simulated makespan (``QueryResult.simulated_seconds``).
    makespan: float
    #: Bytes moved per interconnect link, read-only.
    link_bytes: Mapping[str, int] = field(default_factory=_read_only)
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
        lines.extend(self._timed_lines())
        for name in sorted(self.link_bytes):
            lines.append({"kind": "link", "link": name,
                          "bytes": self.link_bytes[name]})
        return lines

    def _timed_lines(self, offset: float = 0.0,
                     ticket: int | None = None) -> list[dict[str, object]]:
        """The span and task lines, times shifted by ``offset``.

        An epoch trace passes the ticket's server-time start and id: its
        lines carry a ``ticket`` tag and its task lines are ``qtask``.
        """
        tag = {} if ticket is None else {"ticket": ticket}
        task = "task" if ticket is None else "qtask"
        lines: list[dict[str, object]] = []
        for span in self.spans:
            payload = span.to_dict()
            payload["start"] = offset + span.start
            payload["end"] = offset + span.end
            lines.append({"kind": "span", **tag, **payload})
        for record in self.tasks:
            lines.append({"kind": task, **tag, "resource": record.resource,
                          "label": record.label,
                          "start": offset + record.start,
                          "end": offset + record.end})
        return lines

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
        tids = _threads(events, 1, {record.resource for record in self.tasks})
        events.extend(_busy(record, tids, "task") for record in self.tasks)
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


@dataclass
class EpochTrace(_Exporter):
    """One serving epoch: event log, the epoch's tickets, occupancy slices."""

    makespan: float
    events: list[TraceEvent]
    #: The epoch report's own ticket list, in submission order (server
    #: times; a ticket's :attr:`~repro.server.lifecycle.QueryTicket.trace`
    #: is query-local, shifted by its ``start_time``).
    queries: list[QueryTicket]
    #: The occupancy board's server-time reservations, sorted by
    #: (start, resource, label); labels are ``tenant:query``.
    occupancy: list[TaskRecord]

    # ------------------------------------------------------------------
    def query(self, label: str, *, tenant: str | None = None
              ) -> QueryTicket | None:
        """The first ticket matching ``label`` (and ``tenant``)."""
        for row in self.queries:
            if row.label == label and (tenant is None or row.tenant == tenant):
                return row
        return None

    def critical_paths(self) -> dict[int, CriticalPath]:
        """Per-ticket critical paths for every completed traced query."""
        return {row.ticket_id: row.trace.critical_path()
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
                "kind": "query", "ticket": row.ticket_id,
                "tenant": row.tenant, "label": row.label,
                "status": row.status, "mode": row.mode,
                "final_mode": row.final_mode, "submit": row.submit_time,
                "start": row.start_time, "finish": row.finish_time,
                "simulated_seconds": row.simulated_seconds,
            })
            if row.trace is not None:
                lines.extend(row.trace._timed_lines(row.start_time,
                                                    row.ticket_id))
        for record in self.occupancy:
            lines.append({"kind": "occupancy", "resource": record.resource,
                          "label": record.label, "start": record.start,
                          "end": record.end})
        return lines

    # ------------------------------------------------------------------
    def to_chrome(self) -> dict:
        """Chrome trace-event JSON (Perfetto-loadable) for the epoch.

        Track layout: pid 1 has one thread per device/link carrying the
        occupancy board's server-time reservations; pid 2 has one thread
        per tenant carrying a slice per ticket that was not rejected —
        from its start when it completed, else from its submission; pid 3
        carries the server's lifecycle events as instants.
        """
        events: list[dict[str, object]] = [
            _meta("process_name", 1, 0, "devices & links"),
            _meta("process_name", 2, 0, "tenants"),
            _meta("process_name", 3, 0, "server"),
            _meta("thread_name", 3, 1, "events"),
        ]
        resource_tids = _threads(
            events, 1, {record.resource for record in self.occupancy})
        tenant_tids = _threads(events, 2, {row.tenant for row in self.queries})
        events.extend(_busy(record, resource_tids, "occupancy")
                      for record in self.occupancy)
        for row in self.queries:
            completed = row.status == "completed"
            start = row.start_time if completed else row.submit_time
            if row.status == "rejected" or row.finish_time < start:
                continue
            args = {"ticket": row.ticket_id, "mode": row.mode,
                    "final_mode": row.final_mode,
                    "simulated_seconds": row.simulated_seconds}
            if completed:
                args["queue_wait_s"] = row.queue_wait
            events.append({
                "ph": "X", "pid": 2, "tid": tenant_tids[row.tenant],
                "cat": "query", "name": f"{row.label} [{row.status}]",
                "ts": start * 1e6,
                "dur": (row.finish_time - start) * 1e6, "args": args,
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


def _meta(name: str, pid: int, tid: int, value: str) -> dict[str, object]:
    """A Chrome trace metadata event (process/thread naming)."""
    return {"ph": "M", "pid": pid, "tid": tid, "name": name,
            "args": {"name": value}}


def _threads(events: list[dict[str, object]], pid: int,
             names: Iterable[str]) -> dict[str, int]:
    """Number one thread of ``pid`` per name (sorted, from 1), append
    their naming events and return the numbering."""
    tids = {name: index + 1 for index, name in enumerate(sorted(names))}
    events.extend(_meta("thread_name", pid, tid, name)
                  for name, tid in tids.items())
    return tids


def _busy(record: TaskRecord, tids: Mapping[str, int],
          cat: str) -> dict[str, object]:
    """A device/link busy slice on its resource's pid-1 thread."""
    return {"ph": "X", "pid": 1, "tid": tids[record.resource], "cat": cat,
            "name": record.label, "ts": record.start * 1e6,
            "dur": (record.end - record.start) * 1e6}
