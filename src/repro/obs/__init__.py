"""Deterministic observability: traces, event logs, critical paths.

The subsystem records what the simulated-clock engine and server already
compute — operator placement, device/link busy slices, lifecycle
decisions — into byte-stable artifacts:

* :class:`QueryTrace` / :class:`EpochTrace` — the data model, with JSONL
  and Chrome-trace (Perfetto-loadable) exporters;
* :class:`Tracer` — the append-only event recorder the server writes
  lifecycle events into (canonical order);
* :func:`critical_path` — which device or link bounded a makespan, with
  idle-gap accounting.

See ``docs/OBSERVABILITY.md`` for the span/event schema and the
determinism contract (byte-identical across replays; warm differs from
cold only in ``VOLATILE_SPAN_KEYS``).
"""

from .critical import CriticalPath, PathStep, critical_path
from .trace import (
    VOLATILE_SPAN_KEYS,
    EpochTrace,
    QueryTrace,
    Span,
    TraceEvent,
    dumps_line,
)
from .tracer import Tracer

__all__ = [
    "CriticalPath",
    "EpochTrace",
    "PathStep",
    "QueryTrace",
    "Span",
    "TraceEvent",
    "Tracer",
    "VOLATILE_SPAN_KEYS",
    "critical_path",
    "dumps_line",
]
