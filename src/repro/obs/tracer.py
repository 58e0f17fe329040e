"""The event recorder the serving stack writes lifecycle events into.

A :class:`Tracer` is deliberately minimal: an append-only list of
:class:`~repro.obs.trace.TraceEvent` plus an ``enabled`` flag.  All the
determinism heavy lifting happens at the *call sites* — every
:meth:`Tracer.event` call is made at a canonical point in the one-thread
drain (admission pick order, plan order) — so the recorder itself needs
no ordering logic.

When disabled (the default) :meth:`event` returns before touching its
keyword arguments' storage, so a server constructed without
``tracing=True`` pays one attribute check per lifecycle point — the
measured overhead bound ``make trace`` enforces (the ``trace`` suite's
``tracing_off_overhead_pct`` gate).
"""

from __future__ import annotations

from .trace import TraceEvent

__all__ = ["Tracer"]


class Tracer:
    """Append-only recorder of lifecycle events on the simulated clock."""

    __slots__ = ("enabled", "_events")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self._events: list[TraceEvent] = []

    def __bool__(self) -> bool:
        return self.enabled

    def event(self, at: float, kind: str, **attrs: object) -> None:
        """Record ``kind`` at simulated time ``at``; no-op when disabled."""
        if not self.enabled:
            return
        self._events.append(TraceEvent(at=at, kind=kind, attrs=attrs))

    def drain(self) -> list[TraceEvent]:
        """Return all recorded events and reset the buffer."""
        events = self._events
        self._events = []
        return events
