"""Simulated clocks and task timelines.

Every simulated resource (a compute device, an interconnect link) owns a
:class:`SimClock`.  Operators charge durations to the clock of the resource
they run on; the executor uses ``reserve`` to perform simple list scheduling:
a task starts at ``max(resource available, inputs ready)`` and occupies the
resource for its duration.  The resulting :class:`Timeline` is what the
benchmark harness reports as "execution time", mirroring the wall-clock times
of the paper's figures.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple


class TaskRecord(NamedTuple):
    """One scheduled task on one resource.

    A named tuple: a warm execution reserves a couple of dozen of these,
    and a tuple builds in under half the time a frozen dataclass takes.
    """

    resource: str
    label: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    def overlaps(self, other: "TaskRecord") -> bool:
        """True if the two records overlap in simulated time."""
        return self.start < other.end and other.start < self.end


class SimClock:
    """A monotonically advancing per-resource clock."""

    def __init__(self, resource: str) -> None:
        self.resource = resource
        self._available_at = 0.0
        self._busy_time = 0.0
        #: A list, or a restored snapshot's tuple until the next write.
        self._records: list[TaskRecord] | tuple[TaskRecord, ...] = []

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"SimClock({self.resource!r}, available_at={self._available_at:.6f}, "
            f"busy={self._busy_time:.6f})"
        )

    @property
    def available_at(self) -> float:
        """Earliest simulated time at which the resource is free."""
        return self._available_at

    @property
    def busy_time(self) -> float:
        """Total busy (occupied) simulated seconds."""
        return self._busy_time

    @property
    def records(self) -> tuple[TaskRecord, ...]:
        return tuple(self._records)

    def reserve(self, duration: float, *, earliest: float = 0.0,
                label: str = "task") -> TaskRecord:
        """Schedule ``duration`` seconds of work on this resource.

        The task starts no earlier than ``earliest`` (its inputs' ready time)
        and no earlier than the time the resource becomes free.
        """
        if duration < 0:
            raise ValueError("task duration cannot be negative")
        start = self._available_at
        if earliest > start:
            start = earliest
        end = start + duration
        record = TaskRecord(self.resource, label, start, end)
        try:
            self._records.append(record)
        except AttributeError:  # restored by reference: copy on write
            self._records = [*self._records, record]
        self._available_at = end
        self._busy_time += duration
        return record

    def truncate(self, record: TaskRecord, fraction: float) -> TaskRecord:
        """Shrink an existing reservation to ``fraction`` of its duration.

        Used when a running task is killed early (fault, preemption): the
        resource is only occupied until the kill instant, so the record is
        replaced by one covering ``[start, start + duration * fraction)``
        and the clock's availability is recomputed.  Because list
        scheduling never starts a later task before an earlier one ends,
        shrinking a record can never create an overlap.  Returns the
        replacement record.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("truncation fraction must be within [0, 1]")
        try:
            index = next(i for i, existing in enumerate(self._records)
                         if existing is record)
        except StopIteration:
            raise ValueError(
                f"record {record!r} is not scheduled on {self.resource!r}"
            ) from None
        truncated = TaskRecord(record.resource, record.label, record.start,
                               record.start + record.duration * fraction)
        self._records = list(self._records)
        self._records[index] = truncated
        self._busy_time -= record.duration - truncated.duration
        self._available_at = max(
            (existing.end for existing in self._records), default=0.0)
        return truncated

    def reset(self) -> None:
        """Forget all scheduled work."""
        self._available_at = 0.0
        self._busy_time = 0.0
        self._records = []

    def snapshot(self) -> tuple:
        """The clock's whole state — its records, free time and busy time
        — for :meth:`restore`."""
        return tuple(self._records), self._available_at, self._busy_time

    def restore(self, state: tuple) -> None:
        """Return to a :meth:`snapshot`, whatever was reserved since.

        The snapshot's records tuple is taken by reference, not copied:
        the next :meth:`reserve`, :meth:`truncate` or :meth:`reset` puts a
        new list in its place, so the snapshot never changes.
        """
        self._records, self._available_at, self._busy_time = state


class Timeline:
    """Aggregates the clocks of a whole simulated server."""

    def __init__(self, clocks: Iterable[SimClock] = ()) -> None:
        self._clocks: dict[str, SimClock] = {}
        for clock in clocks:
            self.add(clock)

    def add(self, clock: SimClock) -> None:
        if clock.resource in self._clocks:
            raise ValueError(f"duplicate clock for resource {clock.resource!r}")
        self._clocks[clock.resource] = clock

    def clock(self, resource: str) -> SimClock:
        return self._clocks[resource]

    def __contains__(self, resource: str) -> bool:
        return resource in self._clocks

    def __iter__(self) -> Iterator[SimClock]:
        return iter(self._clocks.values())

    @property
    def makespan(self) -> float:
        """Simulated completion time across all resources."""
        if not self._clocks:
            return 0.0
        return max(clock.available_at for clock in self._clocks.values())

    def busy_time(self, resource: str) -> float:
        return self._clocks[resource].busy_time

    def records(self) -> list[TaskRecord]:
        """All task records across resources, ordered by start time."""
        merged: list[TaskRecord] = []
        for clock in self._clocks.values():
            merged.extend(clock.records)
        merged.sort(key=attrgetter("start", "resource"))
        return merged

    def utilization(self, resource: str) -> float:
        """Busy fraction of a resource over the full makespan."""
        span = self.makespan
        if span <= 0.0:
            return 0.0
        return self._clocks[resource].busy_time / span

    def reset(self) -> None:
        for clock in self._clocks.values():
            clock.reset()
