"""Device-aware placement of admitted queries onto the simulated hardware.

The scheduler turns one executed query's cost-model output into a
server-time reservation on the topology's occupancy board
(:class:`~repro.hardware.topology.OccupancyBoard`): every resource a query
meaningfully used — compute devices *and* interconnect links — is reserved
for exactly the busy seconds the per-query timeline charged to it, all
starting at the query's common start time.  Two queries overlap in server
time whenever their reservations touch disjoint resources (a CPU-only scan
next to a PCIe-bound GPU join), and queries sharing a bottleneck resource
serialize on precisely that resource.

Which resources count as "meaningfully used" is the cost model's call: a
resource is reserved when its busy time exceeds ``occupancy_threshold``
(default 10%) of the query's makespan, so the microseconds of CPU control
work inside a GPU-only query do not chain every GPU query behind a
saturated CPU.  Compute devices of every kind the query's execution mode
declares are reserved regardless — a hybrid query always reserves both the
CPUs and the GPUs, however asymmetric its split was.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..engine.modes import ExecutionMode
from ..engine.session import QueryResult
from ..hardware.clock import TaskRecord
from ..hardware.specs import DeviceKind
from ..hardware.topology import Topology


@dataclass(frozen=True)
class Placement:
    """One dispatched attempt's server-time reservation.

    ``resources`` is the sorted tuple of reserved resource names (what the
    report surfaces); ``records`` are the occupancy-board ledger entries
    backing the reservation — the handles :meth:`DeviceScheduler.release`
    needs to free the tail of a killed attempt at its kill instant.
    """

    start: float
    finish: float
    resources: tuple[str, ...]
    records: tuple[TaskRecord, ...]


class DeviceScheduler:
    """Maps executed queries to occupancy-board reservations."""

    def __init__(self, topology: Topology, *,
                 occupancy_threshold: float = 0.10) -> None:
        if not 0.0 <= occupancy_threshold < 1.0:
            raise ValueError("occupancy_threshold must be in [0, 1)")
        self.topology = topology
        self.occupancy_threshold = occupancy_threshold
        #: Per execution mode, the health fingerprint it was derived under
        #: and the devices it always reserves.
        self._mode_devices: dict = {}

    # ------------------------------------------------------------------
    def reservations(self, result: QueryResult) -> dict[str, float]:
        """Resource name → busy seconds this query reserves.

        Resources whose busy time clears the threshold are reserved for
        that busy time; compute devices of every device kind the query's
        mode uses are always included (hybrid queries reserve both kinds),
        at their measured busy time.  A query that somehow charged nothing
        falls back to reserving the first CPU for its whole makespan.
        """
        makespan = result.simulated_seconds
        cutoff = makespan * self.occupancy_threshold
        busy = result.device_busy
        reservations = {name: seconds for name, seconds in busy.items()
                        if seconds > cutoff}
        for name in self._always_reserved(result.mode):
            reservations.setdefault(name, busy.get(name, 0.0))
        if not reservations:
            anchors = self.topology.available_cpus() or self.topology.cpus()
            reservations = {anchors[0].name: makespan}
        return reservations

    def _always_reserved(self, mode: ExecutionMode) -> tuple[str, ...]:
        """The available devices of every kind ``mode`` uses, in topology
        order; derived once per mode while device health stands."""
        health = self.topology.health_fingerprint()
        derived = self._mode_devices.get(mode)
        if derived is None or derived[0] is not health:
            # A failed device never takes new reservations; executions that
            # somehow still charged it (a fault striking an already-measured
            # attempt) keep their threshold-cleared entry, but mode
            # membership alone does not pin work to dead hardware.
            derived = self._mode_devices[mode] = (health, tuple(
                device.name for device in self.topology.devices
                if device.is_available
                and ((device.is_cpu and mode.uses_cpus)
                     or (device.is_gpu and mode.uses_gpus))))
        return derived[1]

    def least_loaded_kind(self) -> DeviceKind:
        """The available device kind with the lowest mean occupancy load.

        Load is the occupancy board's accumulated busy seconds averaged
        over the kind's available devices — how much server time this
        epoch has already committed to that silicon.  Ties (including a
        fresh board) go to the CPUs: host memory is the cheaper place to
        be wrong, and the fresh-board choice keeps single-query epochs
        deterministic.  Used by the server to place mode-unconstrained
        (``"auto"``) queries on whichever kind is currently idler.
        """
        board = self.topology.occupancy
        best, best_load = DeviceKind.CPU, None
        for kind, devices in ((DeviceKind.CPU, self.topology.available_cpus()),
                              (DeviceKind.GPU, self.topology.available_gpus())):
            if not devices:
                continue
            load = (sum(board.clock(device.name).busy_time
                        for device in devices) / len(devices))
            if best_load is None or load < best_load:
                best, best_load = kind, load
        return best

    def dispatch(self, result: QueryResult, reservations: dict[str, float],
                 *, start: float, label: str,
                 fraction: float = 1.0) -> Placement:
        """Reserve the query's :meth:`reservations` (computed once per
        attempt by the caller) from ``start``; returns the
        :class:`Placement`.

        ``start`` is the caller's: no earlier than every reserved resource
        frees (:meth:`~repro.hardware.topology.OccupancyBoard.available_at`),
        which the caller reads once to decide how the attempt ends.  The
        query finishes its own makespan later — per-query simulated
        seconds are never altered by contention, only delayed.

        ``fraction`` < 1 reserves only that fraction of every busy time
        and of the makespan: a fault-killed attempt occupies the hardware
        up to the point it died, not for the full query it never finished.
        ``fraction=1`` is bit-identical to the unscaled reservation.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("dispatch fraction must be in [0, 1]")
        makespan = result.simulated_seconds
        if fraction != 1.0:
            reservations = {name: busy * fraction
                            for name, busy in reservations.items()}
            makespan = makespan * fraction
        records = self.topology.occupancy.reserve_at(reservations, start,
                                                     label=label)
        return Placement(start=start, finish=start + makespan,
                         resources=tuple(sorted(reservations)),
                         records=records)

    def release(self, placement: Placement, *, fraction: float) -> Placement:
        """Free the tail of a killed attempt's reservation at its kill time.

        ``fraction`` is how far through its span the attempt got before it
        was killed (fault strike, preemption).  Every ledger record is
        truncated to that fraction of its busy time — the same scaling
        :meth:`dispatch` with ``fraction=`` would have reserved up front —
        so a follow-on query on a freed resource starts at the kill
        instant, not at the attempt's originally reserved end.  Returns the
        placement with the truncated finish and records.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("release fraction must be in [0, 1]")
        records = self.topology.occupancy.truncate(placement.records, fraction)
        span = placement.finish - placement.start
        return replace(placement, records=records,
                       finish=placement.start + span * fraction)
