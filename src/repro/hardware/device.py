"""Simulated compute devices.

A :class:`Device` bundles everything execution needs from one CPU socket or
one GPU: its :class:`~repro.hardware.specs.DeviceSpec`, a memory pool
enforcing capacity, a cost model converting work into time and a simulated
clock that accumulates that time.
"""

from __future__ import annotations

import dataclasses
import enum
import threading
from dataclasses import dataclass

from .clock import SimClock, TaskRecord
from .costmodel import CostModel
from .memory import Allocation, MemoryPool
from .specs import DeviceKind, DeviceSpec


class DeviceHealth(enum.Enum):
    """Operational state of a simulated device.

    ``HEALTHY`` devices participate fully; ``DEGRADED`` devices still run
    work (the circuit breaker's half-open probe state); ``FAILED`` devices
    are excluded from placement until restored.  Health intentionally lives
    *outside* :meth:`Device.reset` — resetting clocks between queries must
    not resurrect a dead GPU mid-epoch.
    """

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    FAILED = "failed"


class Device:
    """One compute device of the simulated heterogeneous server.

    The simulated clock (and the memory pool's usage ledger) are
    **thread-local**: each thread charging the device sees its own
    simulated-seconds ledger, so concurrent per-tenant query executions
    on a shared topology produce exactly the timings they would produce
    running alone.  Spec, cost model and health are shared — fault
    injection is a topology-wide event every thread must observe.
    """

    def __init__(self, spec: DeviceSpec, *, numa_node: int = 0) -> None:
        self.spec = spec
        self.numa_node = numa_node
        self.memory = MemoryPool(spec.name, spec.memory_capacity_bytes)
        self.cost = CostModel(spec)
        self._local = threading.local()
        self.health = DeviceHealth.HEALTHY
        self._nominal_memory_bytes = int(spec.memory_capacity_bytes)

    @property
    def clock(self) -> SimClock:
        """This thread's simulated clock for the device."""
        clock = getattr(self._local, "clock", None)
        if clock is None:
            clock = SimClock(self.spec.name)
            self._local.clock = clock
        return clock

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Device({self.spec.name!r}, kind={self.spec.kind.value})"

    # Identity -----------------------------------------------------------
    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def kind(self) -> DeviceKind:
        return self.spec.kind

    @property
    def is_gpu(self) -> bool:
        return self.spec.kind is DeviceKind.GPU

    @property
    def is_cpu(self) -> bool:
        return self.spec.kind is DeviceKind.CPU

    # Health -------------------------------------------------------------
    @property
    def is_available(self) -> bool:
        """Whether the device may be scheduled (not FAILED)."""
        return self.health is not DeviceHealth.FAILED

    def fail(self) -> None:
        """Mark the device failed; placement skips it until restored."""
        self.health = DeviceHealth.FAILED

    def degrade(self) -> None:
        """Mark the device degraded (half-open: probes allowed)."""
        self.health = DeviceHealth.DEGRADED

    def restore(self) -> None:
        """Return the device to full health."""
        self.health = DeviceHealth.HEALTHY

    def shrink_memory(self, factor: float) -> None:
        """Shrink usable memory to ``factor`` of the nominal capacity.

        Models partial memory loss (ECC page retirement, a co-located
        tenant pinning HBM).  The cost model and the paper's Q9-style
        capacity checks read ``spec.memory_capacity_bytes``, so the spec is
        replaced rather than just the pool.
        """
        if not 0.0 < factor <= 1.0:
            raise ValueError("memory shrink factor must be in (0, 1]")
        new_capacity = max(1, int(self._nominal_memory_bytes * factor))
        self.spec = dataclasses.replace(
            self.spec, memory_capacity_bytes=new_capacity)
        self.memory.resize(new_capacity)
        self.cost = CostModel(self.spec)

    def restore_memory(self) -> None:
        """Undo :meth:`shrink_memory`, returning to nominal capacity."""
        if self.spec.memory_capacity_bytes != self._nominal_memory_bytes:
            self.spec = dataclasses.replace(
                self.spec, memory_capacity_bytes=self._nominal_memory_bytes)
            self.memory.resize(self._nominal_memory_bytes)
            self.cost = CostModel(self.spec)

    # Memory -------------------------------------------------------------
    def allocate(self, nbytes: int, label: str = "buffer") -> Allocation:
        """Allocate device-local memory, enforcing the capacity limit."""
        return self.memory.allocate(nbytes, label)

    def fits_in_memory(self, nbytes: int) -> bool:
        return self.memory.can_fit(nbytes)

    # Time ---------------------------------------------------------------
    def charge(self, seconds: float, *, earliest: float = 0.0,
               label: str = "work") -> TaskRecord:
        """Charge ``seconds`` of busy time to this device's clock."""
        return self.clock.reserve(seconds, earliest=earliest, label=label)

    def reset(self) -> None:
        """Reset clock and free all allocations (between experiments)."""
        self.clock.reset()
        self.memory.release_all()


@dataclass(frozen=True)
class DeviceGroup:
    """A named homogeneous group of devices (e.g. "all GPUs").

    The optimizer reasons about groups when it decides the degree of
    parallelism of each plan fragment — the parallelism trait of Section 3.
    """

    name: str
    devices: tuple[Device, ...]

    def __post_init__(self) -> None:
        if not self.devices:
            raise ValueError(f"device group {self.name!r} cannot be empty")
        kinds = {device.kind for device in self.devices}
        if len(kinds) != 1:
            raise ValueError(
                f"device group {self.name!r} mixes device kinds: {kinds}"
            )

    @property
    def kind(self) -> DeviceKind:
        return self.devices[0].kind

    @property
    def aggregate_memory_bytes(self) -> int:
        return sum(device.spec.memory_capacity_bytes for device in self.devices)

    def __len__(self) -> int:
        return len(self.devices)

    def __iter__(self):
        return iter(self.devices)
