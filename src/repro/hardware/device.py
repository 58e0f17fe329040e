"""Simulated compute devices.

A :class:`Device` bundles everything execution needs from one CPU socket or
one GPU: its :class:`~repro.hardware.specs.DeviceSpec` (whose
``memory_capacity_bytes`` is the one record of how much fits), a cost model
converting work into time and a simulated clock that accumulates that time.
"""

from __future__ import annotations

import dataclasses
import enum

from ..errors import OutOfDeviceMemoryError
from .clock import SimClock, TaskRecord
from .costmodel import CostModel
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

    One thread drives a session or a server, and every execution resets
    the clock before it charges, so each query's timings are those it
    would produce running alone.  Spec (memory capacity included), cost
    model and health outlive executions — fault injection is a
    topology-wide event every later execution observes.
    """

    #: Health, memory and link-bandwidth changes so far, on every device
    #: and link: :meth:`~repro.hardware.topology.Topology.health_fingerprint`
    #: is rebuilt only after one.  Shared by every topology, so a change
    #: on one makes the others rebuild too; their fingerprints, compared
    #: by value, stay what they were.
    changes = 0

    def __init__(self, spec: DeviceSpec, *, numa_node: int = 0) -> None:
        self.spec = spec
        self.numa_node = numa_node
        self.cost = CostModel(spec)
        self.clock = SimClock(spec.name)
        self.health = DeviceHealth.HEALTHY
        self._nominal_memory_bytes = int(spec.memory_capacity_bytes)

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
        Device.changes += 1

    def degrade(self) -> None:
        """Mark the device degraded (half-open: probes allowed)."""
        self.health = DeviceHealth.DEGRADED
        Device.changes += 1

    def restore(self) -> None:
        """Return the device to full health."""
        if self.health is not DeviceHealth.HEALTHY:
            self.health = DeviceHealth.HEALTHY
            Device.changes += 1

    def shrink_memory(self, factor: float) -> None:
        """Shrink usable memory to ``factor`` of the nominal capacity.

        Models partial memory loss (ECC page retirement, a co-located
        tenant pinning HBM).  The cost model and :meth:`ensure_fits` both
        read ``spec.memory_capacity_bytes``, so replacing the spec is the
        whole change.
        """
        if not 0.0 < factor <= 1.0:
            raise ValueError("memory shrink factor must be in (0, 1]")
        new_capacity = max(1, int(self._nominal_memory_bytes * factor))
        self.spec = dataclasses.replace(
            self.spec, memory_capacity_bytes=new_capacity)
        self.cost = CostModel(self.spec)
        Device.changes += 1

    def restore_memory(self) -> None:
        """Undo :meth:`shrink_memory`, returning to nominal capacity."""
        if self.spec.memory_capacity_bytes != self._nominal_memory_bytes:
            self.spec = dataclasses.replace(
                self.spec, memory_capacity_bytes=self._nominal_memory_bytes)
            self.cost = CostModel(self.spec)
            Device.changes += 1

    # Memory -------------------------------------------------------------
    def ensure_fits(self, nbytes: int) -> None:
        """Raise when ``nbytes`` exceed this device's memory capacity.

        The one capacity check: the paper's limits (the in-GPU join's
        ceiling, GPU-only Q9) surface as :class:`OutOfDeviceMemoryError`,
        which names the device, so the serving layer fails the query over
        to a mode that does not need it.  A check holds nothing: every
        buffer an operator needs is checked on its own against the whole
        capacity.
        """
        capacity = self.spec.memory_capacity_bytes
        if nbytes > capacity:
            raise OutOfDeviceMemoryError(self.name, nbytes, capacity)

    # Time ---------------------------------------------------------------
    def charge(self, seconds: float, *, earliest: float = 0.0,
               label: str = "work") -> TaskRecord:
        """Charge ``seconds`` of busy time to this device's clock."""
        return self.clock.reserve(seconds, earliest=earliest, label=label)

    def reset(self) -> None:
        """Reset the clock (between experiments)."""
        self.clock.reset()
