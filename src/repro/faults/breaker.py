"""Circuit breaker over simulated devices.

The injector (``plan.py``) is the *cause* side of chaos; the breaker is
the *detection* side.  A device that keeps failing attempts — injected or
organic (e.g. :class:`~repro.errors.OutOfDeviceMemoryError` on a shrunk
GPU) — is taken out of rotation after ``threshold`` consecutive failures
so retries stop being routed into a black hole.  After
``cooldown_seconds`` of server time the breaker half-opens the device
(health DEGRADED): it may be scheduled again, and the first successful
attempt that touches it closes the circuit (health HEALTHY).
"""

from __future__ import annotations

from typing import Iterable

from ..hardware import DeviceHealth, Topology


class CircuitBreaker:
    """Trip devices after consecutive failures; probe recovery later."""

    def __init__(self, topology: Topology, *, threshold: int = 3,
                 cooldown_seconds: float = 1.0) -> None:
        if threshold < 1:
            raise ValueError("breaker threshold must be at least 1")
        if cooldown_seconds <= 0.0:
            raise ValueError("breaker cooldown must be positive")
        self.topology = topology
        self.threshold = int(threshold)
        self.cooldown_seconds = float(cooldown_seconds)
        self._consecutive_failures: dict[str, int] = {}
        self._probe_at: dict[str, float] = {}
        #: Devices this breaker failed itself (so teardown never restores
        #: a device the fault injector or the user failed independently).
        self._tripped: set[str] = set()
        #: Count of trips, for reports.
        self.trips = 0

    # Failure/success accounting ----------------------------------------
    def record_failure(self, device: str, now: float) -> float | None:
        """Record a failed attempt attributed to ``device``.

        When this failure trips the breaker (the device just transitioned
        to FAILED), returns the server time of its recovery probe —
        ``now`` plus the cooldown — for the caller to schedule; otherwise
        ``None``.
        """
        count = self._consecutive_failures.get(device, 0) + 1
        self._consecutive_failures[device] = count
        if count < self.threshold:
            return None
        if not self.topology.device(device).is_available:
            return None  # already out of rotation (injector or earlier trip)
        self.topology.fail_device(device)
        self._tripped.add(device)
        probe_at = self._probe_at[device] = now + self.cooldown_seconds
        self.trips += 1
        return probe_at

    def record_success(self, devices: Iterable[str]) -> None:
        """Record a successful attempt that ran on ``devices``.

        Resets the consecutive-failure counters and closes any half-open
        (DEGRADED) circuit among them.
        """
        for name in devices:
            self._consecutive_failures.pop(name, None)
            if name in self._tripped:
                device = self.topology.device(name)
                if device.health is DeviceHealth.DEGRADED:
                    self.topology.restore_device(name)
                    self._tripped.discard(name)

    # Timeline -----------------------------------------------------------
    def advance(self, now: float) -> list[str]:
        """Half-open every tripped device whose cooldown elapsed.

        Returns the device names that just became DEGRADED (schedulable
        again, pending a successful probe attempt).
        """
        opened: list[str] = []
        for name in sorted(self._probe_at):
            if self._probe_at[name] <= now:
                del self._probe_at[name]
                self.topology.degrade_device(name)
                self._consecutive_failures.pop(name, None)
                opened.append(name)
        return opened

    # Epoch teardown -----------------------------------------------------
    def restore_all(self) -> None:
        """Restore every device this breaker tripped (end of epoch)."""
        for name in sorted(self._tripped):
            self.topology.restore_device(name)
        self._tripped.clear()
        self._probe_at.clear()
        self._consecutive_failures.clear()
