"""Interconnect links between memory/compute nodes.

The paper identifies interconnect bandwidth as "one of the scarcest
resources" of heterogeneous servers (Section 3).  Each :class:`Link` owns a
simulated clock so that concurrent transfers on the same link serialize,
while transfers on distinct links (the two dedicated PCIe buses of the
testbed) overlap — that is what makes the 2-GPU co-processing configuration
scale by 1.7x in Figure 7.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .clock import SimClock, TaskRecord
from .device import Device
from .specs import LinkSpec

_GIB = 1024.0 ** 3


class Link:
    """A physical interconnect link (PCIe bus, QPI) between two endpoints.

    Clock and byte counter are reset with the
    :class:`~repro.hardware.device.Device` clocks before every execution,
    so per-query ``link_bytes`` and timings are bit-identical to solo
    runs.  The spec (bandwidth, fault-injected degradation) outlives
    executions.
    """

    def __init__(self, spec: LinkSpec, endpoint_a: str, endpoint_b: str) -> None:
        self.spec = spec
        self.endpoint_a = endpoint_a
        self.endpoint_b = endpoint_b
        self.clock = SimClock(spec.name)
        #: Bytes that crossed this link since the last :meth:`reset`.
        self.bytes_moved = 0
        self._nominal_bandwidth_gib_s = float(spec.bandwidth_gib_s)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Link({self.spec.name!r}, {self.endpoint_a!r}<->{self.endpoint_b!r})"

    @property
    def name(self) -> str:
        return self.spec.name

    def transfer_time(self, nbytes: int) -> float:
        """Time to move ``nbytes`` across the link (one direction)."""
        if nbytes <= 0:
            return 0.0
        return self.spec.latency_us * 1e-6 + nbytes / (self.spec.bandwidth_gib_s * _GIB)

    def transfer(self, nbytes: int, *, earliest: float = 0.0,
                 label: str = "transfer") -> TaskRecord:
        """Schedule a transfer on the link's clock and account the bytes."""
        self.bytes_moved += max(int(nbytes), 0)
        return self.clock.reserve(
            self.transfer_time(nbytes), earliest=earliest, label=label
        )

    def degrade(self, factor: float) -> None:
        """Scale the link bandwidth to ``factor`` of its nominal value.

        Models a flapping PCIe bus renegotiating to fewer lanes — the
        "scarcest resource" of Section 3 becoming scarcer.  Transfers
        already scheduled keep their recorded times; only future transfers
        see the reduced bandwidth.
        """
        if not 0.0 < factor <= 1.0:
            raise ValueError("link degradation factor must be in (0, 1]")
        self.spec = dataclasses.replace(
            self.spec,
            bandwidth_gib_s=self._nominal_bandwidth_gib_s * factor)
        Device.changes += 1

    def restore(self) -> None:
        """Undo :meth:`degrade`, returning to nominal bandwidth."""
        if self.spec.bandwidth_gib_s != self._nominal_bandwidth_gib_s:
            self.spec = dataclasses.replace(
                self.spec, bandwidth_gib_s=self._nominal_bandwidth_gib_s)
            Device.changes += 1

    def reset(self) -> None:
        self.clock.reset()
        self.bytes_moved = 0


@dataclass(frozen=True)
class Route:
    """A path of links between two devices, plus its bottleneck numbers."""

    source: str
    destination: str
    links: tuple[Link, ...]

    @property
    def hop_count(self) -> int:
        return len(self.links)

    @property
    def bottleneck_bandwidth_gib_s(self) -> float:
        if not self.links:
            return float("inf")
        return min(link.spec.bandwidth_gib_s for link in self.links)

    def transfer_time(self, nbytes: int) -> float:
        """Store-and-forward time over the whole route."""
        if not self.links:
            return 0.0
        return sum(link.transfer_time(nbytes) for link in self.links)

    def transfer(self, nbytes: int, *, earliest: float = 0.0,
                 label: str = "transfer") -> float:
        """Schedule the transfer on every link of the route.

        Returns the simulated time at which the data is available at the
        destination.
        """
        ready = earliest
        for link in self.links:
            record = link.transfer(nbytes, earliest=ready, label=label)
            ready = record.end
        return ready
