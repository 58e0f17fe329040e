"""The four heterogeneity traits of Section 3.

Execution in a heterogeneous server is characterised by four traits; the
HetExchange operators are exactly the converters between values of these
traits:

* **device**: which device *type* executes an operator (``router`` does not
  change it, ``device-crossing`` does),
* **parallelism**: how many instances execute concurrently (``router``
  converts between degrees of parallelism),
* **locality**: which memory node holds the operator's input data
  (``mem-move`` converts it),
* **packing**: whether tuples travel individually or in packets, and which
  properties are shared by all tuples of a packet (``pack``/``unpack``
  convert it; e.g. radix-partitioned packets share their partition id).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from ..hardware.specs import DeviceKind


class Packing(enum.Enum):
    """Data packing trait values."""

    TUPLE = "tuple"
    PACKET = "packet"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Traits:
    """Trait values attached to every physical operator."""

    device: DeviceKind = DeviceKind.CPU
    parallelism: int = 1
    locality: str = "cpu0"
    packing: Packing = Packing.PACKET
    packet_properties: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.parallelism < 1:
            raise ValueError("parallelism must be at least 1")

    # Converters — the operations the HetExchange operators perform --------
    def with_device(self, device: DeviceKind) -> "Traits":
        """The conversion performed by a ``device-crossing`` operator."""
        return replace(self, device=device)

    def with_parallelism(self, parallelism: int) -> "Traits":
        """The conversion performed by a ``router`` operator."""
        return replace(self, parallelism=parallelism)

    def with_locality(self, locality: str) -> "Traits":
        """The conversion performed by a ``mem-move`` operator."""
        return replace(self, locality=locality)

    def describe(self) -> str:
        props = ",".join(self.packet_properties) or "-"
        return (
            f"device={self.device.value} dop={self.parallelism} "
            f"locality={self.locality} packing={self.packing.value}({props})"
        )


def cpu_traits(parallelism: int = 1, locality: str = "cpu0") -> Traits:
    """Traits of a CPU-resident operator."""
    return Traits(device=DeviceKind.CPU, parallelism=parallelism,
                  locality=locality)


def gpu_traits(parallelism: int = 1, locality: str = "gpu0") -> Traits:
    """Traits of a GPU-resident operator."""
    return Traits(device=DeviceKind.GPU, parallelism=parallelism,
                  locality=locality)
