"""Server topology: devices, memory nodes and the interconnects between them.

``default_server()`` recreates the paper's testbed (Section 6.1): two Xeon
E5-2650L v3 sockets joined by QPI, and two GTX 1080 GPUs each attached to
one socket through a dedicated PCIe 3 x16 link.  Routing (used by the
``mem-move`` operator to plan broadcasts with minimal copies) is plain
shortest-path computation over the registered links.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import replace
from typing import Callable, Mapping, Sequence

from ..errors import NoRouteError, UnknownDeviceError
from .clock import SimClock, Timeline
from .device import Device, DeviceGroup
from .interconnect import Link, Route
from .specs import DeviceKind, DeviceSpec, LinkSpec, gtx_1080, pcie3_x16, qpi_link, xeon_e5_2650l_v3


class OccupancyBoard:
    """Server-time occupancy ledgers for every resource of a topology.

    Query execution charges *per-query* simulated time to the device and
    link clocks, which :meth:`Topology.reset` zeroes before every
    ``execute``.  A multi-tenant server needs a second notion of time that
    spans queries: when each resource is busy *in server time*, so a
    scheduler can overlap queries that use disjoint resources.  The board
    keeps one :class:`~repro.hardware.clock.SimClock` per resource name
    (devices and links alike), deliberately outside the reset path — it is
    cleared only by :meth:`Topology.reset_occupancy` (or :meth:`clear`).

    Reservations come from the existing cost model: the serving scheduler
    reserves each resource for the busy seconds a query's execution
    charged to it, so board contention mirrors what the per-query
    timelines measured.

    The board is shared mutable state across serving worker threads, so
    every compound operation (on-demand clock creation, the
    read-availability-then-reserve sequence of :meth:`reserve`) holds one
    re-entrant lock.  Note that SimClock list scheduling makes the
    *order* of reservations observable — deterministic serving therefore
    keeps all :meth:`reserve` calls on the coordinating thread in
    canonical dispatch order; the lock protects integrity, not ordering.
    """

    def __init__(self, known: Callable[[str], bool]) -> None:
        self._known = known
        self._clocks: dict[str, SimClock] = {}
        self._lock = threading.RLock()

    def clock(self, resource: str) -> SimClock:
        """The server-time ledger of one resource (created on demand)."""
        with self._lock:
            if resource not in self._clocks:
                if not self._known(resource):
                    raise UnknownDeviceError(
                        f"unknown resource {resource!r} for occupancy tracking")
                self._clocks[resource] = SimClock(resource)
            return self._clocks[resource]

    def available_at(self, resources: Sequence[str]) -> float:
        """Earliest server time at which *all* given resources are free."""
        with self._lock:
            return max((self.clock(name).available_at for name in resources),
                       default=0.0)

    def reserve(self, resources: Mapping[str, float], *,
                earliest: float = 0.0, label: str = "query") -> float:
        """Reserve each resource for its busy duration at a common start.

        The start time is ``max(earliest, availability of every named
        resource)`` — one query begins on all its resources together — and
        each resource is then occupied for its own duration, so a
        PCIe-bound query frees the GPU clock early while a saturating scan
        holds its CPUs to the end.  Returns the common start time.
        Atomic: no other thread can reserve between the availability read
        and the reservations.
        """
        start, _ = self.reserve_records(resources, earliest=earliest,
                                        label=label)
        return start

    def reserve_records(self, resources: Mapping[str, float], *,
                        earliest: float = 0.0,
                        label: str = "query") -> tuple[float, tuple]:
        """Like :meth:`reserve` but also return the ledger records.

        The records are handles for :meth:`truncate`: a scheduler that may
        later kill the reservation early (fault, preemption) keeps them to
        release the occupied tail.
        """
        with self._lock:
            start = max(self.available_at(tuple(resources)), earliest)
            records = tuple(
                self.clock(name).reserve(float(duration), earliest=start,
                                         label=label)
                for name, duration in resources.items())
            return start, records

    def truncate(self, records: Sequence, fraction: float) -> tuple:
        """Shrink reservations to ``fraction`` of their durations.

        Applied when a running query is killed at ``fraction`` of its way
        through: each of its ledger records keeps only the busy time up to
        the kill instant, exactly what a ``dispatch(fraction=...)`` of the
        killed attempt would have reserved.  Returns the replacements.
        """
        with self._lock:
            return tuple(self.clock(record.resource).truncate(record, fraction)
                         for record in records)

    def busy_time(self, resource: str) -> float:
        return self.clock(resource).busy_time

    def records(self) -> tuple:
        """Every reservation on the board, sorted (start, resource, label).

        The server-time busy slices of a whole serving epoch — what the
        epoch trace exports as per-device/link occupancy tracks.
        """
        with self._lock:
            merged = [record for clock in self._clocks.values()
                      for record in clock.records]
        merged.sort(key=lambda record: (record.start, record.resource,
                                        record.label))
        return tuple(merged)

    @property
    def makespan(self) -> float:
        """Latest reservation end across every tracked resource."""
        with self._lock:
            return max((clock.available_at for clock in self._clocks.values()),
                       default=0.0)

    def clear(self) -> None:
        """Forget every reservation (a new serving epoch)."""
        with self._lock:
            for clock in self._clocks.values():
                clock.reset()


class Topology:
    """The full simulated server: devices plus interconnect links."""

    def __init__(self) -> None:
        self._devices: dict[str, Device] = {}
        self._links: dict[str, Link] = {}
        #: Server-time occupancy ledgers (multi-tenant serving); survives
        #: :meth:`reset` on purpose — per-query clocks restart at zero for
        #: every execution, server time never rewinds mid-epoch.
        self.occupancy = OccupancyBoard(self._knows_resource)

    def _knows_resource(self, name: str) -> bool:
        return name in self._devices or name in self._links

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_device(self, spec: DeviceSpec, *, numa_node: int = 0) -> Device:
        if spec.name in self._devices:
            raise ValueError(f"duplicate device name {spec.name!r}")
        device = Device(spec, numa_node=numa_node)
        self._devices[spec.name] = device
        return device

    def connect(self, node_a: str, node_b: str, spec: LinkSpec) -> Link:
        for name in (node_a, node_b):
            if name not in self._devices:
                raise UnknownDeviceError(f"unknown device {name!r}")
        if spec.name in self._links:
            raise ValueError(f"duplicate link name {spec.name!r}")
        link = Link(spec, node_a, node_b)
        self._links[spec.name] = link
        return link

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    @property
    def devices(self) -> tuple[Device, ...]:
        return tuple(self._devices.values())

    @property
    def links(self) -> tuple[Link, ...]:
        return tuple(self._links.values())

    def device(self, name: str) -> Device:
        try:
            return self._devices[name]
        except KeyError as exc:
            raise UnknownDeviceError(f"unknown device {name!r}") from exc

    def link(self, name: str) -> Link:
        return self._links[name]

    def cpus(self) -> tuple[Device, ...]:
        return tuple(d for d in self._devices.values() if d.is_cpu)

    def gpus(self) -> tuple[Device, ...]:
        return tuple(d for d in self._devices.values() if d.is_gpu)

    def group(self, kind: DeviceKind) -> DeviceGroup:
        devices = tuple(d for d in self._devices.values() if d.kind is kind)
        return DeviceGroup(name=f"all-{kind.value}s", devices=devices)

    # ------------------------------------------------------------------
    # Health (fault injection / failover)
    # ------------------------------------------------------------------
    # Health state deliberately lives outside :meth:`reset`: the executor
    # resets per-query clocks before every execution, and that must not
    # resurrect a GPU that failed mid-epoch.  Only explicit restore calls
    # (or :meth:`reset_health`) bring devices back.

    def available_cpus(self) -> tuple[Device, ...]:
        return tuple(d for d in self._devices.values()
                     if d.is_cpu and d.is_available)

    def available_gpus(self) -> tuple[Device, ...]:
        return tuple(d for d in self._devices.values()
                     if d.is_gpu and d.is_available)

    def anchor_cpu(self) -> Device:
        """The CPU that hosts routers, final merges and sorts.

        The first *available* CPU socket — the optimizer names it in the
        gather router it plans and the executor charges it, so the two
        cannot disagree.  With every device healthy this is exactly
        ``cpus()[0]``, preserving bit-identical placement and timing for
        fault-free runs.  The structural fallback keeps non-serving
        callers working even if someone fails every CPU by hand (the
        optimizer rejects CPU-using plans before execution).
        """
        available = self.available_cpus()
        return available[0] if available else self.cpus()[0]

    def fail_device(self, name: str) -> None:
        """Mark a device FAILED; placement skips it until restored."""
        self.device(name).fail()

    def degrade_device(self, name: str) -> None:
        """Mark a device DEGRADED (still schedulable; half-open probe)."""
        self.device(name).degrade()

    def restore_device(self, name: str) -> None:
        """Bring a device back to HEALTHY."""
        self.device(name).restore()

    def reset_health(self) -> None:
        """Return every device to HEALTHY and undo memory/link faults."""
        for device in self._devices.values():
            device.restore()
            device.restore_memory()
        for link in self._links.values():
            link.restore()

    def health_report(self) -> dict[str, str]:
        """Mapping of device name to its health state value."""
        return {name: device.health.value
                for name, device in self._devices.items()}

    def shrink_device_memory(self, name: str, factor: float) -> None:
        """Shrink a device's usable memory to ``factor`` of nominal."""
        self.device(name).shrink_memory(factor)

    def restore_device_memory(self, name: str) -> None:
        """Undo :meth:`shrink_device_memory` for one device."""
        self.device(name).restore_memory()

    def degrade_link(self, name: str, factor: float) -> None:
        """Scale a link's bandwidth to ``factor`` of nominal."""
        self.link(name).degrade(factor)

    def restore_link(self, name: str) -> None:
        """Undo :meth:`degrade_link` for one link."""
        self.link(name).restore()

    # ------------------------------------------------------------------
    # Routing and transfers
    # ------------------------------------------------------------------
    def route(self, source: str, destination: str) -> Route:
        """Cheapest path (by inverse bandwidth) between two devices.

        A link weighs ``1 / bandwidth`` at its bandwidth *now*, so a
        degraded link is routed around as soon as a detour is cheaper.
        Equally cheap paths tie-break on fewest links, then on link
        registration order (the earlier-registered link at the first hop
        where they differ).
        """
        self.device(source)
        self.device(destination)
        links = tuple(self._links.values())
        # Dijkstra; a path is (cost, link count, registration indices).
        frontier: list[tuple[float, int, tuple[int, ...], str]] = [
            (0.0, 0, (), source)]
        settled: set[str] = set()
        while frontier:
            cost, hops, path, node = heapq.heappop(frontier)
            if node == destination:
                return Route(source, destination,
                             tuple(links[index] for index in path))
            if node in settled:
                continue
            settled.add(node)
            for index, link in enumerate(links):
                if node not in (link.endpoint_a, link.endpoint_b):
                    continue
                peer = (link.endpoint_b if node == link.endpoint_a
                        else link.endpoint_a)
                if peer not in settled:
                    heapq.heappush(frontier, (
                        cost + 1.0 / link.spec.bandwidth_gib_s, hops + 1,
                        path + (index,), peer))
        raise NoRouteError(
            f"no interconnect path between {source!r} and {destination!r}")

    def transfer_time(self, nbytes: int, source: str, destination: str) -> float:
        """Pure estimate (no clock side effects) of a device-to-device copy."""
        return self.route(source, destination).transfer_time(nbytes)

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    def timeline(self) -> Timeline:
        """A :class:`Timeline` aggregating every device and link clock."""
        timeline = Timeline()
        for device in self._devices.values():
            timeline.add(device.clock)
        for link in self._links.values():
            timeline.add(link.clock)
        return timeline

    def reset(self) -> None:
        """Reset all clocks and memory pools (between experiments).

        Occupancy ledgers are *not* touched: they track server time across
        queries (see :class:`OccupancyBoard`); use
        :meth:`reset_occupancy` to start a new serving epoch.
        """
        for device in self._devices.values():
            device.reset()
        for link in self._links.values():
            link.reset()

    def reset_occupancy(self) -> None:
        """Clear the server-time occupancy ledgers (new serving epoch)."""
        self.occupancy.clear()

    def describe(self) -> str:
        """Human-readable summary used by the examples."""
        lines = ["Simulated server topology:"]
        for device in self._devices.values():
            spec = device.spec
            lines.append(
                f"  {spec.name:>6} [{spec.kind.value}] "
                f"{spec.compute_units} units, "
                f"{spec.memory_capacity_bytes / 1024 ** 3:.0f} GiB @ "
                f"{spec.memory_bandwidth_gib_s:.0f} GiB/s"
            )
        for link in self._links.values():
            lines.append(
                f"  {link.name:>6} {link.endpoint_a} <-> {link.endpoint_b} @ "
                f"{link.spec.bandwidth_gib_s:.0f} GiB/s"
            )
        return "\n".join(lines)


def default_server(*, num_cpus: int = 2, num_gpus: int = 2,
                   cpu_spec: DeviceSpec | None = None,
                   gpu_spec: DeviceSpec | None = None) -> Topology:
    """Build the paper's testbed topology (2 CPU sockets, 2 GPUs).

    GPUs are attached round-robin to the CPU sockets through dedicated PCIe
    links; CPU sockets are fully connected through QPI links.
    """
    if num_cpus < 1:
        raise ValueError("the server needs at least one CPU socket")
    if num_gpus < 0:
        raise ValueError("the number of GPUs cannot be negative")
    topology = Topology()
    base_cpu = cpu_spec or xeon_e5_2650l_v3()
    base_gpu = gpu_spec or gtx_1080()
    for index in range(num_cpus):
        spec = replace(base_cpu, name=f"cpu{index}")
        topology.add_device(spec, numa_node=index)
    for index_a in range(num_cpus):
        for index_b in range(index_a + 1, num_cpus):
            topology.connect(
                f"cpu{index_a}", f"cpu{index_b}",
                qpi_link(f"qpi{index_a}{index_b}"),
            )
    for index in range(num_gpus):
        spec = replace(base_gpu, name=f"gpu{index}")
        socket = index % num_cpus
        topology.add_device(spec, numa_node=socket)
        topology.connect(f"cpu{socket}", f"gpu{index}", pcie3_x16(f"pcie{index}"))
    return topology


def single_gpu_server() -> Topology:
    """Convenience topology with one CPU socket and one GPU."""
    return default_server(num_cpus=1, num_gpus=1)


def cpu_only_server(num_cpus: int = 2) -> Topology:
    """Convenience topology with no accelerators."""
    return default_server(num_cpus=num_cpus, num_gpus=0)
