"""Simulated heterogeneous hardware substrate.

This package stands in for the physical multi-CPU multi-GPU server of the
paper's evaluation (two Xeon E5-2650L v3 sockets, two GTX 1080 GPUs over
dedicated PCIe 3 x16 links).  It provides device specifications (a
device's ``memory_capacity_bytes`` is the one capacity record, enforced by
``Device.ensure_fits``), an analytical cost model for memory-system
behaviour and per-resource simulated clocks.
"""

from .clock import SimClock, TaskRecord, Timeline
from .costmodel import AccessProfile, CostModel
from .device import Device, DeviceHealth
from .interconnect import Link, Route
from .specs import (
    CacheSpec,
    DeviceKind,
    DeviceSpec,
    LinkSpec,
    ScratchpadSpec,
    TLBSpec,
    gtx_1080,
    pcie3_x16,
    qpi_link,
    xeon_e5_2650l_v3,
)
from .topology import Topology, cpu_only_server, default_server, single_gpu_server

__all__ = [
    "AccessProfile",
    "CacheSpec",
    "CostModel",
    "Device",
    "DeviceHealth",
    "DeviceKind",
    "DeviceSpec",
    "Link",
    "LinkSpec",
    "Route",
    "ScratchpadSpec",
    "SimClock",
    "TaskRecord",
    "Timeline",
    "TLBSpec",
    "Topology",
    "cpu_only_server",
    "default_server",
    "gtx_1080",
    "pcie3_x16",
    "qpi_link",
    "single_gpu_server",
    "xeon_e5_2650l_v3",
]
