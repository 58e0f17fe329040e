"""The GPU hardware-conscious (partitioned) hash join of Section 4.1.

The join partitions both inputs with store-consolidating passes (Figure 4)
until each co-partition fits in the streaming multiprocessor's scratchpad,
then builds the per-partition hash table in the scratchpad with atomics and
probes it with the matching partition (Figure 3).  Its kernel is the
shared partitioned-join kernel of :mod:`repro.operators.radix`, whose
record is written with a GPU's tuning; this module holds what is
GPU-specific — the memory footprint and the cost of the scratchpad build &
probe phase.

Three placements of the per-partition intermediate structures are modelled,
matching the variants of Figure 5:

* ``"SM"``      — hash table entirely in the scratchpad (the paper's choice),
* ``"L1"``      — hash table in L1-backed global memory (the straightforward
  port of the CPU design),
* ``"SM+L1"``   — bucket heads in the scratchpad, entries in L1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..hardware.costmodel import AccessProfile
from ..hardware.device import Device
from .base import OpCost, OpOutput, Rows
from .filterproject import compute_ops_per_sec
from .hashjoin import HASH_ENTRY_BYTES
from .radix import (
    PartitionedJoinStats,
    estimate_partition_run,
    partitioned_join_kernel,
)

PROBE_VARIANTS = ("SM", "L1", "SM+L1")

#: Fixed bytes of bucket-array metadata a partition allocates when its hash
#: table lives in (L1-backed) global memory.  The scratchpad variant keeps
#: this metadata in the scratchpad, so it pays no global-memory traffic for
#: it.  This fixed per-partition overhead is what makes the L1 variants
#: degrade as partitions shrink (Figure 5).
L1_BUCKET_ARRAY_BYTES = 16 * 1024

#: Scalar ops per tuple of the in-scratchpad build/probe phase.
_OPS_PER_JOIN_STEP = 6.0


@dataclass(frozen=True)
class GpuJoinConfig:
    """Tuning of the in-GPU partitioned join."""

    probe_variant: str = "SM"

    def __post_init__(self) -> None:
        if self.probe_variant not in PROBE_VARIANTS:
            raise ValueError(
                f"unknown probe variant {self.probe_variant!r}; "
                f"expected one of {PROBE_VARIANTS}"
            )


def probe_phase_cost(device: Device, tuples_per_side: int,
                     partition_tuples: int, *, variant: str = "SM") -> OpCost:
    """Cost of the build & probe phase for a given partition granularity.

    This is the quantity Figure 5 sweeps: the input size stays constant
    (``tuples_per_side`` per table) while the partition size (and therefore
    the number of per-block co-partitions) varies.
    """
    if variant not in PROBE_VARIANTS:
        raise ValueError(f"unknown probe variant {variant!r}")
    if partition_tuples <= 0:
        raise ValueError("partition_tuples must be positive")
    if not device.is_gpu:
        raise ValueError("the GPU join probe phase must run on a GPU device")
    cost = OpCost()
    num_partitions = max(int(np.ceil(tuples_per_side / partition_tuples)), 1)
    table_bytes = partition_tuples * HASH_ENTRY_BYTES

    # Streaming both co-partitions from GPU memory into the SM.
    cost.add("stream-copartitions",
             device.cost.seq_scan(2 * tuples_per_side * 8))
    # Per-block fixed work: kernel/block scheduling and, for the L1-backed
    # variants, initializing the per-partition bucket array in global memory.
    cost.add("block-overhead",
             device.cost.kernel_launch(1)
             + num_partitions * 1e-8)
    if variant in ("L1", "SM+L1"):
        bucket_bytes = (L1_BUCKET_ARRAY_BYTES if variant == "L1"
                        else L1_BUCKET_ARRAY_BYTES // 2)
        cost.add("bucket-array-init",
                 device.cost.seq_write(num_partitions * bucket_bytes))

    build_profile = AccessProfile(tuples_per_side, HASH_ENTRY_BYTES,
                                  table_bytes, write_fraction=1.0)
    probe_profile = AccessProfile(tuples_per_side, HASH_ENTRY_BYTES, table_bytes)
    if variant == "SM":
        cost.add("build", device.cost.random_access(build_profile,
                                                    target="scratchpad"))
        cost.add("probe", device.cost.random_access(probe_profile,
                                                    target="scratchpad"))
    elif variant == "L1":
        # All accesses go through L1, which is shared by the blocks resident
        # on the SM and polluted by the streaming of the co-partitions.
        pollution = AccessProfile(
            tuples_per_side, HASH_ENTRY_BYTES,
            working_set_bytes=table_bytes * 3 + L1_BUCKET_ARRAY_BYTES,
            write_fraction=0.5)
        cost.add("build", device.cost.random_access(pollution, target="L1"))
        cost.add("probe", device.cost.random_access(pollution, target="L1"))
    else:  # SM+L1
        heads = AccessProfile(tuples_per_side, 4, partition_tuples * 4)
        rest = AccessProfile(
            tuples_per_side, HASH_ENTRY_BYTES,
            working_set_bytes=table_bytes * 4,
            write_fraction=0.5)
        cost.add("build",
                 device.cost.random_access(heads, target="scratchpad")
                 + device.cost.random_access(rest, target="L1"))
        cost.add("probe",
                 device.cost.random_access(heads, target="scratchpad")
                 + device.cost.random_access(rest, target="L1") * 0.6)
    cost.add("atomics", device.cost.atomic_ops(tuples_per_side))
    cost.add("compute", 2 * tuples_per_side * _OPS_PER_JOIN_STEP
             / compute_ops_per_sec(device))
    # Very small partitions under-utilize the SMs: too little useful work is
    # available to overlap latencies (the 512-element dip of Figure 5).
    if partition_tuples < 1024:
        cost.add("underutilization",
                 cost.seconds * 0.1 * (1024 / max(partition_tuples, 1) - 1.0))
    return cost


def gpu_join_footprint(input_bytes: int) -> int:
    """GPU memory the in-GPU join of ``input_bytes`` of inputs needs: 2.5x,
    the inputs themselves plus room for partitions and hash tables."""
    return int(input_bytes * 2.5)


def ensure_gpu_join_fits(input_bytes: int, device: Device) -> None:
    """Raise before any join work when ``input_bytes`` of inputs cannot fit
    in GPU memory."""
    device.ensure_fits(gpu_join_footprint(input_bytes))


def estimate_gpu_partitioned_join(stats: PartitionedJoinStats,
                                  device: Device, *,
                                  config: GpuJoinConfig | None = None) -> OpCost:
    """Cost of the scratchpad-conscious join on ``device``; no data touched."""
    config = config or GpuJoinConfig()
    cost = OpCost()
    cost.merge(estimate_partition_run(stats.build_run, device))
    cost.merge(estimate_partition_run(stats.probe_run, device))
    cost.merge(probe_phase_cost(
        device, max(stats.probe_rows, 1),
        max(int(stats.plan.final_partition_tuples), 1),
        variant=config.probe_variant))
    cost.add("materialize-output", device.cost.seq_write(stats.output_nbytes))
    return cost


def gpu_partitioned_join(build: Mapping[str, np.ndarray],
                         probe: Mapping[str, np.ndarray],
                         device: Device, *,
                         build_keys: Sequence[str],
                         probe_keys: Sequence[str],
                         config: GpuJoinConfig | None = None) -> OpOutput:
    """The full in-GPU partitioned join (partition passes + probe phase)."""
    if not device.is_gpu:
        raise ValueError("gpu_partitioned_join must be placed on a GPU device")
    ensure_gpu_join_fits(Rows.of(build).nbytes() + Rows.of(probe).nbytes(),
                         device)
    columns, stats = partitioned_join_kernel(
        build, probe, build_keys=build_keys, probe_keys=probe_keys,
        spec=device.spec)
    cost = estimate_gpu_partitioned_join(stats, device, config=config)
    return OpOutput(columns=columns, cost=cost)
