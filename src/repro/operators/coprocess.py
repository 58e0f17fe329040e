"""Intra-operator co-processing: the out-of-GPU radix join of Section 5.

The algorithm combines, without modification, the CPU partitioning pass and
the in-GPU partitioned join:

1. both inputs are co-partitioned *in CPU memory* with a low fan-out chosen
   so that every co-partition pair fits in GPU memory,
2. co-partition ``i`` goes to GPU ``i mod n`` (``zip`` + round-robin
   routing),
3. each co-partition crosses the PCIe link of its GPU exactly once
   (``mem-move`` + ``device-crossing``),
4. the GPU runs the scratchpad-conscious partitioned join on the pair,
5. (aggregated) results return to the CPU.

Because the GPU-side throughput exceeds the PCIe bandwidth and the CPU-side
low-fan-out partitioning sustains near-DRAM bandwidth, the end-to-end time
is bottlenecked by the interconnect — and adding a second GPU on its own
PCIe bus nearly doubles throughput (Figure 7's 1.7x).

In code this is the partitioned-join skeleton
(:func:`repro.operators.radix.partitioned_join`) tuned a third way: one
pass at the fan-out :func:`plan_coprocessing` picks, and every
co-partition joined by the in-GPU partitioned join — the skeleton again,
on the co-partition's key slices, so no payload moves until the outer
join gathers it once.  It follows the
single-evaluation contract like every other operator —
:func:`coprocessed_join_kernel` evaluates once and returns a
:class:`CoprocessedJoinStats` record — except that its cost is a timeline
over several devices rather than one device's :class:`OpCost`, so the
estimate half is :func:`charge_coprocessed_join`, which replays the record
onto the topology's clocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..errors import ExecutionError
from ..hardware.device import Device
from ..hardware.specs import DeviceSpec
from ..hardware.topology import Topology
from ..relational.keys import KeyDomain
from .base import (
    ArrayMap,
    OpCost,
    OpOutput,
    columns_num_rows,
    record_kernel_invocation,
)
from .gpujoin import GpuJoinConfig, estimate_gpu_partitioned_join
from .hashjoin import HASH_ENTRY_BYTES
from .radix import (
    JoinSides,
    PartitionedJoinStats,
    PartitionRunStats,
    estimate_partition_run,
    partition_tuple_bytes,
    partitioned_join,
    radix_buckets,
)


#: Share of the smallest GPU memory a raw co-partition pair may take; the
#: rest is room for the GPU-side partitions and hash tables next to it.
COPARTITION_MEMORY_SHARE = 0.4


def plan_coprocessing(build_rows: int, probe_rows: int, tuple_bytes: int,
                      gpu_specs: Sequence[DeviceSpec]) -> int:
    """The CPU-side fan-out: every co-partition pair must fit in GPU memory."""
    if not gpu_specs:
        raise ExecutionError("co-processing requires at least one GPU")
    budget = int(min(spec.memory_capacity_bytes for spec in gpu_specs)
                 * COPARTITION_MEMORY_SHARE)
    pair_bytes = (build_rows + probe_rows) * tuple_bytes
    return max(int(np.ceil(pair_bytes / budget)), len(gpu_specs))


def _coprocessing_fanout(build_rows: int, probe_rows: int,
                         gpu_specs: Sequence[DeviceSpec]) -> int:
    return plan_coprocessing(max(build_rows, 1), max(probe_rows, 1),
                             HASH_ENTRY_BYTES, gpu_specs)


@dataclass(frozen=True)
class CoprocessedJoinStats:
    """Data-derived quantities the co-processed join's timeline needs."""

    build_rows: int
    probe_rows: int
    #: Shape of the CPU-side co-partitioning pass over each input.
    build_run: PartitionRunStats
    probe_run: PartitionRunStats
    #: Per co-partition, in routing order: the payload bytes that cross
    #: PCIe and the in-GPU join's own stats record.
    copartitions: tuple[tuple[int, PartitionedJoinStats], ...]


def coprocessed_join_kernel(
        build: Mapping[str, np.ndarray],
        probe: Mapping[str, np.ndarray], *,
        build_keys: Sequence[str],
        probe_keys: Sequence[str],
        gpu_specs: Sequence[DeviceSpec],
        output_order: str | None = "probe",
) -> tuple[ArrayMap, CoprocessedJoinStats]:
    """Evaluate the co-processed join once.

    ``gpu_specs`` supply tuning only: the smallest memory sets the CPU-side
    fan-out, and co-partition ``i`` is joined with the scratchpad tuning of
    spec ``i mod n`` — the same position-level skeleton again, on the key
    digits the CPU pass left.  Every byte count is
    rows x item sizes, so the record is identical for every
    ``output_order``.
    """
    record_kernel_invocation("coprocessed_radix_join")
    sides = JoinSides(build, probe, build_keys=build_keys,
                      probe_keys=probe_keys, output_order=output_order)
    build_rows, probe_rows = len(sides.build_keys), len(sides.probe_keys)
    fanout = _coprocessing_fanout(build_rows, probe_rows, gpu_specs)
    copartitions: list[tuple[int, PartitionedJoinStats]] = []

    def join_on_gpu(build_part: np.ndarray, probe_part: np.ndarray,
                    ) -> tuple[np.ndarray, np.ndarray]:
        build_idx, probe_idx, stats = sides.join_on(
            gpu_specs[len(copartitions) % len(gpu_specs)],
            build_part, probe_part)
        copartitions.append((len(build_part) * sides.build_tuple_bytes
                             + len(probe_part) * sides.probe_tuple_bytes,
                             stats))
        return build_idx, probe_idx

    build_idx, probe_idx, build_calls, probe_calls = partitioned_join(
        sides.build_keys, sides.probe_keys, fanouts=(fanout,),
        match=join_on_gpu)
    return sides.gather(build_idx, probe_idx), CoprocessedJoinStats(
        build_rows=build_rows, probe_rows=probe_rows,
        build_run=PartitionRunStats(sides.build_tuple_bytes, build_calls),
        probe_run=PartitionRunStats(sides.probe_tuple_bytes, probe_calls),
        copartitions=tuple(copartitions))


def copartition_nbytes(build: Mapping[str, np.ndarray],
                       probe: Mapping[str, np.ndarray], *,
                       build_keys: Sequence[str],
                       probe_keys: Sequence[str],
                       gpu_specs: Sequence[DeviceSpec]) -> list[int]:
    """Payload bytes of every co-partition, from bucket counts alone.

    What :func:`coprocessed_join_kernel` would record, without moving a
    row: lets an engine refuse an evaluation it already holds cached.
    """
    fanout = _coprocessing_fanout(columns_num_rows(build),
                                  columns_num_rows(probe), gpu_specs)
    domain = KeyDomain(build, build_keys)
    nbytes = np.zeros(fanout, dtype=np.int64)
    for columns, codes in ((build, domain.codes),
                           (probe, domain.encode(probe, probe_keys))):
        nbytes += partition_tuple_bytes(columns) * np.bincount(
            radix_buckets(codes, fanout), minlength=fanout)
    return nbytes.tolist()


def ensure_copartitions_fit(pair_nbytes: Sequence[int],
                            gpus: Sequence[Device]) -> None:
    """Raise when a co-partition cannot fit in the memory of its GPU."""
    for index, pair_bytes in enumerate(pair_nbytes):
        gpu = gpus[index % len(gpus)]
        if not gpu.fits_in_memory(pair_bytes):
            raise ExecutionError(
                f"co-partition of {pair_bytes} bytes exceeds {gpu.name} memory; "
                "increase the CPU-side fan-out"
            )


def charge_coprocessed_join(stats: CoprocessedJoinStats, topology: Topology,
                            cpu: Device, gpus: Sequence[Device], *,
                            config: GpuJoinConfig | None = None,
                            ) -> tuple[OpCost, float]:
    """Replay a recorded evaluation onto the topology's clocks.

    The CPU pass runs first; every co-partition then crosses the PCIe
    route of its GPU once and is joined there.  Transfers and kernels of
    distinct GPUs overlap because every GPU sits on its own PCIe link.
    Returns the summed cost and the time the last device finishes.
    """
    build_cost = estimate_partition_run(stats.build_run, cpu)
    probe_cost = estimate_partition_run(stats.probe_run, cpu)
    partitioned = cpu.charge(build_cost.seconds + probe_cost.seconds,
                             label="cpu-copartition")
    total_cost = OpCost().merge(build_cost).merge(probe_cost)
    finished = partitioned.end
    for index, (pair_bytes, join_stats) in enumerate(stats.copartitions):
        gpu = gpus[index % len(gpus)]
        route = topology.route(cpu.name, gpu.name)
        arrived = route.transfer(pair_bytes, earliest=partitioned.end,
                                 label=f"copartition->{gpu.name}")
        total_cost.add("pcie-transfer", route.transfer_time(pair_bytes))
        join_cost = estimate_gpu_partitioned_join(join_stats, gpu,
                                                  config=config)
        joined = gpu.charge(join_cost.seconds, earliest=arrived,
                            label=f"gpu-join[p{index}]")
        total_cost.merge(join_cost)
        finished = max(finished, joined.end)
    return total_cost, finished


def coprocessed_radix_join(build: Mapping[str, np.ndarray],
                           probe: Mapping[str, np.ndarray],
                           topology: Topology, *,
                           build_keys: Sequence[str],
                           probe_keys: Sequence[str],
                           cpu: Device | None = None,
                           gpus: Sequence[Device] | None = None,
                           config: GpuJoinConfig | None = None,
                           output_order: str | None = "probe") -> OpOutput:
    """Execute the CPU+GPU co-processed radix join and schedule its timeline.

    Kernel, memory check and charge back to back, for callers that place
    the join themselves.  ``output_order`` is ``"probe"``-major by default,
    ``"build"``-major for joins whose build side is the logical right
    input, ``None`` for the raw partition-major order.
    """
    cpu = cpu or topology.cpus()[0]
    gpus = list(gpus if gpus is not None else topology.gpus())
    columns, stats = coprocessed_join_kernel(
        build, probe, build_keys=build_keys, probe_keys=probe_keys,
        gpu_specs=[gpu.spec for gpu in gpus], output_order=output_order)
    ensure_copartitions_fit([nbytes for nbytes, _ in stats.copartitions],
                            gpus)
    cost, _ = charge_coprocessed_join(stats, topology, cpu, gpus,
                                      config=config)
    return OpOutput(columns=columns, cost=cost)
