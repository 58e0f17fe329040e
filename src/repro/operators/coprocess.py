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
onto the topology's clocks, pipelined per co-partition.

That replay is Figure 7: :func:`repro.perf.dense_coprocessed_stats` writes
down the record a microbenchmark run leaves and the figure prices it
through :func:`charge_coprocessed_join`, so at any executable size figure
and engine agree to the bit — as Figures 5-6 replay the single-device
estimators; only Figures 8-9 stay closed-form models.
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
from .base import ArrayMap, OpCost, OpOutput, record_kernel_invocation
from .gpujoin import GpuJoinConfig, estimate_gpu_partitioned_join
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


def plan_coprocessing(pair_bytes: int,
                      gpu_specs: Sequence[DeviceSpec]) -> int:
    """The CPU-side fan-out: every co-partition pair must fit in GPU memory.

    ``pair_bytes`` is both inputs at their columns' own widths — build rows
    x build tuple bytes + probe rows x probe tuple bytes — the bytes the
    co-partitions carry across PCIe, so the mean pair is within budget.
    """
    if not gpu_specs:
        raise ExecutionError("co-processing requires at least one GPU")
    budget = int(min(spec.memory_capacity_bytes for spec in gpu_specs)
                 * COPARTITION_MEMORY_SHARE)
    return max(int(np.ceil(pair_bytes / budget)), len(gpu_specs))


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
    fanout = plan_coprocessing(build_rows * sides.build_tuple_bytes
                               + probe_rows * sides.probe_tuple_bytes,
                               gpu_specs)
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
    domain = KeyDomain(build, build_keys)
    sides = [(partition_tuple_bytes(columns), codes) for columns, codes in (
        (build, domain.codes), (probe, domain.encode(probe, probe_keys)))]
    fanout = plan_coprocessing(
        sum(tuple_bytes * len(codes) for tuple_bytes, codes in sides),
        gpu_specs)
    nbytes = np.zeros(fanout, dtype=np.int64)
    for tuple_bytes, codes in sides:
        nbytes += tuple_bytes * np.bincount(radix_buckets(codes, fanout),
                                            minlength=fanout)
    return nbytes.tolist()


def ensure_copartitions_fit(pair_nbytes: Sequence[int],
                            gpus: Sequence[Device]) -> None:
    """Raise when a co-partition cannot fit in the memory of its GPU."""
    for index, pair_bytes in enumerate(pair_nbytes):
        gpus[index % len(gpus)].ensure_fits(pair_bytes)


def charge_coprocessed_join(stats: CoprocessedJoinStats, topology: Topology,
                            cpus: Sequence[Device], gpus: Sequence[Device], *,
                            earliest: float = 0.0,
                            config: GpuJoinConfig | None = None,
                            ) -> tuple[OpCost, float]:
    """Replay a recorded evaluation onto the topology's clocks, pipelined
    per co-partition.

    The CPU pass is priced once, on ``cpus[0]``, and charged in slices:
    co-partition ``i``'s slice is the pass's cost times its share of the
    rows, spread evenly over every socket of ``cpus``, none starting
    before ``earliest`` (the inputs' ready time).  When its slice ends,
    co-partition ``i`` crosses the route from ``cpus[0]`` to GPU
    ``i mod n`` once and is joined there when it arrives — so the CPU pass,
    the transfers and the joins overlap, and distinct GPUs overlap on their
    own PCIe links.  Returns the summed cost and the time the last device
    finishes.
    """
    build_cost = estimate_partition_run(stats.build_run, cpus[0])
    probe_cost = estimate_partition_run(stats.probe_run, cpus[0])
    pass_seconds = build_cost.seconds + probe_cost.seconds
    total_rows = max(stats.build_rows + stats.probe_rows, 1)
    total_cost = OpCost().merge(build_cost).merge(probe_cost)
    finished = earliest
    for index, (pair_bytes, join_stats) in enumerate(stats.copartitions):
        slice_seconds = (pass_seconds * (join_stats.build_rows
                                         + join_stats.probe_rows)
                         / total_rows / len(cpus))
        sliced = max(cpu.charge(slice_seconds, earliest=earliest,
                                label="cpu-copartition").end
                     for cpu in cpus)
        gpu = gpus[index % len(gpus)]
        route = topology.route(cpus[0].name, gpu.name)
        arrived = route.transfer(pair_bytes, earliest=sliced,
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
                           gpus: Sequence[Device] | None = None,
                           config: GpuJoinConfig | None = None,
                           output_order: str | None = "probe") -> OpOutput:
    """Execute the CPU+GPU co-processed radix join and schedule its timeline.

    Kernel, memory check and charge back to back, for callers that place
    the join themselves: every available CPU socket co-partitions, ``gpus``
    (default: all of them) join.  ``output_order`` is ``"probe"``-major by
    default, ``"build"``-major for joins whose build side is the logical
    right input, ``None`` for the raw partition-major order.
    """
    gpus = list(gpus if gpus is not None else topology.gpus())
    columns, stats = coprocessed_join_kernel(
        build, probe, build_keys=build_keys, probe_keys=probe_keys,
        gpu_specs=[gpu.spec for gpu in gpus], output_order=output_order)
    ensure_copartitions_fit([nbytes for nbytes, _ in stats.copartitions],
                            gpus)
    cost, _ = charge_coprocessed_join(stats, topology,
                                      topology.available_cpus(), gpus,
                                      config=config)
    return OpOutput(columns=columns, cost=cost)
