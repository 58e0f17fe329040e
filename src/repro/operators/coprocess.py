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

In code this is the partitioned join of :mod:`repro.operators.radix`
tuned a third way: one CPU pass at the fan-out :func:`plan_coprocessing`
picks, and co-partition ``i`` — the keys ``i mod fanout`` — joined by the
in-GPU partitioned join with the tuning of GPU ``i mod n``.  The host
finds the matches once, as every partitioned join does, and writes each
co-partition's record from bucket counts of its build, probe and match
rows (:func:`copartition_rows`, :func:`coprocessed_stats`).  It follows
the single-evaluation contract like every other operator —
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
from .base import ArrayMap, OpCost, OpOutput, record_kernel_invocation
from .gpujoin import GpuJoinConfig, estimate_gpu_partitioned_join
from .radix import (
    JoinSides,
    JoinWidths,
    PartitionedJoinStats,
    PartitionRunStats,
    estimate_partition_run,
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


def coprocessed_stats(widths: JoinWidths, gpu_specs: Sequence[DeviceSpec],
                      build_rows: Sequence[int], probe_rows: Sequence[int],
                      matches: Sequence[int]) -> CoprocessedJoinStats:
    """The record of a co-processed join, from the build, probe and match
    rows of every co-partition.

    One CPU pass per side at a fan-out of one co-partition per entry, and
    co-partition ``i`` — its rows at the columns' widths across PCIe —
    joined with the scratchpad tuning of spec ``i mod n``: the
    :meth:`~repro.operators.radix.JoinWidths.record` of its rows.
    """
    fanout = len(build_rows)
    build_total, probe_total = sum(build_rows), sum(probe_rows)
    return CoprocessedJoinStats(
        build_rows=build_total, probe_rows=probe_total,
        build_run=PartitionRunStats(widths.build, ((build_total, fanout),)),
        probe_run=PartitionRunStats(widths.probe, ((probe_total, fanout),)),
        copartitions=tuple(
            (widths.pair_bytes(build, probe),
             widths.record(gpu_specs[index % len(gpu_specs)], build, probe,
                           matched))
            for index, (build, probe, matched) in enumerate(
                zip(build_rows, probe_rows, matches))))


def copartition_rows(widths: JoinWidths, build_codes: np.ndarray,
                     probe_codes: np.ndarray,
                     gpu_specs: Sequence[DeviceSpec],
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The co-partition of every build row, and each side's rows per
    co-partition.

    The fan-out is :func:`plan_coprocessing`'s, and co-partition ``i``
    holds the key codes ``i mod fanout`` (:func:`radix_buckets`), so equal
    keys meet in one co-partition.
    """
    fanout = plan_coprocessing(
        widths.pair_bytes(len(build_codes), len(probe_codes)), gpu_specs)
    build_buckets = radix_buckets(build_codes, fanout)
    return (build_buckets, np.bincount(build_buckets, minlength=fanout),
            np.bincount(radix_buckets(probe_codes, fanout), minlength=fanout))


def coprocessed_join_kernel(
        build: Mapping[str, np.ndarray],
        probe: Mapping[str, np.ndarray], *,
        build_keys: Sequence[str],
        probe_keys: Sequence[str],
        gpu_specs: Sequence[DeviceSpec],
        output_order: str = "probe",
) -> tuple[ArrayMap, CoprocessedJoinStats]:
    """Evaluate the co-processed join once.

    The matches are found once, as every partitioned join finds them
    (:class:`~repro.operators.radix.JoinSides`); each co-partition's
    build, probe and match rows are bucket counts of the exact key codes
    (:func:`copartition_rows`: the probe's are encoded here, whatever code
    matched it; the build bucket of every match — or the probe rows, when
    every probe row matched once), and :func:`coprocessed_stats` writes
    the record from them.  ``gpu_specs`` supply tuning only, and the
    record is identical for every ``output_order``.
    """
    sides = JoinSides(build, probe, build_keys=build_keys,
                      probe_keys=probe_keys, output_order=output_order)
    record_kernel_invocation("coprocessed_radix_join")
    # Co-partitions split the exact codes, not the matching's masked ones.
    build_buckets, build_rows, probe_rows = copartition_rows(
        sides.widths, sides.build.domain.codes,
        sides.build.domain.encode(sides.probe, probe_keys), gpu_specs)
    # Every probe row matched once: a co-partition's matches are its probe
    # rows, with no gather and no count.
    matches = probe_rows if sides.probe_idx is None else np.bincount(
        build_buckets[sides.build_idx], minlength=len(build_rows))
    return sides.gather(), coprocessed_stats(
        sides.widths, gpu_specs, build_rows.tolist(), probe_rows.tolist(),
        matches.tolist())


def ensure_copartitions_fit(stats: CoprocessedJoinStats,
                            gpus: Sequence[Device]) -> None:
    """Raise when a recorded co-partition cannot fit in the memory of its
    GPU."""
    for index, (pair_bytes, _) in enumerate(stats.copartitions):
        gpus[index % len(gpus)].ensure_fits(pair_bytes)


def price_coprocessed_join(stats: CoprocessedJoinStats, topology: Topology,
                           cpus: Sequence[Device], gpus: Sequence[Device], *,
                           config: GpuJoinConfig | None = None,
                           ) -> tuple[OpCost, tuple]:
    """Price a recorded evaluation without touching a clock.

    The CPU pass is priced once, on ``cpus[0]``, and cut into slices:
    co-partition ``i``'s slice is the pass's cost times its share of the
    rows, spread evenly over every socket of ``cpus``.  Co-partition ``i``
    crosses the route from ``cpus[0]`` to GPU ``i mod n`` once and is
    joined there.  Returns the summed cost and one step per co-partition,
    ``(slice seconds, route, payload bytes, GPU, join seconds)``, which
    :func:`reserve_coprocessed_join` schedules.
    """
    build_cost = estimate_partition_run(stats.build_run, cpus[0])
    probe_cost = estimate_partition_run(stats.probe_run, cpus[0])
    pass_seconds = build_cost.seconds + probe_cost.seconds
    total_rows = max(stats.build_rows + stats.probe_rows, 1)
    total_cost = OpCost().merge(build_cost).merge(probe_cost)
    steps = []
    for index, (pair_bytes, join_stats) in enumerate(stats.copartitions):
        slice_seconds = (pass_seconds * (join_stats.build_rows
                                         + join_stats.probe_rows)
                         / total_rows / len(cpus))
        gpu = gpus[index % len(gpus)]
        route = topology.route(cpus[0].name, gpu.name)
        total_cost.add("pcie-transfer", route.transfer_time(pair_bytes))
        join_cost = estimate_gpu_partitioned_join(join_stats, gpu,
                                                  config=config)
        total_cost.merge(join_cost)
        steps.append((slice_seconds, route, pair_bytes, gpu,
                      join_cost.seconds))
    return total_cost, tuple(steps)


def reserve_coprocessed_join(steps: Sequence[tuple], cpus: Sequence[Device],
                             *, earliest: float = 0.0) -> float:
    """Schedule :func:`price_coprocessed_join`'s steps onto the clocks,
    pipelined per co-partition.

    No slice starts before ``earliest`` (the inputs' ready time).  When its
    slice ends, co-partition ``i`` crosses its route and is joined when it
    arrives — so the CPU pass, the transfers and the joins overlap, and
    distinct GPUs overlap on their own PCIe links.  Returns the time the
    last device finishes.
    """
    finished = earliest
    for index, (slice_seconds, route, pair_bytes, gpu,
                join_seconds) in enumerate(steps):
        sliced = max(cpu.charge(slice_seconds, earliest=earliest,
                                label="cpu-copartition").end
                     for cpu in cpus)
        arrived = route.transfer(pair_bytes, earliest=sliced,
                                 label=f"copartition->{gpu.name}")
        joined = gpu.charge(join_seconds, earliest=arrived,
                            label=f"gpu-join[p{index}]")
        finished = max(finished, joined.end)
    return finished


def charge_coprocessed_join(stats: CoprocessedJoinStats, topology: Topology,
                            cpus: Sequence[Device], gpus: Sequence[Device], *,
                            earliest: float = 0.0,
                            config: GpuJoinConfig | None = None,
                            ) -> tuple[OpCost, float]:
    """Replay a recorded evaluation onto the topology's clocks: price it
    (:func:`price_coprocessed_join`), then reserve the steps
    (:func:`reserve_coprocessed_join`).  Returns the summed cost and the
    time the last device finishes."""
    cost, steps = price_coprocessed_join(stats, topology, cpus, gpus,
                                         config=config)
    return cost, reserve_coprocessed_join(steps, cpus, earliest=earliest)


def coprocessed_radix_join(build: Mapping[str, np.ndarray],
                           probe: Mapping[str, np.ndarray],
                           topology: Topology, *,
                           build_keys: Sequence[str],
                           probe_keys: Sequence[str],
                           gpus: Sequence[Device] | None = None,
                           config: GpuJoinConfig | None = None,
                           output_order: str = "probe") -> OpOutput:
    """Execute the CPU+GPU co-processed radix join and schedule its timeline.

    Kernel, memory check and charge back to back, for callers that place
    the join themselves: every available CPU socket co-partitions, ``gpus``
    (default: all of them) join.  ``output_order`` is ``"probe"``-major by
    default, ``"build"``-major for joins whose build side is the logical
    right input.
    """
    gpus = list(gpus if gpus is not None else topology.gpus())
    columns, stats = coprocessed_join_kernel(
        build, probe, build_keys=build_keys, probe_keys=probe_keys,
        gpu_specs=[gpu.spec for gpu in gpus], output_order=output_order)
    ensure_copartitions_fit(stats, gpus)
    cost, _ = charge_coprocessed_join(stats, topology,
                                      topology.available_cpus(), gpus,
                                      config=config)
    return OpOutput(columns=columns, cost=cost)
