"""Radix partitioning and the CPU partitioned (radix) hash join.

Section 4.1's central observation is that the *algorithmic skeleton* of the
partitioned join is device-invariant — partition both inputs until the
per-partition hash table fits in a fast memory, then build & probe inside
that memory — while the *tuning knobs* differ per device:

* on the CPU the per-pass fan-out is limited by the TLB (one output page per
  TLB entry) and the final partitions must fit in the cache,
* on the GPU the fan-out is limited by the scratchpad space that holds the
  per-partition write offsets, and the final partitions must fit in the
  scratchpad itself.

``plan_partition_passes`` encodes those rules once; both the executable
operators and the paper-scale analytic models in :mod:`repro.perf` call it.

What the simulated devices run is that algorithm; what the host runs is
only its *result*.  A partitioned join matches exactly the rows the
non-partitioned join matches, and its record — the passes, their row
counts, the output bytes — is a closed form of row counts and the
device's tuning (:meth:`JoinWidths.record`): a pass reads and writes its
whole input once whatever chunks the earlier passes left (one kernel
launch per pass on a GPU), so its price depends on rows and fan-out only.
So the host never partitions: :class:`JoinSides` codes the keys once
(:class:`~repro.relational.keys.KeyDomain`), finds every match with the
hash join's own :meth:`~repro.operators.hashjoin.HashJoinBuild.match`
(which verifies a masked composite key on every hit) in the canonical
order, gathers every payload column once, and writes the record from the
row and match counts.  The CPU radix join, the in-GPU partitioned join
and the co-processed join of :mod:`repro.operators.coprocess` differ only
in the tuning the record is written with.  Charges come from sizes (rows x
the columns' own item sizes, :class:`JoinWidths`), so the key codes are
the kernel's business and are charged to nobody, and
:mod:`repro.perf` writes the record of a paper-scale join with the same
:meth:`JoinWidths.record` and replays it through the same estimators.

Following the single-evaluation operator contract (see
:mod:`repro.operators`), the functional partitioning of a column map lives
in :func:`radix_partition_kernel` — one position pass
(:func:`partition_positions`) plus one gather per column, with the
``fanout`` buckets sliced out as zero-copy views — while
:func:`estimate_radix_partition` / :func:`estimate_partition_run` price a
:class:`PartitionRunStats` record, one ``(rows, fanout)`` entry per pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..hardware.device import Device
from ..hardware.specs import DeviceKind, DeviceSpec
from .base import (
    ArrayMap,
    OpCost,
    OpOutput,
    Rows,
    record_kernel_invocation,
)
from .filterproject import compute_ops_per_sec
from .hashjoin import HASH_ENTRY_BYTES, HashJoinBuild, check_output_order

#: Scalar ops per tuple of one partitioning pass (hash, offset, copy).
_OPS_PER_PARTITION_STEP = 6.0

#: Scalar ops per tuple of the in-cache build/probe phase.
_OPS_PER_JOIN_STEP = 10.0


@dataclass(frozen=True)
class PartitionPlan:
    """The pass structure of a partitioned join on one device."""

    device_kind: DeviceKind
    tuple_bytes: int
    input_tuples: int
    fanout_per_pass: tuple[int, ...]
    target_partition_tuples: int

    @property
    def num_passes(self) -> int:
        return len(self.fanout_per_pass)

    @property
    def total_fanout(self) -> int:
        fanout = 1
        for per_pass in self.fanout_per_pass:
            fanout *= per_pass
        return fanout

    @property
    def final_partition_tuples(self) -> float:
        return self.input_tuples / max(self.total_fanout, 1)


def max_fanout(spec: DeviceSpec) -> int:
    """Largest per-pass fan-out the device sustains without thrashing.

    CPU: one actively-written output page per TLB entry (Boncz et al.'s
    argument, as summarized in Section 2.1).  GPU: one 4-byte write offset
    per output partition must stay resident in the scratchpad next to the
    staging chunk used for store consolidation.
    """
    if spec.kind is DeviceKind.CPU:
        # Software write-combining buffers let one TLB entry cover a couple
        # of actively-written output partitions, so the practical fan-out
        # ceiling sits at ~2x the TLB entry count (Balkesen et al.).
        return max(int(spec.tlb.entries) * 2, 2)
    scratchpad = spec.scratchpad
    if scratchpad is None:
        raise ValueError("GPU spec without scratchpad cannot be tuned")
    offsets_budget = scratchpad.capacity_bytes // 2
    return max(int(offsets_budget // 4 // 8), 2)


def target_partition_bytes(spec: DeviceSpec) -> int:
    """How small the final co-partitions must be on this device.

    CPU: the per-core share of the cache hierarchy that the per-partition
    hash table should fit in.  GPU: half of the scratchpad (the other half
    stages the probe-side chunk), which is Figure 5's SM variant.
    """
    if spec.kind is DeviceKind.CPU:
        return int(spec.cache("L2").capacity_bytes)
    scratchpad = spec.scratchpad
    if scratchpad is None:
        raise ValueError("GPU spec without scratchpad cannot be tuned")
    return int(scratchpad.capacity_bytes // 2)


def plan_partition_passes(input_tuples: int, tuple_bytes: int,
                          spec: DeviceSpec) -> PartitionPlan:
    """Choose the number of passes and per-pass fan-out for one device."""
    if input_tuples <= 0:
        raise ValueError("input_tuples must be positive")
    if tuple_bytes <= 0:
        raise ValueError("tuple_bytes must be positive")
    target_tuples = max(
        int(target_partition_bytes(spec) // (tuple_bytes * 2)), 1)
    fanout_limit = max_fanout(spec)
    required_fanout = max(
        int(np.ceil(input_tuples / target_tuples)), 1
    )
    fanouts: list[int] = []
    remaining = required_fanout
    while remaining > 1:
        step = min(fanout_limit, remaining)
        fanouts.append(int(step))
        remaining = int(np.ceil(remaining / step))
    if not fanouts:
        fanouts.append(1)
    return PartitionPlan(
        device_kind=spec.kind,
        tuple_bytes=tuple_bytes,
        input_tuples=int(input_tuples),
        fanout_per_pass=tuple(fanouts),
        target_partition_tuples=target_tuples,
    )


# ----------------------------------------------------------------------
# Executable partitioning
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PartitionRunStats:
    """Shape of an executed sequence of partitioning passes.

    ``calls`` records one ``(num_rows, fanout)`` entry per pass, in
    execution order — every pass moves all the rows, however the earlier
    passes chunked them — so that :func:`estimate_partition_run` can price
    the run on any device without touching the data again, and a closed
    form can write the record down without running anything.
    """

    tuple_bytes: int
    calls: tuple[tuple[int, int], ...]


def radix_buckets(keys: np.ndarray, fanout: int) -> np.ndarray:
    """The bucket (``0 .. fanout - 1``) every key falls into: its least
    significant base-``fanout`` digit, ``key % fanout`` (floored), as
    ``int64``.  For a power-of-two fan-out that digit is the key's low
    bits, ``key & (fanout - 1)`` in two's complement, negative keys
    included: one mask, no division."""
    if fanout & (fanout - 1):
        return np.asarray(keys, dtype=np.int64) % fanout
    return np.bitwise_and(keys, fanout - 1, dtype=np.int64, casting="unsafe")


def partition_positions(
        keys: np.ndarray, fanouts: Sequence[int],
) -> tuple[np.ndarray, list[int], tuple[tuple[int, int], ...]]:
    """One partitioning pass per fan-out, applied to row *positions*.

    Returns ``(order, bounds, calls)``: ``order`` lists the positions of
    ``keys`` partition by partition, every partition in input order (each
    pass is stable); final partition ``i`` is
    ``order[bounds[i]:bounds[i + 1]]``; ``calls`` is the
    :class:`PartitionRunStats` record of the passes, ``(len(keys),
    fanout)`` each.  Pass ``i`` buckets on digit ``i`` of the key
    (:func:`radix_buckets` of the key with the earlier fan-outs divided
    out) inside every chunk pass ``i - 1`` produced, so the whole sequence
    is one stable sort of a composite id whose most significant digit is
    the first pass's — ids of at most 16 bits, where NumPy's stable sort
    is an O(n) radix sort, unless the total fan-out needs more.
    """
    total = math.prod(fanouts)
    ids = radix_buckets(keys, total)
    if len(fanouts) > 1:
        # Chunks nest, so the digit the first pass buckets on — the key's
        # least significant — is the partition id's most significant.
        rest, ids = ids, 0
        for fanout in fanouts:
            ids = ids * fanout + rest % fanout
            rest //= fanout
    counts = np.bincount(ids, minlength=total)
    if total <= 1 << 16:   # a larger fan-out keeps the int64 ids
        ids = ids.astype(np.uint16)
    order = np.argsort(ids, kind="stable")
    bounds = [0, *np.cumsum(counts).tolist()]
    return order, bounds, tuple((len(order), fanout) for fanout in fanouts)


def radix_partition_kernel(columns: Mapping[str, np.ndarray], *,
                           key: str, fanout: int) -> list[ArrayMap]:
    """Partition one column map into ``fanout`` buckets by key radix.

    One position pass (:func:`partition_positions`) plus a single gather
    per column; the buckets are then sliced out of the gathered arrays as
    zero-copy views (the store-consolidation analogue of Figure 4: every
    input tuple is moved exactly once).
    """
    if fanout < 1:
        raise ValueError("fanout must be at least 1")
    columns = {name: np.asarray(values) for name, values in columns.items()}
    order, bounds, _ = partition_positions(columns[key], (fanout,))
    record_kernel_invocation("radix_partition")
    gathered = {name: values[order] for name, values in columns.items()}
    return [{name: values[low:high] for name, values in gathered.items()}
            for low, high in zip(bounds, bounds[1:])]


def partition_tuple_bytes(columns: Mapping[str, np.ndarray]) -> int:
    """Bytes one tuple of a column map occupies during a partition pass."""
    return max(int(sum(np.asarray(values).dtype.itemsize
                       for values in columns.values())), 1)


def estimate_radix_partition(num_rows: int, tuple_bytes: int, fanout: int,
                             device: Device) -> OpCost:
    """Cost of one partitioning pass on ``device``; no data touched.

    The pass is the store-consolidating variant of Figure 4 (scratchpad
    staging on GPUs, software write-combining on CPUs).
    """
    cost = OpCost()
    cost.add("partition-pass", device.cost.partition_pass(
        num_rows, tuple_bytes, fanout))
    cost.add("compute", num_rows * _OPS_PER_PARTITION_STEP
             / compute_ops_per_sec(device))
    if device.is_gpu:
        cost.add("atomics", device.cost.atomic_ops(max(num_rows // 8, fanout)))
        cost.add("kernel-launch", device.cost.kernel_launch())
    return cost


def estimate_partition_run(stats: PartitionRunStats,
                           device: Device) -> OpCost:
    """Replay the cost of a recorded sequence of partitioning passes."""
    cost = OpCost()
    for num_rows, fanout in stats.calls:
        cost.merge(estimate_radix_partition(num_rows, stats.tuple_bytes,
                                            fanout, device))
    return cost


# ----------------------------------------------------------------------
# The partitioned join: one algorithm, tuned per device
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PartitionedJoinStats:
    """Data-derived quantities the partitioned-join estimators need."""

    build_rows: int
    probe_rows: int
    plan: PartitionPlan
    build_run: PartitionRunStats
    probe_run: PartitionRunStats
    output_nbytes: int


@dataclass(frozen=True)
class JoinWidths:
    """Bytes per build tuple, per probe tuple and per output row.

    Charges come from sizes, not from the arrays a kernel happens to
    build: a tuple moves its columns — the key column among them — through
    every pass (and across PCIe), and an output row holds every column
    once, probe columns winning name clashes.
    """

    build: int
    probe: int
    output: int

    @classmethod
    def of(cls, build: Mapping[str, np.ndarray],
           probe: Mapping[str, np.ndarray]) -> "JoinWidths":
        return cls(partition_tuple_bytes(build), partition_tuple_bytes(probe),
                   partition_tuple_bytes({**build, **probe}))

    def pair_bytes(self, build_rows, probe_rows):
        """Bytes of ``build_rows`` build and ``probe_rows`` probe tuples
        (counts or arrays of counts)."""
        return build_rows * self.build + probe_rows * self.probe

    def record(self, spec: DeviceSpec, build_rows: int, probe_rows: int,
               matches: int) -> PartitionedJoinStats:
        """The record of a partitioned join on ``spec``, from row counts.

        :func:`plan_partition_passes` plans the passes from the build rows
        and the device's tuning (TLB and cache on a CPU, scratchpad on a
        GPU); every pass moves every row of its side, so it is priced by
        rows and fan-out alone, and the output is matches x output row
        bytes.
        """
        plan = plan_partition_passes(max(build_rows, 1), HASH_ENTRY_BYTES,
                                     spec)

        def run(rows: int, tuple_bytes: int) -> PartitionRunStats:
            return PartitionRunStats(tuple_bytes, tuple(
                (rows, fanout) for fanout in plan.fanout_per_pass))

        return PartitionedJoinStats(
            build_rows=build_rows, probe_rows=probe_rows, plan=plan,
            build_run=run(build_rows, self.build),
            probe_run=run(probe_rows, self.probe),
            output_nbytes=matches * self.output)


#: Kernel counter a single-device evaluation bumps, by the tuned device.
_KERNEL_COUNTER = {DeviceKind.CPU: "cpu_radix_join",
                   DeviceKind.GPU: "gpu_partitioned_join"}


class JoinSides:
    """Both ends of a partitioned join, matched once.

    The build side is a :class:`~repro.operators.hashjoin.HashJoinBuild`
    (key coding, :class:`~repro.relational.keys.JoinBuildIndex`); the probe
    side is matched by its
    :meth:`~repro.operators.hashjoin.HashJoinBuild.match` in one probe,
    in the canonical probe-major order (``probe_idx`` ``None``: every
    probe row matched once, in order), and :meth:`gather` fetches every
    payload column once through the build's ``Rows.joined`` view.  What
    is partition-specific is kept here: the tuple widths the record is
    charged by.

    The partitioned join breaks the pipeline on *both* sides — the
    algorithm it is charged for partitions each input in full — so both
    arrive as resident batches.  ``output_order`` is ``"probe"``-major, or
    ``"build"``-major for joins whose build side is the logical right
    input; it never changes the record.
    """

    def __init__(self, build: Mapping[str, np.ndarray],
                 probe: Mapping[str, np.ndarray], *,
                 build_keys: Sequence[str], probe_keys: Sequence[str],
                 output_order: str) -> None:
        check_output_order(output_order)
        self.output_order = output_order
        self.build = HashJoinBuild(build, build_keys=build_keys)
        self.probe = Rows.of(probe)
        self.build_idx, self.probe_idx = self.build.match(self.probe,
                                                          probe_keys)
        self.widths = JoinWidths.of(self.build.rows, self.probe)

    def record(self, spec: DeviceSpec) -> PartitionedJoinStats:
        """The whole join's record with ``spec``'s tuning."""
        return self.widths.record(spec, self.build.rows.num_rows,
                                  self.probe.num_rows, len(self.build_idx))

    def gather(self) -> ArrayMap:
        """The join's output columns, in the canonical order."""
        return dict(self.build.joined(self.probe, self.build_idx,
                                      self.probe_idx, self.output_order))


def partitioned_join_kernel(
        build: Mapping[str, np.ndarray],
        probe: Mapping[str, np.ndarray], *,
        build_keys: Sequence[str],
        probe_keys: Sequence[str],
        spec: DeviceSpec,
        output_order: str = "probe",
) -> tuple[ArrayMap, PartitionedJoinStats]:
    """Evaluate the partitioned join on one device, once.

    ``spec`` supplies the tuning the record is written with, nothing
    else: the data path never looks at the device.
    """
    sides = JoinSides(build, probe, build_keys=build_keys,
                      probe_keys=probe_keys, output_order=output_order)
    record_kernel_invocation(_KERNEL_COUNTER[spec.kind])
    return sides.gather(), sides.record(spec)


#: The device-named entry points: the device is whatever ``spec`` says.
cpu_radix_join_kernel = gpu_partitioned_join_kernel = partitioned_join_kernel


def estimate_cpu_radix_join(stats: PartitionedJoinStats,
                            device: Device) -> OpCost:
    """Cost of the cache/TLB-conscious partitioned join; no data touched."""
    cost = OpCost()
    cost.merge(estimate_partition_run(stats.build_run, device))
    cost.merge(estimate_partition_run(stats.probe_run, device))
    plan = stats.plan
    cache_bytes = target_partition_bytes(device.spec)
    table_target = ("L2" if plan.tuple_bytes * plan.final_partition_tuples
                    <= cache_bytes else "L3")
    cost.add("build", device.cost.hash_build(stats.build_rows,
                                             HASH_ENTRY_BYTES,
                                             target=table_target))
    cost.add("probe", device.cost.hash_probe(
        stats.probe_rows, HASH_ENTRY_BYTES,
        int(plan.final_partition_tuples * HASH_ENTRY_BYTES),
        target=table_target))
    cost.add("compute", (stats.build_rows + stats.probe_rows)
             * _OPS_PER_JOIN_STEP / compute_ops_per_sec(device))
    cost.add("materialize-output", device.cost.seq_write(stats.output_nbytes))
    return cost


def cpu_radix_join(build: Mapping[str, np.ndarray],
                   probe: Mapping[str, np.ndarray],
                   device: Device, *,
                   build_keys: Sequence[str],
                   probe_keys: Sequence[str]) -> OpOutput:
    """The cache/TLB-conscious CPU partitioned hash join."""
    if not device.is_cpu:
        raise ValueError("cpu_radix_join must be placed on a CPU device")
    columns, stats = partitioned_join_kernel(
        build, probe, build_keys=build_keys, probe_keys=probe_keys,
        spec=device.spec)
    return OpOutput(columns=columns,
                    cost=estimate_cpu_radix_join(stats, device))
