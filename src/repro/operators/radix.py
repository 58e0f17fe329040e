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
The skeleton itself is written once too: :func:`partitioned_join` is the
data path of the CPU radix join, the in-GPU partitioned join and the
co-processed join of :mod:`repro.operators.coprocess` alike — they differ
in the fan-outs they hand it and in where a co-partition is joined.

Following the single-evaluation operator contract (see
:mod:`repro.operators`), the functional partitioning lives in
:func:`radix_partition_kernel` — one stable argsort plus one gather per
column, with the ``fanout`` buckets sliced out as zero-copy views — while
:func:`estimate_radix_partition` / :func:`estimate_partition_run` replay the
exact per-pass cost arithmetic from a :class:`PartitionRunStats` record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from ..hardware.device import Device
from ..hardware.specs import DeviceKind, DeviceSpec
from ..storage.morsel import MorselSink, iter_morsels
from .base import (
    ORDER_COLUMN_PREFIX,
    ArrayMap,
    OpCost,
    OpOutput,
    columns_num_rows,
    is_order_column,
    payload_nbytes,
    record_kernel_invocation,
)
from .filterproject import compute_ops_per_sec
from .hashjoin import (
    HASH_ENTRY_BYTES,
    _materialize_join,
    composite_key,
    join_match_indices,
)

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
                          spec: DeviceSpec, *,
                          target_bytes: int | None = None) -> PartitionPlan:
    """Choose the number of passes and per-pass fan-out for one device."""
    if input_tuples <= 0:
        raise ValueError("input_tuples must be positive")
    if tuple_bytes <= 0:
        raise ValueError("tuple_bytes must be positive")
    target = target_bytes if target_bytes is not None else target_partition_bytes(spec)
    target_tuples = max(int(target // (tuple_bytes * 2)), 1)
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

    ``calls`` records one ``(num_rows, fanout)`` entry per
    :func:`radix_partition_kernel` invocation, in execution order, so that
    :func:`estimate_partition_run` can replay the exact cost arithmetic of
    the run on any device without touching the data again.
    """

    tuple_bytes: int
    calls: tuple[tuple[int, int], ...]


def radix_buckets(keys: np.ndarray, fanout: int) -> np.ndarray:
    """The bucket (``0 .. fanout - 1``) every key falls into."""
    keys = np.asarray(keys, dtype=np.int64)
    return (keys % fanout + fanout) % fanout


def radix_partition_kernel(columns: Mapping[str, np.ndarray], *,
                           key: str, fanout: int) -> list[ArrayMap]:
    """Partition one column map into ``fanout`` buckets by key radix.

    One stable argsort of the bucket ids plus a single gather per column;
    the buckets are then sliced out of the gathered arrays as zero-copy
    views (the store-consolidation analogue of Figure 4: every input tuple
    is moved exactly once).
    """
    if fanout < 1:
        raise ValueError("fanout must be at least 1")
    record_kernel_invocation("radix_partition")
    columns = {name: np.asarray(values) for name, values in columns.items()}
    num_rows = columns_num_rows(columns)
    if num_rows == 0:
        return [dict(columns) for _ in range(fanout)]
    if key not in columns:
        raise KeyError(key)
    if fanout == 1:
        return [dict(columns)]
    bucket = radix_buckets(columns[key], fanout)
    order = np.argsort(bucket, kind="stable")
    boundaries = np.searchsorted(bucket[order], np.arange(fanout + 1))
    gathered = {name: values[order] for name, values in columns.items()}
    return [
        {name: values[boundaries[index]:boundaries[index + 1]]
         for name, values in gathered.items()}
        for index in range(fanout)
    ]


def partition_tuple_bytes(columns: Mapping[str, np.ndarray]) -> int:
    """Bytes one tuple of a column map occupies during a partition pass.

    Row-order bookkeeping columns (``__ord*``) are excluded: they only
    exist to restore the canonical join output order and must never change
    a stats record (simulated costs derive from stats alone).
    """
    return max(
        int(sum(np.asarray(values).dtype.itemsize
                for name, values in columns.items()
                if not is_order_column(name))), 1)


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


def radix_partition(columns: Mapping[str, np.ndarray], device: Device, *,
                    key: str, fanout: int) -> tuple[list[ArrayMap], OpCost]:
    """Partition one column map on one device (kernel + cost in one).

    Returns the partitions (list of column maps) and the cost of the pass.
    """
    num_rows = columns_num_rows(columns)
    tuple_bytes = partition_tuple_bytes(columns)
    partitions = radix_partition_kernel(columns, key=key, fanout=fanout)
    cost = estimate_radix_partition(num_rows, tuple_bytes, fanout, device)
    return partitions, cost


def partition_passes_kernel(
        columns: Mapping[str, np.ndarray], *,
        key: str, fanouts: Sequence[int], pool=None,
) -> tuple[list[ArrayMap], PartitionRunStats]:
    """Apply one partitioning pass per fan-out, recording run stats.

    ``pool`` (a :class:`repro.engine.workers.WorkerPool`-shaped object, or
    ``None`` for inline execution) parallelizes the independent chunk
    partitionings *within* one pass.  Determinism contract: chunks are
    submitted in level order and merged back in submission order, and the
    ``calls`` record is written on the calling thread in that same order
    — partitions, stats and therefore replayed costs are bit-identical at
    every worker count.
    """
    tuple_bytes = partition_tuple_bytes(columns)
    calls: list[tuple[int, int]] = []
    current = [dict(columns)]
    for fanout in fanouts:
        calls.extend((columns_num_rows(chunk), fanout) for chunk in current)
        if pool is not None and pool.parallel and len(current) > 1:
            partitioned = pool.map_ordered(
                lambda chunk: radix_partition_kernel(chunk, key=key,
                                                     fanout=fanout),
                current)
        else:
            partitioned = [radix_partition_kernel(chunk, key=key,
                                                  fanout=fanout)
                           for chunk in current]
        current = [part for buckets in partitioned for part in buckets]
    return current, PartitionRunStats(tuple_bytes=tuple_bytes,
                                      calls=tuple(calls))


# ----------------------------------------------------------------------
# The partitioned join: one skeleton, tuned per device
# ----------------------------------------------------------------------
#: Bookkeeping columns threading the original build/probe row positions
#: through the partition passes, so the bucket-major match output can be
#: restored to the canonical order.  Excluded from every byte-based stat.
ORD_BUILD = ORDER_COLUMN_PREFIX + "_build"
ORD_PROBE = ORDER_COLUMN_PREFIX + "_probe"


def restore_canonical_order(columns: ArrayMap, *,
                            output_order: str) -> ArrayMap:
    """Sort a partitioned join's output into the canonical row order.

    ``"probe"`` orders by original probe position with ties by build
    position (the natural order of the non-partitioned join); ``"build"``
    is build-major.  The bookkeeping columns are dropped from the result.
    """
    build_pos = np.asarray(columns[ORD_BUILD])
    probe_pos = np.asarray(columns[ORD_PROBE])
    if output_order == "probe":
        order = np.lexsort((build_pos, probe_pos))
    else:
        order = np.lexsort((probe_pos, build_pos))
    return {name: np.asarray(values)[order]
            for name, values in columns.items()
            if not is_order_column(name)}


def _payload(part: Mapping[str, np.ndarray]) -> ArrayMap:
    return {name: values for name, values in part.items() if name != "__key"}


def partitioned_join(
        build: Mapping[str, np.ndarray],
        probe: Mapping[str, np.ndarray], *,
        build_keys: Sequence[str],
        probe_keys: Sequence[str],
        fanouts: Sequence[int],
        join_copartition: Callable[[ArrayMap, ArrayMap], ArrayMap | None],
        output_order: str | None,
        morsel_rows: int | None = None,
        pool=None,
) -> tuple[ArrayMap, PartitionRunStats, PartitionRunStats]:
    """The device-invariant skeleton of every partitioned join.

    Fold the join keys into one ``__key`` column, attach the order
    positions, run one partitioning pass per entry of ``fanouts`` on both
    sides, hand every co-partition to ``join_copartition`` (``None`` =
    the pair produced nothing), concatenate the match output and restore
    the canonical order.  Returns the columns and both sides' pass shapes.

    What a device (or a set of devices) contributes is tuning only: the
    fan-outs, and where a co-partition is joined.

    The partitioned join breaks the pipeline on *both* sides — multi-pass
    partitioning needs each input in full.  With ``morsel_rows`` set, both
    sides are consumed as morsel streams into
    :class:`~repro.storage.morsel.MorselSink` instances (zero-copy for
    resident batches) before partitioning, so results and recorded pass
    shapes are bit-identical for every morsel size.

    ``output_order`` restores the canonical join output order
    (``"probe"``-major, or ``"build"``-major for joins whose build side is
    the logical right input) by threading original-position bookkeeping
    columns through the passes and sorting the match output once at the
    end; ``None`` leaves the bucket-major implementation order (a join
    running inside another's co-partition — the outer one canonicalizes).
    Pass shapes are identical for every setting.

    ``pool`` parallelizes the partition passes (see
    :func:`partition_passes_kernel`); results are bit-identical at every
    worker count.
    """
    if output_order not in ("probe", "build", None):
        raise ValueError("output_order must be 'probe', 'build' or None")
    if morsel_rows is not None:
        build = MorselSink().extend(iter_morsels(build, morsel_rows)).finish()
        probe = MorselSink().extend(iter_morsels(probe, morsel_rows)).finish()
    build = {name: np.asarray(values) for name, values in build.items()}
    probe = {name: np.asarray(values) for name, values in probe.items()}
    build["__key"] = composite_key(build, build_keys)
    probe["__key"] = composite_key(probe, probe_keys)
    if output_order is not None:
        build[ORD_BUILD] = np.arange(columns_num_rows(build), dtype=np.int64)
        probe[ORD_PROBE] = np.arange(columns_num_rows(probe), dtype=np.int64)

    build_parts, build_run = partition_passes_kernel(
        build, key="__key", fanouts=fanouts, pool=pool)
    probe_parts, probe_run = partition_passes_kernel(
        probe, key="__key", fanouts=fanouts, pool=pool)

    outputs = [output for output in map(join_copartition,
                                        build_parts, probe_parts)
               if output is not None]
    if outputs:
        columns = {name: np.concatenate([part[name] for part in outputs])
                   for name in outputs[0]}
    else:
        no_rows = np.asarray([], dtype=np.int64)
        columns = _materialize_join(_payload(build), _payload(probe),
                                    no_rows, no_rows)
    if output_order is not None:
        columns = restore_canonical_order(columns, output_order=output_order)
    return columns, build_run, probe_run


@dataclass(frozen=True)
class PartitionedJoinStats:
    """Data-derived quantities the partitioned-join estimators need."""

    build_rows: int
    probe_rows: int
    plan: PartitionPlan
    build_run: PartitionRunStats
    probe_run: PartitionRunStats
    output_nbytes: int


def _build_and_probe(build_part: ArrayMap,
                     probe_part: ArrayMap) -> ArrayMap | None:
    """Hash-join one co-partition in the device's fast memory."""
    if not (columns_num_rows(build_part) and columns_num_rows(probe_part)):
        return None
    return _materialize_join(
        _payload(build_part), _payload(probe_part),
        *join_match_indices(build_part["__key"], probe_part["__key"]))


#: Kernel counter a single-device evaluation bumps, by the tuned device.
_KERNEL_COUNTER = {DeviceKind.CPU: "cpu_radix_join",
                   DeviceKind.GPU: "gpu_partitioned_join"}


def partitioned_join_kernel(
        build: Mapping[str, np.ndarray],
        probe: Mapping[str, np.ndarray], *,
        build_keys: Sequence[str],
        probe_keys: Sequence[str],
        spec: DeviceSpec,
        morsel_rows: int | None = None,
        output_order: str | None = "probe",
        pool=None,
) -> tuple[ArrayMap, PartitionedJoinStats]:
    """Evaluate the partitioned join on one device, once.

    :func:`partitioned_join` with ``spec``'s tuning: passes planned by
    :func:`plan_partition_passes` (TLB and cache on a CPU, scratchpad on a
    GPU) and every co-partition built and probed in place.  ``spec``
    supplies nothing else — the data path never looks at the device.
    """
    record_kernel_invocation(_KERNEL_COUNTER[spec.kind])
    build_rows = columns_num_rows(build)
    plan = plan_partition_passes(max(build_rows, 1), HASH_ENTRY_BYTES, spec)
    columns, build_run, probe_run = partitioned_join(
        build, probe, build_keys=build_keys, probe_keys=probe_keys,
        fanouts=plan.fanout_per_pass, join_copartition=_build_and_probe,
        output_order=output_order, morsel_rows=morsel_rows, pool=pool)
    stats = PartitionedJoinStats(
        build_rows=build_rows, probe_rows=columns_num_rows(probe), plan=plan,
        build_run=build_run, probe_run=probe_run,
        output_nbytes=payload_nbytes(columns),
    )
    return columns, stats


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
