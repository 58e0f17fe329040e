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

The skeleton works on **positions, not payloads** (late materialisation):
the join keys are coded once (:class:`~repro.relational.keys.KeyDomain`,
exact and as dense as the build side allows) and kept apart from the
payload, a partitioning pass permutes one position vector per side
(:func:`partition_positions`, the one bucket-ordering implementation),
co-partitions are matched on the code digits the passes did not consume,
the canonical output order is restored on the two position vectors, and
every payload column is gathered exactly once, at the end
(:class:`JoinSides`).  The cost model
keeps charging the paper's algorithm — every pass moves every tuple, key
column and payload alike — because charges come from sizes (rows x the
columns' own item sizes, held by :class:`JoinSides`), not from the arrays
the kernel happens to build: the ``int64`` key codes are the kernel's
business and are charged to nobody.

Following the single-evaluation operator contract (see
:mod:`repro.operators`), the functional partitioning of a column map lives
in :func:`radix_partition_kernel` — one position pass plus one gather per
column, with the ``fanout`` buckets sliced out as zero-copy views — while
:func:`estimate_radix_partition` / :func:`estimate_partition_run` price a
:class:`PartitionRunStats` record, one ``(rows, fanout)`` entry per *pass*:
a pass reads and writes its whole input once whatever chunks the earlier
passes left (one kernel launch per pass on a GPU), so its price depends on
rows and fan-out only — which is what lets :mod:`repro.perf` write the
record of a paper-scale join down in closed form and replay it through
the same estimators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from ..hardware.device import Device
from ..hardware.specs import DeviceKind, DeviceSpec
from ..relational.keys import JoinBuildIndex, KeyDomain
from .base import (
    ArrayMap,
    OpCost,
    OpOutput,
    Rows,
    record_kernel_invocation,
)
from .filterproject import compute_ops_per_sec
from .hashjoin import HASH_ENTRY_BYTES

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
    significant base-``fanout`` digit, ``key % fanout``."""
    return np.asarray(keys, dtype=np.int64) % fanout


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
    record_kernel_invocation("radix_partition", len(fanouts))
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
# The partitioned join: one skeleton, tuned per device
# ----------------------------------------------------------------------
def partitioned_join(
        build_keys: np.ndarray, probe_keys: np.ndarray, *,
        fanouts: Sequence[int],
        match: Callable[[np.ndarray, np.ndarray],
                        "tuple[np.ndarray, np.ndarray] | None"],
) -> tuple[np.ndarray, np.ndarray,
           tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    """The device-invariant skeleton of every partitioned join, on positions.

    Run one partitioning pass per entry of ``fanouts`` over the positions
    of both key-code vectors, hand the key slices of every co-partition
    to ``match``, and translate the local match indices back into
    positions of ``build_keys`` / ``probe_keys``.  Returns the matching
    ``(build, probe)`` positions in partition-major order and both sides'
    ``calls`` records.  No payload column is touched: the caller gathers
    them once, from the positions (:class:`JoinSides`).

    ``match(build_keys, probe_keys)`` joins one co-partition.  The passes
    consumed the keys' low digits — all keys of a partition share them —
    so it is handed the digits they left, ``key // prod(fanouts)``: equal
    inside a partition iff the keys are, and dense where the keys were
    (the co-partitions of dense unique keys index by counting, see
    :class:`~repro.relational.keys.JoinBuildIndex`).  It returns the
    matching ``(build, probe)`` index pairs local to those slices —
    ordered by probe index, the matches of one probe index contiguous and
    build-ascending, which is what :func:`restore_canonical_order` relies
    on — or ``None`` when the pair produced nothing.

    What a device (or a set of devices) contributes is tuning only: the
    fan-outs, and where a co-partition is joined — ``match`` may itself be
    this function with further fan-outs (the co-processed join's in-GPU
    join): what it is handed starts at the first digit no pass has used,
    so there is no stride for a caller to carry along.
    """
    build_order, build_bounds, build_calls = partition_positions(
        build_keys, fanouts)
    probe_order, probe_bounds, probe_calls = partition_positions(
        probe_keys, fanouts)
    consumed = math.prod(fanouts)
    build_sorted = build_keys[build_order] // consumed
    probe_sorted = probe_keys[probe_order] // consumed
    found = [(np.empty(0, dtype=np.int64),) * 2]
    for part in range(len(build_bounds) - 1):
        build_low, probe_low = build_bounds[part], probe_bounds[part]
        pairs = match(build_sorted[build_low:build_bounds[part + 1]],
                      probe_sorted[probe_low:probe_bounds[part + 1]])
        if pairs is not None:
            found.append((pairs[0] + build_low, pairs[1] + probe_low))
    build_found, probe_found = map(np.concatenate, zip(*found))
    return (build_order[build_found], probe_order[probe_found],
            build_calls, probe_calls)


def restore_canonical_order(build_idx: np.ndarray, probe_idx: np.ndarray, *,
                            probe_rows: int, output_order: str,
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Permute partition-major match positions into the canonical order.

    ``"probe"`` orders by probe position with ties by build position (the
    natural order of the non-partitioned join).  It needs no sort: all
    matches of one probe row sit in one co-partition, contiguous and
    already build-ascending, so every run is scattered to where a count of
    the matches per probe row says it starts.  ``"build"`` is build-major:
    the matches of one build row are probe-ascending wherever they sit, so
    one stable sort of the build positions orders them.
    """
    if output_order == "build":
        order = np.argsort(build_idx, kind="stable")
        return build_idx[order], probe_idx[order]
    counts = np.bincount(probe_idx, minlength=probe_rows)
    starts_run = np.ones(len(probe_idx), dtype=bool)
    starts_run[1:] = probe_idx[1:] != probe_idx[:-1]
    run_first = np.flatnonzero(starts_run)
    run_rows = probe_idx[run_first]
    starts = np.cumsum(counts) - counts
    destination = (np.repeat(starts[run_rows] - run_first, counts[run_rows])
                   + np.arange(len(probe_idx)))
    restored = np.empty_like(build_idx)
    restored[destination] = build_idx
    return restored, np.repeat(np.arange(probe_rows), counts)


@dataclass(frozen=True)
class PartitionedJoinStats:
    """Data-derived quantities the partitioned-join estimators need."""

    build_rows: int
    probe_rows: int
    plan: PartitionPlan
    build_run: PartitionRunStats
    probe_run: PartitionRunStats
    output_nbytes: int


def _build_and_probe(build_keys: np.ndarray, probe_keys: np.ndarray,
                     ) -> tuple[np.ndarray, np.ndarray] | None:
    """Hash-join one co-partition in the device's fast memory."""
    if not (len(build_keys) and len(probe_keys)):
        return None
    return JoinBuildIndex(build_keys).probe(probe_keys)


#: Kernel counter a single-device evaluation bumps, by the tuned device.
_KERNEL_COUNTER = {DeviceKind.CPU: "cpu_radix_join",
                   DeviceKind.GPU: "gpu_partitioned_join"}


class JoinSides:
    """Both column-map ends of a partitioned join, payload left in place.

    Construction is everything before positions: the build side's key
    tuples define the :class:`~repro.relational.keys.KeyDomain`, both
    sides are coded in it once, and the codes are kept apart from the
    payload.
    :meth:`gather` is everything after: canonical order restored on the
    two position vectors, then every payload column fetched exactly once.
    In between, :meth:`join_on` runs the skeleton with one device's tuning.

    The partitioned join breaks the pipeline on *both* sides — multi-pass
    partitioning needs each input in full — so both arrive as resident
    batches, and results and recorded pass shapes cannot depend on the
    engine's morsel size.

    ``output_order`` is the canonical join output order to restore
    (``"probe"``-major, or ``"build"``-major for joins whose build side is
    the logical right input); ``None`` leaves the partition-major
    implementation order.  Stats records are identical for every setting.
    """

    def __init__(self, build: Mapping[str, np.ndarray],
                 probe: Mapping[str, np.ndarray], *,
                 build_keys: Sequence[str], probe_keys: Sequence[str],
                 output_order: str | None) -> None:
        if output_order not in ("probe", "build", None):
            raise ValueError("output_order must be 'probe', 'build' or None")
        self.build, self.probe = Rows.of(build), Rows.of(probe)
        domain = KeyDomain(self.build, build_keys)
        self.build_keys = domain.codes
        self.probe_keys = domain.encode(self.probe, probe_keys)
        self.output_order = output_order
        # Charges come from sizes, not from the arrays a kernel happens to
        # build: a tuple moves its columns — the key column among them —
        # through every pass (and across PCIe), and an output row holds
        # every column once, probe columns winning name clashes.
        self.build_tuple_bytes = partition_tuple_bytes(self.build)
        self.probe_tuple_bytes = partition_tuple_bytes(self.probe)
        self.output_row_bytes = partition_tuple_bytes(
            {**self.build, **self.probe})

    def join_on(self, spec: DeviceSpec, build_keys: np.ndarray,
                probe_keys: np.ndarray,
                ) -> tuple[np.ndarray, np.ndarray, PartitionedJoinStats]:
        """:func:`partitioned_join` with one device's tuning.

        Joins the given key codes — both sides in full, or the slices an
        outer :func:`partitioned_join` hands one co-partition.  Passes
        planned by :func:`plan_partition_passes` (TLB and cache on a CPU,
        scratchpad on a GPU) and every co-partition built and probed in
        place.  ``spec`` supplies nothing else — the
        data path never looks at the device.  Returns the match positions
        and the stats record.
        """
        record_kernel_invocation(_KERNEL_COUNTER[spec.kind])
        plan = plan_partition_passes(max(len(build_keys), 1),
                                     HASH_ENTRY_BYTES, spec)
        build_idx, probe_idx, build_calls, probe_calls = partitioned_join(
            build_keys, probe_keys, fanouts=plan.fanout_per_pass,
            match=_build_and_probe)
        return build_idx, probe_idx, PartitionedJoinStats(
            build_rows=len(build_keys), probe_rows=len(probe_keys), plan=plan,
            build_run=PartitionRunStats(self.build_tuple_bytes, build_calls),
            probe_run=PartitionRunStats(self.probe_tuple_bytes, probe_calls),
            output_nbytes=len(build_idx) * self.output_row_bytes)

    def gather(self, build_idx: np.ndarray, probe_idx: np.ndarray) -> ArrayMap:
        """The join's output columns for partition-major match positions.

        When every probe row matched exactly once, in order, the probe
        columns pass through as they are.
        """
        probe_rows = len(self.probe_keys)
        if self.output_order is not None:
            build_idx, probe_idx = restore_canonical_order(
                build_idx, probe_idx, probe_rows=probe_rows,
                output_order=self.output_order)
        unmoved = (len(probe_idx) == probe_rows
                   and (probe_idx == np.arange(probe_rows)).all())
        return dict(Rows.joined(self.build, self.probe, build_idx,
                                None if unmoved else probe_idx))


def partitioned_join_kernel(
        build: Mapping[str, np.ndarray],
        probe: Mapping[str, np.ndarray], *,
        build_keys: Sequence[str],
        probe_keys: Sequence[str],
        spec: DeviceSpec,
        output_order: str | None = "probe",
) -> tuple[ArrayMap, PartitionedJoinStats]:
    """Evaluate the partitioned join on one device, once."""
    sides = JoinSides(build, probe, build_keys=build_keys,
                      probe_keys=probe_keys, output_order=output_order)
    build_idx, probe_idx, stats = sides.join_on(spec, sides.build_keys,
                                                sides.probe_keys)
    return sides.gather(build_idx, probe_idx), stats


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
