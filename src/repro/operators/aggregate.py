"""Hash-based group-by aggregation.

The engine aggregates in two phases (Section 4.2's homogeneous parallelism
and Section 5's horizontal co-processing): every device instance builds a
*partial* aggregate over the packets routed to it, and a final CPU-side
instance merges the partials.  Partial hash tables are small (one entry per
group), so the random accesses they incur land in cache/scratchpad; the cost
model reflects that.

Following the single-evaluation operator contract (see
:mod:`repro.operators`), the functional work lives in
:func:`hash_aggregate_kernel` / :func:`merge_partials_kernel` while
:func:`estimate_hash_aggregate` / :func:`estimate_merge_partials` cost the
same work on any device from an :class:`AggregateStats` record alone.

Under the morsel contract the aggregate is a pipeline *breaker*: no output
row exists before the last input row has been seen, so the executor hands
:func:`hash_aggregate_kernel` the resident batch — the reassembled boundary
of the morsel stream below it — and the kernel runs one vectorized
aggregation over it.  One pass fixes the floating-point accumulation order,
and therefore every output bit, whatever the engine's morsel size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..hardware.costmodel import AccessProfile
from ..hardware.device import Device
from ..relational.expr import AggregateSpec, evaluate_all
from ..relational.keys import DIRECTORY_BUCKETS_PER_ROW, KeyDomain, group_ids
from .base import (
    ArrayMap,
    OpCost,
    columns_num_rows,
    record_kernel_invocation,
)
from .filterproject import compute_ops_per_sec, expression_op_count

#: Bytes per hash-table entry per aggregate (key + running value).
_ENTRY_BYTES = 16


@dataclass(frozen=True)
class AggregateStats:
    """Data-derived quantities the aggregation cost estimator needs."""

    num_rows: int
    num_groups: int


def _aggregate_target(device: Device, table_bytes: int) -> str:
    """Where the group hash table effectively lives on this device."""
    if device.is_gpu:
        scratchpad = device.spec.scratchpad
        if scratchpad is not None and table_bytes <= scratchpad.capacity_bytes:
            return "scratchpad"
        return "L2"
    if table_bytes <= device.spec.cache("L1").capacity_bytes:
        return "L1"
    if table_bytes <= device.spec.last_level_cache.capacity_bytes:
        return "L3"
    return "memory"


def estimate_hash_aggregate(stats: AggregateStats, device: Device, *,
                            aggregates: Sequence[AggregateSpec]) -> OpCost:
    """Cost of one hash-aggregation pass on ``device``; no data touched.

    Each input tuple performs one hash-table update (random access to a
    table of ``num_groups`` entries) plus the per-aggregate arithmetic.
    """
    cost = OpCost()
    num_groups = max(stats.num_groups, 1)
    table_bytes = num_groups * _ENTRY_BYTES * max(len(aggregates), 1)
    target = _aggregate_target(device, table_bytes)
    if stats.num_rows:
        cost.add(
            f"agg-update[{target}]",
            device.cost.random_access(
                AccessProfile(stats.num_rows, _ENTRY_BYTES, table_bytes,
                              write_fraction=1.0),
                target=target,
            ),
        )
        ops = sum(expression_op_count(spec.expr) + 2 for spec in aggregates)
        cost.add("compute", stats.num_rows * ops / compute_ops_per_sec(device))
        if device.is_gpu:
            cost.add("atomics", device.cost.atomic_ops(stats.num_rows))
            cost.add("kernel-launch", device.cost.kernel_launch())
    return cost


def _group_rows(columns: Mapping[str, np.ndarray], group_by: Sequence[str],
                ) -> tuple[ArrayMap, np.ndarray, np.ndarray, np.ndarray]:
    """Group a batch on its exact key codes.

    Returns the group-by columns (one row per group, groups in
    lexicographic order of those columns), every row's slot, every slot's
    row count and the occupied slots, one per group.

    A key domain no sparser than the join directory's buckets (at most
    ``DIRECTORY_BUCKETS_PER_ROW`` codes per row) is grouped *slot-major*:
    a row's code, less the domain's lowest, is its slot and one
    ``bincount`` counts every slot.  Per-group outputs are taken over the
    slots, then compacted once to the occupied ones — O(rows) work.  A
    sparser domain is numbered by :func:`group_ids`' sort, every slot a
    group.  Either way the group-by columns are decoded from the groups'
    codes; only keys a step ranks (floats: ``-0.0`` and ``0.0`` group
    together) take each group's columns from its last row, as the
    reference executor does.
    """
    domain = KeyDomain(columns, group_by)
    slots, low, size = domain.codes, 0, domain.size
    if size is None:   # a column that is its own code: its range
        low = int(slots.min())
        size = int(slots.max()) - low + 1
    if size <= DIRECTORY_BUCKETS_PER_ROW * len(slots):
        # Widened: a narrow key's span may not fit its own width.
        slots = np.subtract(slots, low, dtype=np.int64) if low else slots
        counts = np.bincount(slots, minlength=size)
        occupied = np.flatnonzero(counts)
        codes = occupied + low
    else:
        codes, slots, counts = group_ids(slots)
        occupied = np.arange(len(codes))
    arrays = [columns[name] for name in group_by]
    keys = domain.decode(codes, arrays)
    if keys is None:
        representative = np.empty(len(counts), dtype=np.int64)
        representative[slots] = np.arange(len(slots))
        keys = [values[representative[occupied]] for values in arrays]
    return dict(zip(group_by, keys)), slots, counts, occupied


def hash_aggregate_kernel(
        columns: Mapping[str, np.ndarray], *,
        group_by: Sequence[str],
        aggregates: Sequence[AggregateSpec],
        phase: str = "complete",
) -> tuple[ArrayMap, AggregateStats]:
    """Aggregate one packet once; device-independent.

    ``phase`` only affects how ``avg`` is handled: partial aggregation keeps
    ``sum`` and ``count`` so that the final merge can recombine them; the
    reference output shape (one ``avg`` column) is produced by the final /
    complete phase.  Specs over the same input expression share one
    evaluated array and one sum (Q1's ``avg_qty`` divides ``sum_qty``'s).
    """
    record_kernel_invocation("hash_aggregate")
    columns = {name: np.asarray(values) for name, values in columns.items()}
    num_rows = columns_num_rows(columns)

    keys, ids, counts, occupied = _group_rows(columns, group_by)
    if not (num_rows or group_by):
        # SQL semantics for the empty input: a grouped aggregate has no
        # groups, but a *grand* aggregate still emits its single row
        # (count=0, sum=0, min=inf, ...), matching the reference executor.
        counts = occupied = np.zeros(1, dtype=np.int64)
    exprs = {repr(spec.expr): spec.expr for spec in aggregates
             if spec.func != "count"}
    inputs = {key: np.asarray(values, dtype=np.float64) for key, values
              in zip(exprs, evaluate_all(list(exprs.values()), columns))}
    sums: dict[str, np.ndarray] = {}
    result: dict[str, np.ndarray] = {}
    for spec in aggregates:
        key = repr(spec.expr)
        if spec.func == "count":
            result[spec.alias] = counts.astype(np.int64)
            continue
        if spec.func in ("min", "max"):
            result[spec.alias] = _extreme(spec.func, ids, len(counts),
                                          inputs[key])
            continue
        if key not in sums:
            # One global group: accumulate with NumPy's pairwise reduction,
            # exactly as the reference executor's grand aggregate does —
            # the sequential per-group ``np.bincount`` path would differ in
            # the last ulp for large inputs.
            sums[key] = (np.asarray([inputs[key].sum()]) if not group_by
                         else np.bincount(ids, weights=inputs[key],
                                          minlength=len(counts)))
        if spec.func == "sum":
            result[spec.alias] = sums[key]
        elif phase == "partial":
            result[f"{spec.alias}__sum"] = sums[key]
            result[f"{spec.alias}__count"] = counts.astype(np.float64)
        else:
            result[spec.alias] = sums[key] / np.maximum(counts, 1)
    result = {**keys, **{name: values[occupied]
                         for name, values in result.items()}}
    return result, AggregateStats(num_rows=num_rows,
                                  num_groups=len(occupied))


def _extreme(func: str, ids: np.ndarray, num_groups: int,
             values: np.ndarray) -> np.ndarray:
    """Per-group ``min`` / ``max``; an empty group keeps the identity."""
    reduce, identity = ((np.minimum, np.inf) if func == "min"
                        else (np.maximum, -np.inf))
    out = np.full(num_groups, identity)
    reduce.at(out, ids, values)
    return out


def estimate_merge_partials(nbytes: int, device: Device) -> OpCost:
    """Cost of merging concatenated partials: one streaming pass."""
    cost = OpCost()
    cost.add("merge", device.cost.seq_scan(int(nbytes)))
    return cost


def merge_partials_kernel(
        partials: Sequence[Mapping[str, np.ndarray]], *,
        group_by: Sequence[str],
        aggregates: Sequence[AggregateSpec],
) -> tuple[ArrayMap, int]:
    """Merge per-device partial aggregates once; returns (columns, nbytes).

    ``nbytes`` is the concatenated partial payload the estimator charges a
    streaming pass for.
    """
    record_kernel_invocation("merge_partials")
    # No rows anywhere: the first partial alone keeps the merge shape- and
    # dtype-correct (group-by columns keep the dtype the partials carry).
    non_empty = [partial for partial in partials
                 if columns_num_rows(partial)] or partials[:1]
    concatenated: ArrayMap = {
        name: np.concatenate([partial[name] for partial in non_empty])
        for name in non_empty[0]
    }
    nbytes = int(sum(values.nbytes for values in concatenated.values()))

    keys, ids, counts, occupied = _group_rows(concatenated, group_by)
    result: dict[str, np.ndarray] = {}

    def total(name: str) -> np.ndarray:
        return np.bincount(ids, weights=concatenated[name],
                           minlength=len(counts))

    for spec in aggregates:
        if spec.func == "count":
            result[spec.alias] = total(spec.alias).astype(np.int64)
        elif spec.func == "sum":
            result[spec.alias] = total(spec.alias)
        elif spec.func == "avg":
            result[spec.alias] = (total(f"{spec.alias}__sum") / np.maximum(
                total(f"{spec.alias}__count"), 1))
        else:
            result[spec.alias] = _extreme(spec.func, ids, len(counts),
                                          concatenated[spec.alias])
    return {**keys, **{name: values[occupied]
                       for name, values in result.items()}}, nbytes
