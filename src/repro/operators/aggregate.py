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
from ..relational.expr import AggregateSpec
from ..relational.keys import KeyDomain, group_ids
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
                ) -> tuple[ArrayMap, np.ndarray, np.ndarray]:
    """Group a batch on its exact key codes.

    Returns the group-by columns (one row per group, groups in
    lexicographic order of those columns), every row's group id and every
    group's row count.
    """
    ids, counts = group_ids(KeyDomain(columns, group_by).codes)
    representative = np.empty(len(counts), dtype=np.int64)
    representative[ids] = np.arange(len(ids))
    return ({name: np.asarray(columns[name])[representative]
             for name in group_by}, ids, counts)


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
    complete phase.
    """
    record_kernel_invocation("hash_aggregate")
    columns = {name: np.asarray(values) for name, values in columns.items()}
    num_rows = columns_num_rows(columns)

    result, ids, counts = _group_rows(columns, group_by)
    if not (num_rows or group_by):
        # SQL semantics for the empty input: a grouped aggregate has no
        # groups, but a *grand* aggregate still emits its single row
        # (count=0, sum=0, min=inf, ...), matching the reference executor.
        counts = np.zeros(1, dtype=np.int64)
    for spec in aggregates:
        result.update(_evaluate_aggregate(spec, columns, ids, counts, phase,
                                          grand=not group_by))
    return result, AggregateStats(num_rows=num_rows, num_groups=len(counts))


def _evaluate_aggregate(spec: AggregateSpec, columns: Mapping[str, np.ndarray],
                        ids: np.ndarray, counts: np.ndarray, phase: str, *,
                        grand: bool = False) -> ArrayMap:
    if spec.func == "count":
        return {spec.alias: counts.astype(np.int64)}
    values = np.asarray(spec.expr.evaluate(columns), dtype=np.float64)
    if grand:
        # One global group: accumulate with NumPy's pairwise reduction,
        # exactly as the reference executor's grand aggregate does — the
        # sequential per-group ``np.bincount`` path would differ in the
        # last ulp for large inputs.
        sums = np.asarray([values.sum()])
    else:
        sums = np.bincount(ids, weights=values, minlength=len(counts))
    if spec.func == "sum":
        return {spec.alias: sums}
    if spec.func == "avg":
        if phase == "partial":
            return {f"{spec.alias}__sum": sums,
                    f"{spec.alias}__count": counts.astype(np.float64)}
        return {spec.alias: sums / np.maximum(counts, 1)}
    return {spec.alias: _extreme(spec.func, ids, len(counts), values)}


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

    result, ids, counts = _group_rows(concatenated, group_by)

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
    return result, nbytes
