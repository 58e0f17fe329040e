"""Fused scan / filter / project processing of packets.

In a JIT engine these three steps are generated as a single tight loop per
pipeline; the cost model therefore charges one streaming pass over the
referenced input columns plus the vectorized compute, with *no*
materialization of intermediates — the contrast with the vector-at-a-time
baseline (DBMS C), which pays one in-cache materialization per primitive.

Filter/project is a *streaming* operator under the morsel contract (see
:mod:`repro.operators.base`): :func:`filter_project_morsel` transforms one
morsel independently of every other, so the executor's driver may apply it
slice by slice — bounded per-morsel working set (predicate masks and
expression temporaries never exceed one morsel) — and concatenate.
:func:`filter_project_kernel` is the same body applied to the whole batch
plus the stats record: the reference the driver's streaming is tested
against, bit for bit.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from dataclasses import dataclass

from ..hardware.device import Device
from ..relational.expr import Expr
from .base import (
    ArrayMap,
    OpCost,
    columns_num_rows,
    record_kernel_invocation,
)

#: Rough number of scalar operations one expression node costs per tuple.
_OPS_PER_EXPR_NODE = 2.0

#: Scalar operations per second one CPU core / GPU SM sustains on tight
#: generated loops.  Used to account compute cost on top of bandwidth.
_CPU_CORE_OPS_PER_SEC = 4.0e9
_GPU_SM_OPS_PER_SEC = 40.0e9


def compute_ops_per_sec(device: Device) -> float:
    """Aggregate scalar throughput of a device for generated tight loops."""
    if device.is_gpu:
        return device.spec.compute_units * _GPU_SM_OPS_PER_SEC
    return device.spec.compute_units * _CPU_CORE_OPS_PER_SEC


def expression_op_count(expr: Expr | None) -> int:
    """Approximate per-tuple scalar op count of an expression tree."""
    if expr is None:
        return 0
    count = 1
    for attr in ("left", "right", "operand"):
        child = getattr(expr, attr, None)
        if isinstance(child, Expr):
            count += expression_op_count(child)
    return count


@dataclass(frozen=True)
class FilterProjectStats:
    """Data-derived quantities the cost estimator needs — no arrays."""

    num_rows: int
    touched_bytes: int


def referenced_columns(predicate: Expr | None,
                       projections: Mapping[str, Expr] | None) -> set[str]:
    """Input columns a fused filter/project reads.

    An empty set means "every input column" (a pass-through touches all of
    its input).  Shared by :func:`filter_project_kernel` and the executor's
    fused-chain stage so both accumulate identical ``touched_bytes``.
    """
    referenced: set[str] = set()
    if predicate is not None:
        referenced |= predicate.columns()
    if projections:
        for expr in projections.values():
            referenced |= expr.columns()
    return referenced


def touched_bytes(columns: Mapping[str, np.ndarray],
                  referenced: set[str]) -> int:
    """Bytes of ``columns`` a pass referencing ``referenced`` streams.

    With ``referenced`` empty every column counts (pass-through).  Summing
    this per morsel equals the whole-batch figure exactly: morsels
    partition each column's rows, and ``nbytes`` is additive over slices.
    """
    if not referenced:
        return int(sum(np.asarray(values).nbytes
                       for values in columns.values()))
    return int(sum(np.asarray(columns[name]).nbytes
                   for name in referenced if name in columns))


def filter_project_morsel(
        columns: Mapping[str, np.ndarray], *,
        predicate: Expr | None = None,
        projections: Mapping[str, Expr] | None = None,
) -> ArrayMap:
    """Transform one morsel (or a whole batch) of columns; pure, no stats.

    This is the body the executor's morsel stream and the whole-batch
    kernel share: masking and expression evaluation are row-local, so
    applying it slice-by-slice and concatenating reproduces the whole-batch
    result exactly.
    """
    columns = {name: np.asarray(values) for name, values in columns.items()}
    num_rows = columns_num_rows(columns)

    working: ArrayMap = dict(columns)
    if predicate is not None and num_rows:
        mask = np.asarray(predicate.evaluate(working), dtype=bool)
        working = {name: values[mask] for name, values in working.items()}
    elif predicate is not None:
        working = {name: values[:0] for name, values in working.items()}

    if projections:
        selectivity_rows = columns_num_rows(working)
        projected: ArrayMap = {}
        for alias, expr in projections.items():
            values = np.asarray(expr.evaluate(working))
            if values.ndim == 0:
                values = np.full(selectivity_rows, values)
            projected[alias] = values
        working = projected
    return working


def filter_project_kernel(
        columns: Mapping[str, np.ndarray], *,
        predicate: Expr | None = None,
        projections: Mapping[str, Expr] | None = None,
) -> tuple[ArrayMap, FilterProjectStats]:
    """Evaluate the fused filter/project once; device-independent.

    Returns the output columns plus the :class:`FilterProjectStats` that
    :func:`estimate_filter_project` consumes to cost the pass on any device.
    """
    record_kernel_invocation("filter_project")
    columns = {name: np.asarray(values) for name, values in columns.items()}
    referenced = referenced_columns(predicate, projections)
    stats = FilterProjectStats(num_rows=columns_num_rows(columns),
                               touched_bytes=touched_bytes(columns, referenced))
    return filter_project_morsel(columns, predicate=predicate,
                                 projections=projections), stats


def estimate_filter_project(stats: FilterProjectStats, device: Device, *,
                            predicate: Expr | None = None,
                            projections: Mapping[str, Expr] | None = None,
                            ) -> OpCost:
    """Cost of one fused filter/project pass on ``device``; no data touched."""
    cost = OpCost()
    if stats.num_rows:
        cost.add("scan", device.cost.seq_scan(stats.touched_bytes))
    ops_per_tuple = expression_op_count(predicate) * _OPS_PER_EXPR_NODE
    if projections:
        ops_per_tuple += sum(
            expression_op_count(expr) * _OPS_PER_EXPR_NODE
            for expr in projections.values()
        )
    if stats.num_rows and ops_per_tuple:
        cost.add("compute",
                 stats.num_rows * ops_per_tuple / compute_ops_per_sec(device))
    if device.is_gpu:
        cost.add("kernel-launch", device.cost.kernel_launch())
    return cost
