"""Fused scan / filter / project processing of packets.

In a JIT engine these three steps are generated as a single tight loop per
pipeline; the cost model therefore charges one streaming pass over the
referenced input columns plus the vectorized compute, with *no*
materialization of intermediates — the contrast with the vector-at-a-time
baseline (DBMS C), which pays one in-cache materialization per primitive.

The data path does the same.  A predicate selects row *positions*: the
filter's output is a :class:`~repro.operators.base.Rows` view of its input
at those positions, so no column moves until something reads it.
Projections read only the columns they reference, on the selected rows,
and a subtree repeated across the projection set is evaluated once
(:func:`~repro.relational.expr.evaluate_all`).

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

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..hardware.device import Device
from ..relational.expr import Expr, evaluate_all
from .base import (
    ArrayMap,
    OpCost,
    Rows,
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
    return 1 + sum(map(expression_op_count, expr.children))


@dataclass(frozen=True)
class FilterProjectStats:
    """Data-derived quantities the cost estimator needs — no arrays."""

    num_rows: int
    touched_bytes: int


def referenced_columns(predicate: Expr | None,
                       projections: Mapping[str, Expr] | None,
                       ) -> set[str] | None:
    """Input columns a fused filter/project reads.

    ``None`` means "every input column" (a pass-through touches all of its
    input) — the argument :meth:`Rows.nbytes` takes for the bytes the pass
    streams.  Shared by :func:`filter_project_kernel` and the executor's
    fused-chain stage so both accumulate identical ``touched_bytes``.
    """
    exprs = [predicate, *(projections or {}).values()]
    return set().union(*(expr.columns() for expr in exprs
                         if expr is not None)) or None


def filter_project_morsel(
        columns: Mapping[str, np.ndarray], *,
        predicate: Expr | None = None,
        projections: Mapping[str, Expr] | None = None,
) -> Rows:
    """Transform one morsel (or a whole batch) of columns; pure, no stats.

    This is the body the executor's morsel stream and the whole-batch
    kernel share: selection and expression evaluation are row-local, so
    applying it slice-by-slice and concatenating reproduces the whole-batch
    result exactly.  A constant predicate keeps every row or none; a
    predicate that keeps every row moves nothing (the view is returned as
    it is).
    """
    rows = Rows.of(columns)
    if predicate is not None:
        mask = np.asarray(predicate.evaluate(rows), dtype=bool)
        if not mask.all():
            rows = rows.take(np.flatnonzero(
                np.broadcast_to(mask, (rows.num_rows,))))
    if not projections:
        return rows
    projected: ArrayMap = {}
    for alias, values in zip(projections, evaluate_all(
            list(projections.values()), rows)):
        values = np.asarray(values)
        projected[alias] = (np.full(rows.num_rows, values) if values.ndim == 0
                            else values)
    return Rows.of(projected)


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
    rows = Rows.of(columns)
    stats = FilterProjectStats(
        num_rows=rows.num_rows,
        touched_bytes=rows.nbytes(referenced_columns(predicate, projections)))
    return dict(filter_project_morsel(rows, predicate=predicate,
                                      projections=projections)), stats


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
