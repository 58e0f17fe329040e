"""Reference executor for logical plans.

This is the ground truth the test-suite compares every engine against: a
straightforward, single-threaded NumPy evaluation of logical plans with no
notion of devices, pipelines or cost.  It is intentionally naive — its only
job is to be obviously correct.
"""

from __future__ import annotations

import numpy as np

from ..errors import PlanError
from ..storage.catalog import Catalog
from ..storage.column import Column
from ..storage.table import Table
from .expr import AggregateSpec
from .logical import Aggregate, Filter, Join, LogicalPlan, OrderBy, Project, Scan


def execute_logical(plan: LogicalPlan, catalog: Catalog) -> Table:
    """Evaluate a logical plan against the catalog and return a table."""
    columns = _execute(plan, catalog)
    return _to_table(columns)


def _to_table(columns: dict[str, np.ndarray]) -> Table:
    return Table("result", [Column(name, values) for name, values in columns.items()])


def _execute(plan: LogicalPlan, catalog: Catalog) -> dict[str, np.ndarray]:
    if isinstance(plan, Scan):
        table = catalog.table(plan.table)
        names = plan.columns if plan.columns is not None else table.column_names
        return {name: table.array(name) for name in names}
    if isinstance(plan, Filter):
        child = _execute(plan.child, catalog)
        mask = np.asarray(plan.predicate.evaluate(child), dtype=bool)
        return {name: values[mask] for name, values in child.items()}
    if isinstance(plan, Project):
        child = _execute(plan.child, catalog)
        return {alias: np.asarray(expr.evaluate(child))
                for alias, expr in plan.projections.items()}
    if isinstance(plan, Join):
        return _execute_join(plan, catalog)
    if isinstance(plan, Aggregate):
        return _execute_aggregate(plan, catalog)
    if isinstance(plan, OrderBy):
        child = _execute(plan.child, catalog)
        order = np.lexsort([child[key] for key in reversed(plan.keys)])
        return {name: values[order] for name, values in child.items()}
    raise PlanError(f"reference executor cannot evaluate {type(plan).__name__}")


def _execute_join(plan: Join, catalog: Catalog) -> dict[str, np.ndarray]:
    left = _execute(plan.left, catalog)
    right = _execute(plan.right, catalog)
    left_indices, right_indices = join_indices(
        [left[key] for key in plan.left_keys],
        [right[key] for key in plan.right_keys],
    )
    result: dict[str, np.ndarray] = {}
    for name, values in left.items():
        result[name] = values[left_indices]
    for name, values in right.items():
        if name not in result:
            result[name] = values[right_indices]
    return result


def _same(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Element-wise key equality for grouping: ``==``, and ``NaN`` is
    ``NaN``."""
    return (left == right) | ((left != left) & (right != right))


def _joint_ranks(left_keys: list[np.ndarray], right_keys: list[np.ndarray],
                 ) -> tuple[np.ndarray, np.ndarray]:
    """One rank per row of each side, equal iff the key tuples are.

    Column by column over both sides at once: the rank so far and the
    column's rank among its distinct values are re-ranked as a pair, so
    nothing is ever wider than the row count squared.  A tuple holding a
    ``NaN`` equals nothing — the sides get different negative ranks.
    """
    split = len(left_keys[0])
    ranks = np.zeros(split + len(right_keys[0]), dtype=np.int64)
    missing = np.zeros(len(ranks), dtype=bool)
    for left, right in zip(left_keys, right_keys):
        values = np.concatenate([left, right])
        missing |= values != values
        distinct, column_ranks = np.unique(values, return_inverse=True)
        _, ranks = np.unique(ranks * len(distinct) + column_ranks,
                             return_inverse=True)
    ranks[missing] = -1
    ranks[split:][missing[split:]] = -2
    return ranks[:split], ranks[split:]


def join_indices(left_keys: list[np.ndarray],
                 right_keys: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """All (left, right) index pairs whose key tuples are equal.

    The semantic reference for every join algorithm in
    :mod:`repro.operators`, sharing no code with them: keys are compared
    as joint ranks of the column values, matched by one stable sort of the
    left ranks and two binary searches per right row.  Pair order (by
    right index, ties by ascending left index) is that of the dictionary
    loop :func:`join_indices_dict`, the cross-check oracle for small
    inputs.
    """
    left, right = _joint_ranks([np.asarray(key) for key in left_keys],
                               [np.asarray(key) for key in right_keys])
    order = np.argsort(left, kind="stable")
    ordered = left[order]
    first = np.searchsorted(ordered, right, side="left")
    counts = np.searchsorted(ordered, right, side="right") - first
    right_indices = np.repeat(np.arange(len(right)), counts)
    within = np.arange(len(right_indices)) - np.repeat(
        np.cumsum(counts) - counts, counts)
    return (order[np.repeat(first, counts) + within].astype(np.int64),
            right_indices.astype(np.int64))


def join_indices_dict(left_keys: list[np.ndarray],
                      right_keys: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Dictionary-based multi-way equi-join: the obviously-correct oracle.

    A pure-Python loop over tuples of the column values, kept for the
    test-suite to cross-check the vectorized :func:`join_indices` on small
    inputs; do not use it on anything large.
    """
    buckets: dict[tuple, list[int]] = {}
    for index, key in enumerate(zip(*(np.asarray(column).tolist()
                                      for column in left_keys))):
        buckets.setdefault(key, []).append(index)
    left_out: list[int] = []
    right_out: list[int] = []
    for index, key in enumerate(zip(*(np.asarray(column).tolist()
                                      for column in right_keys))):
        for match in buckets.get(key, ()):
            left_out.append(match)
            right_out.append(index)
    return (np.asarray(left_out, dtype=np.int64),
            np.asarray(right_out, dtype=np.int64))


def _execute_aggregate(plan: Aggregate, catalog: Catalog) -> dict[str, np.ndarray]:
    child = _execute(plan.child, catalog)
    if not plan.group_by:
        return _grand_aggregate(child, plan.aggregates)
    group_arrays = [np.asarray(child[key]) for key in plan.group_by]
    # Groups in lexicographic order of the group-by columns: sort the rows
    # on them, start a group wherever any column differs from the row before.
    order = np.lexsort(group_arrays[::-1])
    starts = np.zeros(len(order), dtype=bool)
    starts[:1] = True
    for values in group_arrays:
        values = values[order]
        starts[1:] |= ~_same(values[1:], values[:-1])
    group_ids = np.empty(len(order), dtype=np.int64)
    group_ids[order] = np.cumsum(starts) - 1
    num_groups = int(starts.sum())
    representative = np.zeros(num_groups, dtype=np.int64)
    representative[group_ids] = np.arange(len(group_ids))
    result: dict[str, np.ndarray] = {
        key: np.asarray(child[key])[representative] for key in plan.group_by
    }
    counts = np.bincount(group_ids, minlength=num_groups)
    for spec in plan.aggregates:
        result[spec.alias] = _grouped(spec, child, group_ids, num_groups, counts)
    return result


def _grouped(spec: AggregateSpec, child: dict[str, np.ndarray],
             group_ids: np.ndarray, num_groups: int,
             counts: np.ndarray) -> np.ndarray:
    if spec.func == "count":
        return counts.astype(np.int64)
    values = np.asarray(spec.expr.evaluate(child), dtype=np.float64)
    if spec.func == "sum":
        return np.bincount(group_ids, weights=values, minlength=num_groups)
    if spec.func == "avg":
        sums = np.bincount(group_ids, weights=values, minlength=num_groups)
        return sums / np.maximum(counts, 1)
    if spec.func == "min":
        out = np.full(num_groups, np.inf)
        np.minimum.at(out, group_ids, values)
        return out
    if spec.func == "max":
        out = np.full(num_groups, -np.inf)
        np.maximum.at(out, group_ids, values)
        return out
    raise PlanError(f"unsupported aggregate {spec.func!r}")


def _grand_aggregate(child: dict[str, np.ndarray],
                     aggregates: tuple[AggregateSpec, ...]) -> dict[str, np.ndarray]:
    num_rows = len(next(iter(child.values()))) if child else 0
    result: dict[str, np.ndarray] = {}
    for spec in aggregates:
        if spec.func == "count":
            result[spec.alias] = np.asarray([num_rows], dtype=np.int64)
            continue
        values = np.asarray(spec.expr.evaluate(child), dtype=np.float64)
        if spec.func == "sum":
            result[spec.alias] = np.asarray([values.sum()])
        elif spec.func == "avg":
            result[spec.alias] = np.asarray([values.mean() if num_rows else 0.0])
        elif spec.func == "min":
            result[spec.alias] = np.asarray([values.min() if num_rows else np.inf])
        elif spec.func == "max":
            result[spec.alias] = np.asarray([values.max() if num_rows else -np.inf])
    return result
