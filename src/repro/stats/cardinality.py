"""Cardinality estimation over logical and physical plans.

The estimation half of the statistics subsystem
(:mod:`repro.stats.statistics` is the collection half).  A
:class:`CardinalityEstimator` walks a plan bottom-up propagating a
:class:`RelationEstimate` — estimated rows plus per-column NDV / range /
histogram summaries — applying the textbook rules the paper's optimizer
assumes it has:

* **Equality** against a literal selects ``1 / NDV`` of the rows (zero
  when the literal falls outside the column's min/max range).
* **Range** predicates take their selectivity from the equi-width
  histogram's mass (linear interpolation inside a bin).
* **Conjunctions** multiply under the independence assumption with a
  damping floor (:data:`CONJUNCTION_FLOOR`), so stacked correlated
  predicates cannot talk the estimate down to nothing; disjunctions use
  inclusion–exclusion, negation complements.
* **Joins** assume containment of the smaller key domain: output rows are
  ``|L| * |R| / max(ndv_L(keys), ndv_R(keys))``, with multi-column keys
  multiplying per-column NDVs capped at the side's row count.
* **Aggregations** output the product of the group-key NDVs capped at
  the input rows (grand aggregates output one row).

Every estimate carries a ``backed`` flag: it is true only when every base
table involved had collected statistics and every predicate was resolvable
against them (column vs. literal).  Consumers that *refuse* work based on
an estimate — the optimizer's GPU-memory check — only do so when the
estimate is statistics-backed; a guessed default selectivity is never
grounds to reject a plan (the executor's fault ladder handles genuine
overflow at run time).

A plan is estimated **once**: :meth:`CardinalityEstimator.estimate_nodes`
is the only walk, and ``estimate`` / ``estimate_rows`` / ``working_set``
are reads of it.  The optimizer runs it once per ``optimize`` call, picks
every join from it and stamps each relational physical node with its
estimate (:attr:`~repro.relational.physical.PhysicalOp.est_rows`);
:meth:`CardinalityEstimator.estimate_physical` reads those stamps back
keyed by ``node_id``, which the session joins with the executor's
recorded actual rows into a :class:`CardinalityReport` — the
estimated-vs-actual/q-error accounting the ``stats`` benchmark suite
tracks over time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from statistics import median

from ..operators.hashjoin import HASH_ENTRY_BYTES
from ..relational.expr import (
    BooleanNot,
    BooleanOp,
    ColumnRef,
    Comparison,
    Expr,
    Literal,
)
from ..relational.logical import (
    Aggregate,
    Filter,
    Join,
    LogicalPlan,
    OrderBy,
    Project,
    Scan,
)
from ..relational.physical import PAggregate, PhysicalOp, PJoin, PScan, PSort
from .statistics import Histogram

#: Selectivity assumed for predicates the estimator cannot resolve
#: against column statistics (column vs. column, computed expressions).
DEFAULT_SELECTIVITY = 1.0 / 3.0
#: Damping floor for conjunctions: under independence a stack of
#: correlated predicates multiplies toward zero; the combined selectivity
#: never drops below this floor unless one conjunct is exactly zero.
CONJUNCTION_FLOOR = 1e-4

_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


@dataclass(frozen=True)
class ColumnEstimate:
    """Propagated summary of one column inside a relation estimate."""

    ndv: float
    min_value: float | None = None
    max_value: float | None = None
    histogram: Histogram | None = None
    width_bytes: float = 8.0


@dataclass(frozen=True)
class RelationEstimate:
    """Estimated shape of one operator's output."""

    rows: float
    columns: dict[str, ColumnEstimate] = field(default_factory=dict)
    #: True only when every involved base table had collected statistics
    #: and every predicate resolved against them.
    backed: bool = True

    @property
    def num_rows(self) -> int:
        """The row estimate as an integer (>= 0)."""
        return int(round(max(self.rows, 0.0)))

    @property
    def row_bytes(self) -> float:
        if not self.columns:
            return 8.0
        return sum(col.width_bytes for col in self.columns.values())


@dataclass(frozen=True)
class OperatorEstimate:
    """Estimated output rows of one physical operator."""

    node_id: int
    label: str
    rows: float


@dataclass(frozen=True)
class WorkingSetEstimate:
    """Estimated memory working set of one query.

    ``total_bytes`` is what admission control charges against a tenant's
    memory budget: the widest estimated intermediate plus every join
    build's hash table (they are resident while probes stream).
    """

    total_bytes: int
    peak_intermediate_bytes: int
    build_bytes: int
    largest_build_bytes: int
    backed: bool


def q_error(estimated: float, actual: float) -> float:
    """The symmetric ratio error (>= 1.0; 1.0 is a perfect estimate)."""
    est = max(float(estimated), 1.0)
    act = max(float(actual), 1.0)
    return max(est / act, act / est)


@dataclass(frozen=True)
class OperatorCardinality:
    """Estimated vs. actual output rows of one executed operator."""

    node_id: int
    label: str
    estimated_rows: float
    actual_rows: int

    @property
    def q_error(self) -> float:
        return q_error(self.estimated_rows, self.actual_rows)

    def describe(self) -> str:
        return (f"{self.label}: est={self.estimated_rows:.0f} "
                f"actual={self.actual_rows} q={self.q_error:.2f}")


@dataclass(frozen=True)
class CardinalityReport:
    """Per-operator estimated/actual accounting for one executed query."""

    operators: tuple[OperatorCardinality, ...] = ()

    @property
    def median_q_error(self) -> float:
        if not self.operators:
            return 1.0
        return float(median(op.q_error for op in self.operators))

    @property
    def max_q_error(self) -> float:
        if not self.operators:
            return 1.0
        return max(op.q_error for op in self.operators)

    def describe(self) -> str:
        lines = [f"cardinality: median q-error {self.median_q_error:.2f}, "
                 f"max {self.max_q_error:.2f}"]
        lines.extend("  " + op.describe() for op in self.operators)
        return "\n".join(lines)


def build_report(estimates: dict[int, OperatorEstimate],
                 actual_rows: dict[int, int]) -> CardinalityReport:
    """Join per-operator estimates with recorded actual rows."""
    operators = tuple(
        OperatorCardinality(node_id=node_id, label=estimate.label,
                            estimated_rows=estimate.rows,
                            actual_rows=actual_rows[node_id])
        for node_id, estimate in sorted(estimates.items())
        if node_id in actual_rows)
    return CardinalityReport(operators=operators)


class CardinalityEstimator:
    """Statistics-driven row estimates for logical and physical plans."""

    def __init__(self, catalog) -> None:
        self.catalog = catalog

    # ------------------------------------------------------------------
    # Base tables
    # ------------------------------------------------------------------
    def table_estimate(self, name: str,
                       columns=None) -> RelationEstimate:
        if name not in self.catalog:
            return RelationEstimate(rows=1.0, columns={}, backed=False)
        stats = self.catalog.statistics(name)
        names = tuple(columns) if columns else tuple(stats.columns)
        estimates: dict[str, ColumnEstimate] = {}
        for column in names:
            cs = stats.column(column)
            if cs is None:
                estimates[column] = ColumnEstimate(
                    ndv=float(max(stats.num_rows, 1)))
                continue
            width = cs.nbytes / max(stats.num_rows, 1)
            estimates[column] = ColumnEstimate(
                ndv=float(cs.ndv), min_value=cs.min_value,
                max_value=cs.max_value, histogram=cs.histogram,
                width_bytes=width)
        return RelationEstimate(rows=float(stats.num_rows),
                                columns=estimates, backed=True)

    # ------------------------------------------------------------------
    # Predicate selectivities
    # ------------------------------------------------------------------
    def selectivity(self, predicate: Expr,
                    rel: RelationEstimate) -> tuple[float, bool]:
        """Estimated selectivity of ``predicate`` over ``rel``.

        Returns ``(selectivity, backed)`` — ``backed`` is false whenever
        any leaf fell back to :data:`DEFAULT_SELECTIVITY`.
        """
        if isinstance(predicate, Comparison):
            return self._comparison_selectivity(predicate, rel)
        if isinstance(predicate, BooleanOp):
            left, left_backed = self.selectivity(predicate.left, rel)
            right, right_backed = self.selectivity(predicate.right, rel)
            backed = left_backed and right_backed
            if predicate.op == "and":
                combined = left * right
                if combined > 0.0:
                    combined = max(combined, CONJUNCTION_FLOOR)
                return combined, backed
            return left + right - left * right, backed
        if isinstance(predicate, BooleanNot):
            inner, backed = self.selectivity(predicate.operand, rel)
            return 1.0 - inner, backed
        return DEFAULT_SELECTIVITY, False

    def _comparison_selectivity(self, comp: Comparison,
                                rel: RelationEstimate) -> tuple[float, bool]:
        left, right, op = comp.left, comp.right, comp.op
        if isinstance(left, Literal) and isinstance(right, ColumnRef):
            left, right = right, left
            op = _FLIP.get(op, op)
        if not (isinstance(left, ColumnRef) and isinstance(right, Literal)):
            return DEFAULT_SELECTIVITY, False
        col = rel.columns.get(left.name)
        if col is None:
            return DEFAULT_SELECTIVITY, False
        try:
            value = float(right.value)
        except (TypeError, ValueError):
            return DEFAULT_SELECTIVITY, False
        if col.ndv <= 0:  # an empty (or all-NaN) column matches nothing
            return 0.0, True
        eq = 1.0 / max(col.ndv, 1.0)
        in_range = (col.min_value is None
                    or col.min_value <= value <= col.max_value)
        if op == "==":
            return (eq if in_range else 0.0), True
        if op == "!=":
            return (1.0 - eq if in_range else 1.0), True
        below = self._fraction_below(col, value)
        if below is None:
            return DEFAULT_SELECTIVITY, False
        point = eq if in_range else 0.0
        if op == "<=":
            sel = below
        elif op == "<":
            sel = below - point
        elif op == ">":
            sel = 1.0 - below
        else:  # ">="
            sel = 1.0 - below + point
        return min(max(sel, 0.0), 1.0), True

    @staticmethod
    def _fraction_below(col: ColumnEstimate, value: float) -> float | None:
        """Estimated fraction of values ``<= value`` for one column."""
        if col.histogram is not None:
            return col.histogram.mass_between(None, value)
        if col.min_value is None or col.max_value is None:
            return None
        if value < col.min_value:
            return 0.0
        if value >= col.max_value:
            return 1.0
        span = col.max_value - col.min_value
        if span <= 0.0:
            return 1.0
        return (value - col.min_value) / span

    # ------------------------------------------------------------------
    # Relational operators
    # ------------------------------------------------------------------
    def _filtered(self, child: RelationEstimate,
                  predicate: Expr) -> RelationEstimate:
        sel, backed = self.selectivity(predicate, child)
        rows = child.rows * sel
        return RelationEstimate(rows=rows,
                                columns=_cap_columns(child.columns, rows),
                                backed=child.backed and backed)

    def _projected(self, child: RelationEstimate,
                   projections) -> RelationEstimate:
        columns: dict[str, ColumnEstimate] = {}
        for alias, expr in projections.items():
            if isinstance(expr, ColumnRef) and expr.name in child.columns:
                columns[alias] = child.columns[expr.name]
                continue
            # A computed expression is a function of its inputs, so its
            # NDV cannot exceed the product of the referenced columns'
            # NDVs (a pure literal has exactly one value).
            ndv = 1.0
            for name in expr.columns():
                col = child.columns.get(name)
                ndv *= max(col.ndv, 1.0) if col is not None \
                    else max(child.rows, 1.0)
            columns[alias] = ColumnEstimate(
                ndv=min(ndv, max(child.rows, 1.0)))
        return RelationEstimate(rows=child.rows, columns=columns,
                                backed=child.backed)

    def _joined(self, left: RelationEstimate, right: RelationEstimate,
                left_keys, right_keys) -> RelationEstimate:
        raw_left = _key_ndv_raw(left, left_keys)
        raw_right = _key_ndv_raw(right, right_keys)
        left_rows = max(left.rows, 1.0)
        right_rows = max(right.rows, 1.0)
        cap_left = min(raw_left, left_rows)
        cap_right = min(raw_right, right_rows)
        # Cross-side refinement of the key-combination NDVs: when a side's
        # independence product overflows its row count, the per-column
        # NDVs say nothing about the joint distribution — under the
        # containment assumption the side's distinct combinations mirror
        # the other side's key domain, so cap by it.  This recovers FK
        # chains over composite keys (every lineitem row matches exactly
        # one partsupp row) without breaking selective builds, whose
        # un-overflowed probe-side NDV keeps the containment denominator.
        left_ndv = (min(cap_left, max(cap_right, 1.0))
                    if raw_left > left_rows else cap_left)
        right_ndv = (min(cap_right, max(cap_left, 1.0))
                     if raw_right > right_rows else cap_right)
        rows = left.rows * right.rows / max(left_ndv, right_ndv, 1.0)
        columns = dict(left.columns)
        columns.update(right.columns)
        return RelationEstimate(rows=rows,
                                columns=_cap_columns(columns, rows),
                                backed=left.backed and right.backed)

    def _aggregated(self, child: RelationEstimate, group_by,
                    aggregates) -> RelationEstimate:
        if not group_by:
            rows = 1.0
        else:
            groups = 1.0
            for key in group_by:
                col = child.columns.get(key)
                groups *= max(col.ndv, 1.0) if col is not None \
                    else max(child.rows, 1.0)
            rows = min(groups, max(child.rows, 1.0))
            if child.rows <= 0:
                rows = 0.0
        columns = {key: replace(child.columns[key],
                                ndv=min(child.columns[key].ndv,
                                        max(rows, 1.0)))
                   for key in group_by if key in child.columns}
        for spec in aggregates:
            columns[spec.alias] = ColumnEstimate(ndv=max(rows, 1.0))
        return RelationEstimate(rows=rows, columns=columns,
                                backed=child.backed)

    # ------------------------------------------------------------------
    # Logical plans: the one pass
    # ------------------------------------------------------------------
    def estimate_nodes(self, plan: LogicalPlan
                       ) -> dict[int, RelationEstimate]:
        """Estimate ``plan`` once, bottom-up: every node's output shape.

        The one dispatch over logical node types: each rule is applied
        exactly once per node and the result recorded under ``id(node)``
        (logical nodes hold dicts and expressions, so they are not safe
        dict keys themselves), in post-order.  Everything that needs a
        row estimate — join choice, auto mode, admission, the cardinality
        report — reads this record; it is only valid while the caller
        keeps ``plan`` alive and is never stored across calls.
        """
        out: dict[int, RelationEstimate] = {}
        self._estimate_into(plan, out)
        return out

    def _estimate_into(self, plan: LogicalPlan,
                       out: dict[int, RelationEstimate]) -> RelationEstimate:
        if isinstance(plan, Scan):
            rel = self.table_estimate(plan.table, plan.columns)
        elif isinstance(plan, Filter):
            rel = self._filtered(self._estimate_into(plan.child, out),
                                 plan.predicate)
        elif isinstance(plan, Project):
            rel = self._projected(self._estimate_into(plan.child, out),
                                  plan.projections)
        elif isinstance(plan, Join):
            rel = self._joined(self._estimate_into(plan.left, out),
                               self._estimate_into(plan.right, out),
                               plan.left_keys, plan.right_keys)
        elif isinstance(plan, Aggregate):
            rel = self._aggregated(self._estimate_into(plan.child, out),
                                   plan.group_by, plan.aggregates)
        elif isinstance(plan, OrderBy):
            rel = self._estimate_into(plan.child, out)
        else:
            rel = RelationEstimate(rows=1.0, columns={}, backed=False)
        out[id(plan)] = rel
        return rel

    def estimate(self, plan: LogicalPlan) -> RelationEstimate:
        """Estimated output shape of a logical plan."""
        return self.estimate_nodes(plan)[id(plan)]

    def estimate_rows(self, plan: LogicalPlan) -> int:
        """Estimated output rows of a logical plan (an integer, >= 0)."""
        return self.estimate(plan).num_rows

    # ------------------------------------------------------------------
    # Physical plans
    # ------------------------------------------------------------------
    def estimate_physical(self, plan: PhysicalOp
                          ) -> dict[int, OperatorEstimate]:
        """Per-operator row estimates of an optimized physical plan.

        Reads the estimates the optimizer stamped on the relational nodes
        while lowering (:attr:`PhysicalOp.est_rows`) — nothing is
        re-estimated.  Keys are ``node_id``s; exchange operators (routers,
        mem-moves, device crossings) forward their child's batch untouched,
        carry no stamp and are deliberately absent from the accounting.
        """
        return {node.node_id: OperatorEstimate(node.node_id,
                                               _operator_label(node),
                                               node.est_rows)
                for node in plan.walk() if node.est_rows is not None}

    # ------------------------------------------------------------------
    # Working sets (admission control, mode choice)
    # ------------------------------------------------------------------
    def working_set(self, plan: LogicalPlan) -> WorkingSetEstimate:
        """Estimated memory working set of executing ``plan``.

        Scans stream morsel-at-a-time and pin nothing; what occupies
        memory is the widest estimated intermediate batch (an ``OrderBy``
        counts for its sorted copy) plus the hash tables of every join's
        smaller side (resident while probes stream).
        """
        estimates = self.estimate_nodes(plan)
        peak = builds = largest_build = 0.0
        for node in plan.walk():
            if isinstance(node, Scan):
                continue
            if isinstance(node, Join):
                nbytes = HASH_ENTRY_BYTES * min(
                    max(estimates[id(side)].rows, 0.0)
                    for side in node.children())
                builds += nbytes
                largest_build = max(largest_build, nbytes)
            rel = estimates[id(node)]
            peak = max(peak, max(rel.rows, 0.0) * rel.row_bytes)
        return WorkingSetEstimate(
            total_bytes=max(int(round(peak + builds)), 0),
            peak_intermediate_bytes=int(round(peak)),
            build_bytes=int(round(builds)),
            largest_build_bytes=int(round(largest_build)),
            backed=estimates[id(plan)].backed)


def _operator_label(node: PhysicalOp) -> str:
    """Name of a relational physical operator in the cardinality report."""
    if isinstance(node, PScan):
        return f"scan({node.table})"
    if isinstance(node, PJoin):
        return f"join[{node.algorithm.value}]"
    if isinstance(node, PAggregate):
        return f"aggregate-{node.phase}"
    return "sort" if isinstance(node, PSort) else "filter-project"


def _cap_columns(columns: dict[str, ColumnEstimate],
                 rows: float) -> dict[str, ColumnEstimate]:
    """NDV can never exceed the relation's (estimated) row count."""
    bound = max(rows, 0.0)
    return {name: (col if col.ndv <= bound
                   else replace(col, ndv=max(bound, 1.0) if bound > 0
                                else 0.0))
            for name, col in columns.items()}


def _key_ndv_raw(rel: RelationEstimate, keys) -> float:
    """Independence product of the join key columns' NDVs (uncapped)."""
    ndv = 1.0
    for key in keys:
        col = rel.columns.get(key)
        ndv *= max(col.ndv, 1.0) if col is not None else max(rel.rows, 1.0)
    return ndv
