"""DBMS C: the simulated CPU-based commercial comparator.

The paper describes DBMS C as "a CPU-based columnar DBMS that is based on
MonetDB/X100, uses SIMD vector-at-a-time execution and supports multi-CPU
execution" (Section 6.1).  The simulation captures the properties the paper
attributes to it:

* vector-at-a-time execution: every expression primitive makes another pass
  over the (cache-resident) vector, and every operator materializes its
  intermediate result — Q1's many aggregates therefore cost it noticeably
  more than the JIT engine (Figure 8's discussion),
* hardware-oblivious non-partitioned hash joins only, so large joins are
  dominated by random DRAM accesses (Figures 6 and 7).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hardware.costmodel import AccessProfile
from ..hardware.device import Device
from ..hardware.topology import Topology, default_server
from ..operators.hashjoin import HASH_ENTRY_BYTES
from ..relational.expr import Expr
from ..relational.logical import (
    Aggregate,
    Filter,
    Join,
    LogicalPlan,
    OrderBy,
    Project,
    Scan,
)
from ..relational.reference import execute_logical
from ..storage.catalog import Catalog
from ..storage.table import Table


@dataclass
class BaselineResult:
    """Functional result plus simulated time of a baseline run."""

    table: Table
    simulated_seconds: float
    system: str


def _expression_primitives(expr: Expr | None) -> int:
    """Number of vector primitives an expression expands to."""
    if expr is None:
        return 0
    count = 1
    for attr in ("left", "right", "operand"):
        child = getattr(expr, attr, None)
        if isinstance(child, Expr):
            count += _expression_primitives(child)
    return count


class DBMSC:
    """Vector-at-a-time CPU columnar engine (the paper's DBMS C stand-in)."""

    name = "DBMS C"

    #: Vector size (tuples) — intermediates of this size stay in L1/L2.
    vector_size = 1024

    def __init__(self, topology: Topology | None = None) -> None:
        self.topology = topology if topology is not None else default_server()
        self.cpus = list(self.topology.cpus())

    # ------------------------------------------------------------------
    def execute(self, plan: LogicalPlan, catalog: Catalog) -> BaselineResult:
        """Run a query functionally and cost it with vector-at-a-time rules."""
        table = execute_logical(plan, catalog)
        seconds = self._cost_plan(plan, catalog) / max(len(self.cpus), 1)
        return BaselineResult(table=table, simulated_seconds=seconds,
                              system=self.name)

    # ------------------------------------------------------------------
    def _cost_plan(self, plan: LogicalPlan, catalog: Catalog) -> float:
        """Single-socket cost of the plan; the caller divides by #sockets."""
        device = self.cpus[0]
        total = 0.0
        for node in plan.walk():
            total += self._cost_node(node, catalog, device)
        return total

    def _node_rows_bytes(self, node: LogicalPlan, catalog: Catalog) -> tuple[int, int]:
        result = execute_logical(node, catalog)
        return result.num_rows, result.nbytes

    def _cost_node(self, node: LogicalPlan, catalog: Catalog,
                   device: Device) -> float:
        if isinstance(node, Scan):
            table = catalog.table(node.table)
            names = node.columns if node.columns else table.column_names
            nbytes = sum(table.column(name).nbytes for name in names)
            return device.cost.seq_scan(int(nbytes))
        if isinstance(node, Filter):
            rows, nbytes = self._node_rows_bytes(node.child, catalog)
            primitives = _expression_primitives(node.predicate)
            # One in-cache pass per primitive plus the materialized selection
            # vector written back to memory.
            per_pass = device.cost.random_access(
                AccessProfile(rows, 8, self.vector_size * 8), target="L1")
            return primitives * per_pass + device.cost.materialize(rows * 4)
        if isinstance(node, Project):
            rows, _ = self._node_rows_bytes(node.child, catalog)
            primitives = sum(_expression_primitives(expr)
                             for expr in node.projections.values())
            per_pass = device.cost.random_access(
                AccessProfile(rows, 8, self.vector_size * 8), target="L1")
            return primitives * per_pass + device.cost.materialize(rows * 8)
        if isinstance(node, Join):
            build_rows, build_bytes = self._node_rows_bytes(node.left, catalog)
            probe_rows, probe_bytes = self._node_rows_bytes(node.right, catalog)
            if build_rows > probe_rows:
                build_rows, probe_rows = probe_rows, build_rows
                build_bytes, probe_bytes = probe_bytes, build_bytes
            out_rows, out_bytes = self._node_rows_bytes(node, catalog)
            return (device.cost.hash_build(build_rows, HASH_ENTRY_BYTES)
                    + device.cost.hash_probe(probe_rows, HASH_ENTRY_BYTES,
                                             build_rows * HASH_ENTRY_BYTES)
                    + device.cost.materialize(out_bytes))
        if isinstance(node, Aggregate):
            rows, _ = self._node_rows_bytes(node.child, catalog)
            passes = max(len(node.aggregates), 1)
            per_pass = device.cost.random_access(
                AccessProfile(rows, 8, self.vector_size * 8), target="L1")
            return passes * per_pass + device.cost.materialize(rows * 8)
        if isinstance(node, OrderBy):
            rows, nbytes = self._node_rows_bytes(node.child, catalog)
            return device.cost.seq_scan(nbytes) * 2
        return 0.0

    # ------------------------------------------------------------------
    # Analytic microbenchmark models (Figures 6 and 7)
    # ------------------------------------------------------------------
    def join_seconds(self, tuples_per_side: int, *, tuple_bytes: int = 8) -> float:
        """Equi-join time of DBMS C on the microbenchmark workload.

        A multi-socket non-partitioned hash join with vector-at-a-time
        materialization of the probe results.
        """
        device = self.cpus[0]
        table_bytes = tuples_per_side * HASH_ENTRY_BYTES
        build = device.cost.hash_build(tuples_per_side, HASH_ENTRY_BYTES)
        probe = device.cost.hash_probe(tuples_per_side, HASH_ENTRY_BYTES,
                                       table_bytes)
        scan = device.cost.seq_scan(2 * tuples_per_side * tuple_bytes)
        materialize = device.cost.materialize(tuples_per_side * tuple_bytes * 2)
        sockets = max(len(self.cpus), 1)
        return (build + probe + scan + 2 * materialize) / sockets
