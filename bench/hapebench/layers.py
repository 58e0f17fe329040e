"""Single-layer probes: one ``src/repro`` layer timed on its own.

Each probe calls a layer's public functions directly on real TPC-H
columns, so a change to that layer shows here before (and separately
from) any end-to-end workload.  Probes run in the traced pass only.
"""

from __future__ import annotations

import re

from repro.operators import (
    filter_project_kernel,
    hash_aggregate_kernel,
    hash_join_kernel,
    radix_partition_kernel,
)
from repro.perf import headline_claims
from repro.relational.keys import JoinBuildIndex
from repro.relational.physical import PAggregate, PFilterProject
from repro.stats import collect_table_statistics

from .harness import host_seconds, median, timed

PROBE_REPEATS = 5
_CHILD_FIELDS = ("child", "build", "probe", "left", "right")


def plan_nodes(root, kind) -> list:
    """Every ``kind`` node of a physical plan, bottom-up."""
    found = []
    for field in _CHILD_FIELDS:
        child = getattr(root, field, None)
        if child is not None:
            found.extend(plan_nodes(child, kind))
    if isinstance(root, kind):
        found.append(root)
    return found


def stats_collect_seconds(dataset) -> float:
    start = host_seconds()
    for table in dataset.tables.values():
        collect_table_statistics(table)
    return host_seconds() - start


def relational_keys(dataset) -> dict[str, float]:
    """``JoinBuildIndex`` on the TPC-H orders <- lineitem foreign key."""
    build_keys = dataset.table("orders").arrays()["o_orderkey"]
    probe_keys = dataset.table("lineitem").arrays()["l_orderkey"]
    index = JoinBuildIndex(build_keys)
    return {
        "relational.keys.build_ms":
            timed(lambda: JoinBuildIndex(build_keys), PROBE_REPEATS) * 1e3,
        "relational.keys.probe_ms":
            timed(lambda: index.probe(probe_keys), PROBE_REPEATS) * 1e3,
    }


def _filter_project_chain(engine, query, columns):
    """Apply the query's cpu-plan filter/project nodes to ``columns``."""
    for node in plan_nodes(engine.plan(query.plan, "cpu"), PFilterProject):
        columns, _ = filter_project_kernel(
            columns, predicate=node.predicate, projections=node.projections)
    return columns


def tpch_kernels(engine, dataset, queries) -> dict[str, float]:
    """The kernels the cold TPC-H pass spends its time in, one by one."""
    lineitem = dataset.table("lineitem").arrays()
    orders = dataset.table("orders").arrays()
    q1_input = _filter_project_chain(engine, queries["Q1"], lineitem)
    aggregate = plan_nodes(engine.plan(queries["Q1"].plan, "cpu"),
                           PAggregate)[0]
    join_build = {name: orders[name] for name in ("o_orderkey", "o_custkey")}
    join_probe = {name: lineitem[name]
                  for name in ("l_orderkey", "l_suppkey")}
    probes = {
        "operators.filterproject.q6_ms": lambda: _filter_project_chain(
            engine, queries["Q6"], lineitem),
        "operators.aggregate.q1_ms": lambda: hash_aggregate_kernel(
            q1_input, group_by=aggregate.group_by,
            aggregates=aggregate.aggregates, phase=aggregate.phase),
        "operators.hashjoin.orders_lineitem_ms": lambda: hash_join_kernel(
            join_build, join_probe, build_keys=["o_orderkey"],
            probe_keys=["l_orderkey"]),
        "operators.radix.partition_ms": lambda: radix_partition_kernel(
            join_probe, key="l_orderkey", fanout=64),
    }
    return {name: timed(probe, PROBE_REPEATS) * 1e3
            for name, probe in probes.items()}


_POINT_CLAIM = re.compile(r"^(\d+(?:\.\d+)?)x$")


def perf_models() -> dict[str, float]:
    """Accuracy of the analytic models against the paper's point claims."""
    start = host_seconds()
    claims = headline_claims()
    elapsed = host_seconds() - start
    errors = []
    for claim in claims:
        point = _POINT_CLAIM.match(claim.paper_value)
        if point:
            paper = float(point.group(1))
            errors.append(abs(claim.measured - paper) / paper)
    return {
        "perf.models_ms": elapsed * 1e3,
        "perf.claim_rel_err_median": median(errors),
        "perf.claim_rel_err_max": max(errors),
    }
