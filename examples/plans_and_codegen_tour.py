#!/usr/bin/env python
"""A tour of the HAPE internals: traits, HetExchange operators, pipelines.

Walks through what the engine does between a logical plan and execution:
heterogeneity-aware physical plans with explicit trait converters, and
pipeline extraction.  Pipelines are descriptive — nothing is generated;
the executor interprets expressions with ``Expr.evaluate``.
"""

from __future__ import annotations

from repro.codegen import break_into_pipelines
from repro.engine import HAPEEngine
from repro.hardware import default_server
from repro.relational import count_operators
from repro.storage import generate_tpch
from repro.workloads import build_query


def main() -> None:
    engine = HAPEEngine(default_server())
    dataset = generate_tpch(scale_factor=0.005, seed=1)
    engine.register_dataset(dataset.tables)
    query = build_query("Q5", dataset)

    for mode in ("cpu", "gpu", "hybrid"):
        physical = engine.plan(query.plan, mode)
        operators = count_operators(physical)
        exchange_ops = {name: count for name, count in operators.items()
                        if name in ("Router", "DeviceCrossing", "MemMove")}
        print(f"[{mode:>6}] operators: {operators}")
        print(f"         HetExchange trait converters: {exchange_ops}")
        pipelines = break_into_pipelines(physical)
        print(f"         pipelines: {len(pipelines)} "
              f"({sum(1 for p in pipelines if p.device.value == 'gpu')} on GPU)")


if __name__ == "__main__":
    main()
