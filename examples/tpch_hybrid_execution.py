#!/usr/bin/env python
"""TPC-H on CPU-only, GPU-only and hybrid configurations (Figure 8's setup).

Runs all four evaluated queries (Q1, Q5, Q6, Q9*) on a generated dataset in
every engine configuration, prices the two simulated commercial baselines
from the engine's own CPU-only / GPU-only seconds (the rule of Figure 8),
and prints per-device utilization for the hybrid runs — the quantity behind
the paper's "fraction of aggregate throughput" discussion in Section 6.4.
"""

from __future__ import annotations

from repro.baselines import DBMSC, DBMSG
from repro.engine import HAPEEngine
from repro.hardware import default_server
from repro.storage import generate_tpch
from repro.workloads import EVALUATED_QUERIES, build_query


def main() -> None:
    topology = default_server()
    engine = HAPEEngine(topology)
    dataset = generate_tpch(scale_factor=0.02, seed=7)
    engine.register_dataset(dataset.tables)
    dbms_c = DBMSC(topology)
    dbms_g = DBMSG(topology)

    for name in EVALUATED_QUERIES:
        query = build_query(name, dataset)
        print(f"--- {name} ({query.category}) ---")
        results = {}
        for mode in ("cpu", "gpu", "hybrid"):
            results[mode] = engine.execute(query.plan, mode)
            print(f"  Proteus {mode:>6}: {results[mode].makespan_ms:9.3f} ms "
                  f"({results[mode].table.num_rows} result rows)")
        dbms_c_ms = dbms_c.query_seconds(name, results["cpu"].makespan_ms)
        print(f"  DBMS C        : {dbms_c_ms:9.3f} ms")
        dbms_g_ms = dbms_g.query_seconds(name, results["gpu"].makespan_ms)
        print("  DBMS G        : " + ("unsupported" if dbms_g_ms is None
                                     else f"{dbms_g_ms:9.3f} ms"))
        hybrid = results["hybrid"]
        busy = ", ".join(f"{device}={100 * hybrid.busy_fraction(device):.0f}%"
                         for device in ("cpu0", "cpu1", "gpu0", "gpu1"))
        print(f"  hybrid device utilization: {busy}")
        pcie = sum(nbytes for link, nbytes in hybrid.link_bytes.items()
                   if link.startswith("pcie"))
        print(f"  hybrid PCIe traffic: {pcie / 1e6:.2f} MB")
        print()


if __name__ == "__main__":
    main()
