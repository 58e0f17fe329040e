#!/usr/bin/env python
"""Gate the worker-scaling benchmark's invariants (CI job ``parallel``).

Reads a benchmark results file (``BENCH_results.json`` layout), takes the
latest run containing a ``scale`` suite and asserts:

1. **Bit-identity across worker counts.**  The suite's own flag
   (``simulated_identical_across_workers``) is true: simulated seconds,
   device busy times and link bytes of every TPC-H query/mode were
   bit-identical at workers in {1, 2, 4, auto}.  This gate always runs —
   determinism does not depend on the host.
2. **Server-drain identity with the shared cache enabled.**  The suite's
   ``server_cache_identical_across_workers`` flag is true: a multi-tenant
   drain with cross-session caching ON reported identical ticket
   statuses, simulated seconds and tenant-attributed hit/miss counters
   at workers {1, 2, auto} (the trace/commit attribution contract).
3. **Wall-clock speedup.**  The suite reaches at least ``--min-speedup``
   (default 1.5) times the ``workers=1`` wall-clock at 4 workers.  This
   gate only runs on hosts with at least ``--min-cpus`` (default 4) CPUs
   — on smaller machines 4 worker threads share the same cores and no
   speedup is physically possible, so the check prints an explicit SKIP
   instead of a vacuous failure.

Exits non-zero with a diagnostic on any violation.

Usage::

    python tools/check_scale.py --bench /tmp/BENCH_ci.json \
        --min-speedup 1.5
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from bench_history import latest_run

_REPO = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", type=Path,
                        default=_REPO / "BENCH_results.json",
                        help="results file holding the scale run to check")
    parser.add_argument("--min-speedup", type=float, default=1.5,
                        help="required wall-clock speedup at 4 workers")
    parser.add_argument("--min-cpus", type=int, default=4,
                        help="CPUs the benchmarking host needs before the "
                             "speedup gate applies")
    args = parser.parse_args(argv)

    run = latest_run(args.bench, "scale")
    if run is None:
        print(f"FAIL: no scale suite recorded in {args.bench}")
        return 1
    scale = run["suites"]["scale"]
    failures: list[str] = []

    if not scale.get("simulated_identical_across_workers", False):
        failures.append(
            "simulated seconds / device busy / link bytes diverged across "
            "worker counts (simulated_identical_across_workers is false)")

    # The server-drain leg runs with the shared cache ENABLED: ticket
    # statuses, simulated seconds and the tenant-attributed hit/miss
    # counters must be identical at workers {1, 2, auto}.
    if "server_cache_identical_across_workers" in scale:
        if not scale["server_cache_identical_across_workers"]:
            failures.append(
                "server drain with the shared cache enabled diverged "
                "across worker counts "
                "(server_cache_identical_across_workers is false)")

    cpu_count = int(scale.get("cpu_count", 0))
    speedup = float(scale.get("speedup_at_4_workers", 0.0))
    if cpu_count >= args.min_cpus:
        if speedup < args.min_speedup:
            failures.append(
                f"4-worker wall-clock speedup {speedup:.2f}x below the "
                f"required {args.min_speedup:.2f}x (host has {cpu_count} "
                f"CPUs)")
    else:
        print(f"SKIP: speedup gate needs >= {args.min_cpus} CPUs; the "
              f"benchmarking host has {cpu_count}, so 4 worker threads "
              f"share cores and no wall-clock speedup is physically "
              f"possible (measured {speedup:.2f}x). The bit-identity gate "
              "above still ran.")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    walls = ", ".join(
        f"w={workers}:{data['wall_clock_seconds']:.3f}s"
        for workers, data in scale.get("workers", {}).items())
    served = ("; server drain + shared cache identical at {1,2,auto}"
              if scale.get("server_cache_identical_across_workers") else "")
    print(f"scale suite ok: sims bit-identical across workers; {walls}"
          + (f"; {speedup:.2f}x at 4 workers" if cpu_count >= args.min_cpus
             else "") + served)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
