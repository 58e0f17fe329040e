#!/usr/bin/env python
"""Gate the statistics suite's estimation-quality invariants (CI job ``stats``).

Reads a benchmark results file (``BENCH_results.json`` layout), takes the
latest run containing a ``stats`` suite and asserts:

1. **Estimation quality.**  Every evaluated TPC-H query's per-operator
   median q-error is at most ``--max-q-error`` (default 4.0) — the bar
   ``docs/STATISTICS.md`` sets for the equi-width-histogram estimator at
   benchmark scale.
2. **Estimates never change what a plan computes.**  The suite's
   ``sims_identical_for_unchanged_plans`` flag is true: for every
   query/mode whose chosen physical plan is identical with statistics on
   and off, the simulated seconds were bit-identical.  Statistics may
   change plan *choice* (that is their job); they must never change the
   cost accounting of an unchanged plan.

Exits non-zero with a diagnostic on any violation.

Usage::

    python tools/check_stats.py --bench /tmp/BENCH_ci.json \
        --max-q-error 4.0
"""

from __future__ import annotations

import argparse
from pathlib import Path

from bench_history import latest_run

_REPO = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", type=Path,
                        default=_REPO / "BENCH_results.json",
                        help="results file holding the stats run to check")
    parser.add_argument("--max-q-error", type=float, default=4.0,
                        help="largest allowed per-query median q-error")
    args = parser.parse_args(argv)

    run = latest_run(args.bench, "stats")
    if run is None:
        print(f"FAIL: no stats suite recorded in {args.bench}")
        return 1
    stats = run["suites"]["stats"]
    failures: list[str] = []

    for name, record in sorted(stats.get("queries", {}).items()):
        median = float(record.get("median_q_error", float("inf")))
        if median > args.max_q_error:
            failures.append(
                f"{name}: median q-error {median:.2f} exceeds the allowed "
                f"{args.max_q_error:.2f} (max {record.get('max_q_error')})")

    if not stats.get("sims_identical_for_unchanged_plans", False):
        failures.append(
            "simulated seconds diverged between statistics on/off for a "
            "query whose chosen plan was unchanged "
            "(sims_identical_for_unchanged_plans is false)")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    summary = ", ".join(
        f"{name}:{record['median_q_error']:.2f}"
        for name, record in sorted(stats.get("queries", {}).items()))
    print(f"stats suite ok: median q-errors {summary} (bar "
          f"{args.max_q_error:.2f}); sims bit-identical for unchanged plans")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
