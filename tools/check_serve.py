#!/usr/bin/env python
"""Gate the serving benchmark's invariants (CI job ``serve``).

Reads a benchmark results file (``BENCH_results.json`` layout), takes the
latest run containing a ``serve`` suite and asserts:

1. **Single-query bit-identity.**  The suite's own flag
   (``single_query_simulated_identical``) is true: every query served
   under 4-tenant concurrency reported simulated seconds bit-identical to
   a cold solo session.
2. **Identity against the cold suite.**  When the same run also contains
   a ``tpch`` suite, the serve suite's per-query simulated seconds match
   it bit for bit.
3. **Identity against the recorded baseline.**  With ``--baseline`` (the
   repository's committed ``BENCH_results.json``), the serve numbers are
   compared against the latest recorded ``tpch`` entry benchmarked at the
   same scale factor and seed — serving must never drift the simulated
   cost model across PRs.
4. **Throughput.**  The 4-tenant mixed CPU/GPU workload reaches at least
   ``--min-speedup`` (default 2.0) times the serial-submission throughput.

With ``--require-open-loop`` (CI job ``open-loop``) the latest run must
also contain an ``open_loop`` suite, whose gates pin the open-loop
serving contract:

5. **Open-loop solo bit-identity** — Poisson/trace arrivals, preemption
   and aging never change what a query computes or charges
   (``single_query_simulated_identical``), and the numbers match the
   run's / recorded baseline's ``tpch`` entries like the serve suite's.
6. **SLO compliance** — every tenant with a ``slo_p99_seconds`` policy
   met it under the Poisson interactive flood (``slos_met`` plus each
   tenant's ``slo_met``).
7. **Zero batch starvation** — every batch query completed
   (``batch_starved`` false) even though interactive arrivals preempt
   batch work; aging is what bounds the exposure.
8. **Deterministic replay** — the same arrival seed reproduced the full
   ticket schedule (``deterministic_replay``).

Exits non-zero with a diagnostic on any violation.

Usage::

    python tools/check_serve.py --bench /tmp/BENCH_ci.json \
        --baseline BENCH_results.json --min-speedup 2.0 \
        --require-open-loop
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from bench_history import latest_run

_REPO = Path(__file__).resolve().parent.parent


def _identity_failures(label_sims: dict, run: dict, baseline: Path | None,
                       suite_name: str) -> list[str]:
    """Solo-identity checks shared by the serve and open_loop suites:
    the suite's per-query sims vs the same run's ``tpch`` entry, and vs
    the recorded baseline's latest same-shape ``tpch`` entry."""
    failures: list[str] = []
    if "tpch" in run.get("suites", {}):
        tpch = run["suites"]["tpch"]["simulated_seconds"]
        for label, seconds in label_sims.items():
            if label in tpch and tpch[label] != seconds:
                failures.append(
                    f"{label}: {suite_name}={seconds!r} != "
                    f"tpch={tpch[label]!r} within the same run")
    if baseline is not None and baseline.exists():
        baseline_run = latest_run(baseline, "tpch")
        if baseline_run is not None:
            same_shape = (
                baseline_run["args"].get("sf") == run["args"].get("sf")
                and baseline_run["args"].get("seed")
                == run["args"].get("seed"))
            if same_shape:
                recorded = (
                    baseline_run["suites"]["tpch"]["simulated_seconds"])
                for label, seconds in label_sims.items():
                    if label in recorded and recorded[label] != seconds:
                        failures.append(
                            f"{label}: {suite_name}={seconds!r} != recorded "
                            f"baseline={recorded[label]!r} "
                            f"({baseline_run.get('git_revision')})")
            else:
                print(f"note: baseline tpch entry uses a different sf/seed; "
                      f"cross-PR identity check for {suite_name} skipped")
    return failures


def _check_open_loop(run: dict, baseline: Path | None) -> list[str]:
    """The open-loop suite's SLO / starvation / determinism gates."""
    record = run["suites"]["open_loop"]
    failures: list[str] = []
    if not record.get("single_query_simulated_identical", False):
        failures.append(
            "open_loop: served per-query simulated seconds diverged from a "
            "cold solo session (single_query_simulated_identical is false)")
    failures.extend(_identity_failures(
        record.get("simulated_seconds", {}), run, baseline, "open_loop"))
    if not record.get("slos_met", False):
        failures.append("open_loop: at least one tenant missed its SLO "
                        "(slos_met is false)")
    for tenant, stats in sorted(record.get("tenants", {}).items()):
        if stats.get("slo_met") is False:
            failures.append(
                f"open_loop: tenant {tenant!r} p99 "
                f"{stats['latency_p99_seconds']:.6f}s exceeded its SLO "
                f"{stats['slo_p99_seconds']:.6f}s")
    if record.get("batch_starved", True):
        failures.append(
            f"open_loop: batch tenant starved under the interactive flood "
            f"({record.get('batch_completed', 0)} completed)")
    if not record.get("deterministic_replay", False):
        failures.append(
            "open_loop: replaying the same arrival seed did not reproduce "
            "the ticket schedule (deterministic_replay is false)")
    if record.get("queries_served") != record.get("queries_submitted"):
        failures.append(
            f"open_loop: {record.get('queries_served')} of "
            f"{record.get('queries_submitted')} submitted queries completed")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", type=Path,
                        default=_REPO / "BENCH_results.json",
                        help="results file holding the serve run to check")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="recorded results file whose latest tpch entry "
                             "anchors the cross-PR identity check")
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="required throughput speedup vs serial")
    parser.add_argument("--require-open-loop", action="store_true",
                        help="also require and gate an open_loop suite "
                             "(SLO compliance, zero batch starvation, "
                             "deterministic replay)")
    args = parser.parse_args(argv)

    run = latest_run(args.bench, "serve")
    failures: list[str] = []
    speedup = 0.0
    if run is None and not args.require_open_loop:
        print(f"FAIL: no serve suite recorded in {args.bench}")
        return 1
    if run is not None:
        serve = run["suites"]["serve"]

        if not serve.get("single_query_simulated_identical", False):
            failures.append(
                "served per-query simulated seconds diverged from a cold "
                "solo session (single_query_simulated_identical is false)")

        failures.extend(_identity_failures(
            serve["simulated_seconds"], run, args.baseline, "serve"))

        speedup = serve.get("throughput_speedup_vs_serial", 0.0)
        if speedup < args.min_speedup:
            failures.append(
                f"throughput speedup {speedup:.2f}x below the required "
                f"{args.min_speedup:.2f}x")

    open_loop = None
    if args.require_open_loop:
        open_loop_run = latest_run(args.bench, "open_loop")
        if open_loop_run is None:
            failures.append(f"no open_loop suite recorded in {args.bench}")
        else:
            open_loop = open_loop_run["suites"]["open_loop"]
            failures.extend(_check_open_loop(open_loop_run, args.baseline))

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    if run is not None:
        serve = run["suites"]["serve"]
        print(f"serve suite ok: {serve['queries_served']} queries, "
              f"{speedup:.2f}x serial throughput, single-query simulated "
              "seconds bit-identical (run and recorded baseline)")
    if open_loop is not None:
        print(f"open_loop suite ok: {open_loop['queries_served']} queries, "
              f"{open_loop['preemptions']} preemptions, every SLO met, "
              "no batch starvation, same-seed replay exact, simulated "
              "seconds bit-identical to solo")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
