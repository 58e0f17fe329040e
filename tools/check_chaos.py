#!/usr/bin/env python
"""Gate the chaos benchmark's invariants (CI job ``chaos``).

Reads a benchmark results file (``BENCH_results.json`` layout), takes the
latest run containing a ``chaos`` suite and asserts:

1. **Clean completion.**  Every query submitted into the mid-run GPU
   outage ends ``completed`` — the epoch never crashes and no query is
   lost; the injected outage is survivable by construction (GPU-mode
   queries degrade to cpu, post-recovery queries use the GPUs again).
2. **Failover identity.**  The suite's ``failover_results_identical``
   flag is true: every failed-over query produced simulated seconds and
   result bytes bit-identical to a fault-free solo run in its final mode.
3. **Degradation actually happened.**  The fault plan really struck: at
   least one failover and strictly positive wasted simulated seconds,
   and the chaos makespan is no *better* than the fault-free one (a
   faster chaos run would mean the accounting dropped work).
4. **Empty-plan identity.**  The fault-free reference pass inside the
   suite reported per-query simulated seconds bit-identical across
   repetitions, and — when ``--baseline`` points at the repository's
   committed ``BENCH_results.json`` with a ``serve`` or ``tpch`` entry at
   the same scale factor and seed — bit-identical to that recorded
   baseline: the fault machinery must cost nothing when no fault is
   planned.

Exits non-zero with a diagnostic on any violation.

Usage::

    python tools/check_chaos.py --bench /tmp/BENCH_ci.json \
        --baseline BENCH_results.json
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
                        help="results file holding the chaos run to check")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="recorded results file whose latest serve/tpch "
                             "entry anchors the empty-plan identity check")
    args = parser.parse_args(argv)

    run = latest_run(args.bench, "chaos")
    if run is None:
        print(f"FAIL: no chaos suite recorded in {args.bench}")
        return 1
    chaos = run["suites"]["chaos"]
    failures: list[str] = []

    if not chaos.get("clean_completion", False):
        failures.append(
            f"epoch did not complete cleanly: {chaos.get('completed')} "
            f"completed, {chaos.get('failed')} failed, "
            f"{chaos.get('timed_out')} timed out of "
            f"{chaos.get('queries_submitted')} submitted")
    if not chaos.get("failover_results_identical", False):
        failures.append(
            "a failed-over query diverged from its fault-free solo run "
            "(failover_results_identical is false)")
    if chaos.get("failovers", 0) < 1:
        failures.append("the fault plan never struck: zero failovers")
    if chaos.get("wasted_simulated_seconds", 0.0) <= 0.0:
        failures.append(
            "no simulated seconds were wasted — the outage killed no "
            "in-flight work, so the kill window missed")
    if chaos.get("makespan_degradation", 0.0) < 1.0:
        failures.append(
            f"chaos makespan is {chaos['makespan_degradation']:.3f}x the "
            "fault-free makespan (< 1.0): work went missing")
    if not chaos.get("empty_plan_consistent", False):
        failures.append(
            "the fault-free reference pass reported diverging simulated "
            "seconds across repetitions of the same query")

    if args.baseline is not None and args.baseline.exists():
        checked = False
        for suite, key in (("serve", "simulated_seconds"),
                           ("tpch", "simulated_seconds")):
            baseline_run = latest_run(args.baseline, suite)
            if baseline_run is None:
                continue
            same_shape = (
                baseline_run["args"].get("sf") == run["args"].get("sf")
                and baseline_run["args"].get("seed") == run["args"].get("seed"))
            if not same_shape:
                continue
            recorded = baseline_run["suites"][suite][key]
            empty = chaos.get("empty_plan_simulated_seconds", {})
            for label, seconds in empty.items():
                if label in recorded and recorded[label] != seconds:
                    failures.append(
                        f"{label}: empty-plan serve={seconds!r} != recorded "
                        f"{suite} baseline={recorded[label]!r} "
                        f"({baseline_run.get('git_revision')})")
            checked = True
            break
        if not checked:
            print("note: no recorded serve/tpch baseline at this sf/seed; "
                  "cross-PR empty-plan identity check skipped")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(f"chaos suite ok: {chaos['completed']}/"
          f"{chaos['queries_submitted']} completed through a "
          f"{chaos['failovers']}-failover GPU outage, makespan "
          f"{chaos['makespan_degradation']:.2f}x fault-free, failover and "
          "empty-plan results bit-identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
