#!/usr/bin/env python3
"""Alternating before/after pairs of benchmark workloads.

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
        [--workload W2 ...] [--pairs 10] [--seconds 10] [--seed 2019] \\
        [--out-dir DIR]

``PARENT_DIR`` and ``CHANGE_DIR`` are two checkouts.  Each pair runs, for
every ``--workload`` in the order given, ``bench/run.py --workload W
--result-json`` of both, one process each, and which side goes first
alternates from pair to pair, so a drift of the host lands on both sides
alike and on every workload.  The runs are written as two results files
in ``bench/run.py --out``'s format (``pairs-W-parent.json`` and
``pairs-W-change.json`` in ``--out-dir``, ``W`` the workloads joined by
``+``), ``bench/compare.py`` prints its verdicts for them, and a last
table gives, per workload and end-to-end metric, the change's wins out of
the pairs, the parent's quartiles and whether the change's median beats
the parent's by more than the parent's IQR — the numbers a claimed gain
is accepted on (a win in at least nine of ten pairs and a median gain
wider than the parent's IQR).  One invocation so shows a claimed gain on
one workload and that no metric got worse on the others.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "bench"))

import compare  # noqa: E402  (bench/compare.py, with hapebench beside it)
from hapebench.harness import fingerprint, load_manifest  # noqa: E402

SIDES = ("parent", "change")
#: Share of the pairs a claimed gain must win.
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float]:
    """First and third quartile (both the value itself for one run)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def pair_summary(parent: list[float], change: list[float], *,
                 lower_is_better: bool) -> dict:
    """The change's record against the parent over pairs ``i`` (the
    ``i``-th run of each side): wins, ties, both medians, the parent's
    quartiles, and whether the gain would hold as a claim."""
    sign = 1.0 if lower_is_better else -1.0
    wins = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
    ties = sum(a == b for a, b in zip(parent, change))
    q1, q3 = quartiles(parent)
    mid_a, mid_b = statistics.median(parent), statistics.median(change)
    gain = sign * (mid_a - mid_b)
    return {"pairs": len(parent), "wins": wins, "ties": ties,
            "parent_median": mid_a, "change_median": mid_b,
            "parent_q1": q1, "parent_q3": q3,
            "holds": wins >= WIN_SHARE * len(parent) and gain > q3 - q1}


def run_side(checkout: Path, args: argparse.Namespace, workload: str,
             result_json: Path) -> dict:
    """One ``bench/run.py --workload`` process of ``checkout``."""
    command = [sys.executable, str(checkout / "bench" / "run.py"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0",
               "--out-dir", str(args.out_dir), "--result-json",
               str(result_json)]
    finished = subprocess.run(command, cwd=checkout, capture_output=True,
                              text=True, check=False)
    if finished.returncode or not result_json.exists():
        sys.exit(f"{' '.join(command)} failed:\n{finished.stderr}")
    result = json.loads(result_json.read_text())
    result_json.unlink()
    return result


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """The command line; ``--workload`` may repeat (``args.workloads``,
    in the order given, each once)."""
    parser = argparse.ArgumentParser(
        description=__doc__.strip().splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", dest="workloads", action="append",
                        required=True, metavar="W")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--out-dir", type=Path,
                        default=REPO / "bench" / "results")
    args = parser.parse_args(argv)
    args.workloads = list(dict.fromkeys(args.workloads))
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}
    runs = {workload: {side: [] for side in SIDES}
            for workload in args.workloads}
    tag = "+".join(args.workloads)
    host = fingerprint(args.seed)
    end_to_end = load_manifest()["end_to_end"]
    headline = "query_geomean_ms"
    for index in range(args.pairs):
        for workload in args.workloads:
            for side in SIDES if index % 2 == 0 else SIDES[::-1]:
                runs[workload][side].append(run_side(
                    checkouts[side], args, workload,
                    args.out_dir / f"pairs-{tag}.partial.json"))
            print(f"pair {index + 1}/{args.pairs} {workload}: " + ", ".join(
                f"{side} "
                f"{runs[workload][side][-1]['metrics'][headline]['value']:.4g}"
                for side in SIDES), flush=True)
    host["load_1min_end"] = os.getloadavg()[0]
    paths = []
    for side in SIDES:
        revision = f"{side}:{checkouts[side]}"
        paths.append(args.out_dir / f"pairs-{tag}-{side}.json")
        paths[-1].write_text(json.dumps({
            "fingerprint": dict(host, git_revision=revision),
            "seconds": args.seconds, "scale": "full",
            "workloads": {workload: {"runs": runs[workload][side],
                                     "traced": None}
                          for workload in args.workloads}}, indent=1)
            + "\n")
    status = compare.main([str(path) for path in paths])
    print(f"\n{'workload':<15}{'metric':<20}{'wins':>9}{'ties':>6}"
          f"{'parent':>12}{'change':>12}{'parent IQR':>24}  gain holds")
    for workload in args.workloads:
        for metric in end_to_end:
            summary = pair_summary(
                compare.metric_values(runs[workload]["parent"],
                                      metric["name"]),
                compare.metric_values(runs[workload]["change"],
                                      metric["name"]),
                lower_is_better=metric["better"] == "lower")
            print(f"{workload:<15}{metric['name']:<20}"
                  f"{summary['wins']:>5}/{summary['pairs']:<3}"
                  f"{summary['ties']:>6}{summary['parent_median']:>12.5g}"
                  f"{summary['change_median']:>12.5g}"
                  f"{summary['parent_q1']:>12.5g}-"
                  f"{summary['parent_q3']:<11.5g}"
                  f"  {'yes' if summary['holds'] else 'no'}")
    return status


if __name__ == "__main__":
    sys.exit(main())
