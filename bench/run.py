#!/usr/bin/env python3
"""The repo's benchmark: six workloads, two clocks (see ``bench/README.md``).

One workload, the form the benchmark driver calls (the last line printed
is the result as one JSON object)::

    python3 bench/run.py --workload tpch_cold --seed 2019 --seconds 10 --trace 0

Every workload, one subprocess each, one after another; ``--traced`` adds
the traced pass that yields the per-layer metrics and the span files::

    python3 bench/run.py [--traced] [--seed 2019] [--out bench/results/A.json]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
RESULTS = BENCH / "results"


def bootstrap() -> None:
    """Pin the process to one thread and to this checkout's engine.

    Must run before NumPy (and therefore ``hapebench``) is imported.
    """
    for variable in ("OMP_NUM_THREADS", "MKL_NUM_THREADS",
                     "OPENBLAS_NUM_THREADS"):
        os.environ[variable] = "1"
    os.environ.pop("REPRO_WORKERS", None)
    if not (REPO / "src" / "repro").is_dir():
        sys.exit(f"bench/run.py: {REPO / 'src' / 'repro'} not found — the "
                 f"benchmark measures the engine of the checkout it sits in")
    # This checkout's engine, not whatever PYTHONPATH or site-packages offer.
    sys.path.insert(0, str(REPO / "src"))


def run_one(args: argparse.Namespace) -> int:
    from hapebench.runner import describe, run_workload

    result = run_workload(args.workload, seed=args.seed,
                          seconds=args.seconds, trace=bool(args.trace),
                          scale=args.scale, out_dir=args.out_dir)
    print(describe(result))
    if args.result_json is not None:
        args.result_json.write_text(json.dumps(result))
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    from hapebench.harness import fingerprint, load_manifest

    names = [entry["name"] for entry in load_manifest()["workloads"]]
    host = fingerprint(args.seed)
    if host["load_1min_start"] > host["nproc"]:
        print(f"warning: 1-min load average {host['load_1min_start']:.2f} "
              f"exceeds nproc={host['nproc']}; host timings will be noisy",
              file=sys.stderr)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    scratch = args.out.with_suffix(".partial.json")
    record = {"fingerprint": host, "seconds": args.seconds,
              "scale": args.scale, "workloads": {}}
    status = 0
    for name in names:
        entry = record["workloads"][name] = {"runs": [], "traced": None}
        passes = [0] * args.repeat + ([1] if args.traced else [])
        for trace in passes:
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace),
                       "--scale", args.scale,
                       "--out-dir", str(args.out.parent),
                       "--result-json", str(scratch)]
            finished = subprocess.run(command, check=False)
            status = status or finished.returncode
            if scratch.exists():
                result = json.loads(scratch.read_text())
                scratch.unlink()
                if trace:
                    entry["traced"] = result
                else:
                    entry["runs"].append(result)
    host["load_1min_end"] = os.getloadavg()[0]
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run this one workload in "
                        "process (default: all, one subprocess each)")
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long one untraced run measures (default: "
                        "BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 = the traced pass")
    parser.add_argument("--traced", action="store_true",
                        help="all workloads: add the traced pass")
    parser.add_argument("--repeat", type=int, default=1,
                        help="all workloads: untraced runs per workload")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", type=Path, default=RESULTS / "latest.json",
                        help="all workloads: the results file to write")
    parser.add_argument("--out-dir", type=Path, default=RESULTS,
                        help="with --workload: where trace-<workload>.jsonl "
                        "goes")
    parser.add_argument("--result-json", type=Path, default=None,
                        help="with --workload: also write the full result "
                        "(raw samples included) here")
    args = parser.parse_args(argv)
    bootstrap()
    if args.seconds is None:
        from hapebench.harness import load_manifest

        args.seconds = float(load_manifest()["run_seconds"])
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
