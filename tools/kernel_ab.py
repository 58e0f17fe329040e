#!/usr/bin/env python3
"""In-process A/B of two checkouts on one benchmark workload.

    python tools/kernel_ab.py PARENT_DIR CHANGE_DIR --workload W \\
        [--rounds 20] [--scale full|smoke] [--seed 2019]

``PARENT_DIR`` and ``CHANGE_DIR`` are two checkouts (``make kernel-ab
PARENT=DIR WORKLOAD=W`` takes this tree as the change).  Both checkouts'
``src/repro`` and ``bench/hapebench`` are loaded into this one process,
each under its own copy of the module names, and ``W`` is set up on each
as ``bench/run.py`` sets it up.  Then ``--rounds`` timed units of the
workload run interleaved — parent, change; change, parent; ... — so a
drift of the host lands on both sides alike, and each unit's facts (the
simulated seconds and counters a unit reports) must equal the parent's
first unit's on both sides.  Printed: each operation's floor (fastest
unit) on both sides, the change's ratio and the band of its round-by-round
ratios (the interquartile range of change over parent, one unit each per
round: ``ratio_iqr``), then the ratios of the workload's
``query_geomean_ms`` (the geomean of its operation floors) and of its
``wall_s`` (the sum of its operation floors), both as ``bench/run.py``
computes them; the last line is the same as one JSON object.  A floor
ratio is one sample of the host's weather: an A/A run has read an
unchanged operation at x0.925, so read a ratio against its band — one
whose band straddles 1.0 has not been shown to move.  Exit status 1
when the facts differ, a unit fails a check or a ratio is not finite.

Separate ``bench/run.py`` processes of one checkout drift by some 10 %
on a shared 2-CPU host; one process running both sides does not, which
makes a few-percent kernel change measurable.  Not for a change that
moves the heap (allocation sizes, ``repro.HEAP_KEPT``): both sides run
on the heap of one process.  Reads the checkouts, writes nothing to them
(no bytecode cache either).
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import statistics
import sys
from contextlib import contextmanager
from pathlib import Path

#: Top-level packages each side brings its own copy of.
PACKAGES = ("repro", "hapebench")
SIDES = ("parent", "change")


def _owned(name: str) -> bool:
    return name.partition(".")[0] in PACKAGES


def _unload() -> None:
    for name in [name for name in sys.modules if _owned(name)]:
        del sys.modules[name]


class Side:
    """One checkout's modules and its workload's set-up and clock."""

    def __init__(self, checkout: Path) -> None:
        _unload()
        path = sys.path[:]
        sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
        try:
            self.runner = importlib.import_module("hapebench.runner")
            self.harness = importlib.import_module("hapebench.harness")
        finally:
            sys.path[:] = path
        self.modules = {name: module for name, module in sys.modules.items()
                        if _owned(name)}
        self.clock, self.tally = self.harness.Clock(), self.harness.Tally()

    @contextmanager
    def active(self):
        """This side's modules under the package names, so an import made
        at call time resolves to this checkout; what it loads is kept."""
        _unload()
        sys.modules.update(self.modules)
        try:
            yield
        finally:
            self.modules.update((name, module) for name, module
                                in sys.modules.items() if _owned(name))

    def setup(self, workload: str, scale: str, seed: int) -> None:
        with self.active():
            self.workload = self.runner.workloads(scale)[workload]
            self.state = self.workload.setup(
                seed, self.harness.Recorder(False))

    def unit(self) -> dict:
        with self.active(), self.clock.unit():
            return self.workload.unit(self.state, self.clock,
                                      self.harness.Recorder(False),
                                      self.tally)

    def geomean_seconds(self) -> float:
        return self.harness.geomean(
            self.workload.operation_seconds(self.clock.floors()))


def quartiles(values: list[float]) -> list[float]:
    """The first and third quartiles of ``values`` (inclusive method: the
    band lies within the samples)."""
    if len(values) < 2:
        return values * 2
    first, _, third = statistics.quantiles(values, n=4, method="inclusive")
    return [first, third]


def run(parent: Path, change: Path, *, workload: str, rounds: int,
        scale: str, seed: int) -> dict:
    """Interleaved units of ``workload`` on both checkouts: per-operation
    floors and ratios with the quartiles of their round-by-round ratios,
    the geomean and summed-floor ratios, and whether the facts agreed."""
    sides = {"parent": Side(parent), "change": Side(change)}
    for side in sides.values():
        side.setup(workload, scale, seed)
    first, facts_equal = None, True
    for index in range(rounds):
        for name in SIDES if index % 2 == 0 else SIDES[::-1]:
            facts = sides[name].unit()
            first = facts if first is None else first
            facts_equal = facts_equal and facts == first
    floors = {name: side.clock.floors() for name, side in sides.items()}
    samples = {name: side.clock.ops for name, side in sides.items()}
    return {
        "workload": workload, "rounds": rounds, "scale": scale,
        "facts_equal": facts_equal,
        "failed": sum(side.tally.failed for side in sides.values()),
        "floors_ms": {name: {op: 1e3 * floor for op, floor in ops.items()}
                      for name, ops in floors.items()},
        "ratios": {op: floors["change"][op] / floor
                   for op, floor in floors["parent"].items()},
        # A sample per unit, so the i-th of each side ran in round i.
        "ratio_iqr": {
            op: quartiles([change / parent for parent, change
                           in zip(times, samples["change"][op])])
            for op, times in samples["parent"].items()},
        "geomean_ratio": (sides["change"].geomean_seconds()
                          / sides["parent"].geomean_seconds()),
        "sum_ratio": (sides["change"].clock.floor_seconds()
                      / sides["parent"].clock.floor_seconds()),
    }


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__.strip().splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True, metavar="W")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--seed", type=int, default=2019)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # As bench/run.py pins its process, before NumPy is imported.
    for variable in ("OMP_NUM_THREADS", "MKL_NUM_THREADS",
                     "OPENBLAS_NUM_THREADS"):
        os.environ[variable] = "1"
    os.environ.pop("REPRO_WORKERS", None)
    sys.dont_write_bytecode = True
    result = run(args.parent.resolve(), args.change.resolve(),
                 workload=args.workload, rounds=args.rounds,
                 scale=args.scale, seed=args.seed)
    floors = result["floors_ms"]
    print(f"{'operation':<28}{'parent ms':>12}{'change ms':>12}"
          f"{'ratio':>9}{'round IQR':>16}")
    for op, ratio in result["ratios"].items():
        low, high = result["ratio_iqr"][op]
        print(f"{op:<28}{floors['parent'][op]:>12.4f}"
              f"{floors['change'][op]:>12.4f}{ratio:>9.3f}"
              f"{low:>9.3f}-{high:.3f}")
    print(f"{'geomean':<52}{result['geomean_ratio']:>9.3f}")
    print(f"{'sum of floors (wall_s)':<52}{result['sum_ratio']:>9.3f}")
    print(f"facts equal: {result['facts_equal']}; "
          f"failed checks: {result['failed']}")
    print(json.dumps(result))
    ok = (result["facts_equal"] and not result["failed"]
          and all(map(math.isfinite, [*result["ratios"].values(),
                                      result["sum_ratio"]])))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
