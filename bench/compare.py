#!/usr/bin/env python3
"""Compare two results files written by ``bench/run.py``.

    python3 bench/compare.py A.json B.json

Per (workload, end-to-end metric): both medians, how much worse B is, the
bound from ``BENCHMARK.json`` and a verdict —

* ``same``: within the bound;
* ``better`` / ``worse``: beyond it (a sim or count metric of the same
  seed is exact, so any change is beyond it);
* ``unresolved``: the run-to-run spread of either side is wider than the
  bound and the two sides' runs overlap, so the difference means nothing.

Per-layer metrics of the traced passes follow, without bounds: exact ones
read ``same`` or ``changed``, host times are shown for attribution.
Exits non-zero if any end-to-end metric is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from hapebench.harness import clock_of, load_manifest


def spread(values: list[float]) -> float | None:
    """Run-to-run spread as a share of the median (None for one run)."""
    middle = statistics.median(values)
    if len(values) < 2 or middle == 0:
        return None
    if len(values) < 4:
        return (max(values) - min(values)) / abs(middle)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(middle)


def verdict(a: list[float], b: list[float], *, lower_is_better: bool,
            bound: float) -> tuple[float, float, float, float | None, str]:
    """``(median a, median b, how much worse b is, spread, label)``."""
    mid_a, mid_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if lower_is_better else -1.0
    # End-to-end metrics are never 0 (BENCHMARK.json's contract).
    worse_by = sign * (mid_b - mid_a) / abs(mid_a)
    spreads = [value for value in (spread(a), spread(b))
               if value is not None]
    widest = max(spreads) if spreads else None
    if widest is not None and widest > bound:
        if all(sign * y < sign * x for x in a for y in b):
            label = "better"
        elif all(sign * y > sign * x for x in a for y in b) \
                and worse_by > bound:
            label = "worse"
        else:
            label = "unresolved"
    elif worse_by > bound:
        label = "worse"
    elif worse_by < -bound:
        label = "better"
    else:
        label = "same"
    return mid_a, mid_b, worse_by, widest, label


def metric_values(runs: list[dict], name: str) -> list[float]:
    return [run["metrics"][name]["value"] for run in runs]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    left, right = (json.loads(Path(path).read_text()) for path in argv)
    manifest = load_manifest()
    same_seed = (left["fingerprint"]["seed"] == right["fingerprint"]["seed"])
    for side, record in (("A", left), ("B", right)):
        host = record["fingerprint"]
        print(f"{side}: rev={host['git_revision']} seed={host['seed']} "
              f"nproc={host['nproc']} python={host['python']} "
              f"numpy={host['numpy']} load={host['load_1min_start']:.2f}"
              f"->{host.get('load_1min_end', float('nan')):.2f}")
    print(f"{'workload':<14}{'metric':<36}{'A':>14}{'B':>14}"
          f"{'worse by':>10}{'bound':>7}{'spread':>8}  verdict")
    worst = 0
    for entry in manifest["workloads"]:
        name = entry["name"]
        a, b = left["workloads"].get(name), right["workloads"].get(name)
        if not a or not b or not a["runs"] or not b["runs"]:
            print(f"{name:<14}missing from one side")
            continue
        for metric in manifest["end_to_end"]:
            exact = clock_of(metric["name"]) != "host" and same_seed
            mid_a, mid_b, worse_by, widest, label = verdict(
                metric_values(a["runs"], metric["name"]),
                metric_values(b["runs"], metric["name"]),
                lower_is_better=metric["better"] == "lower",
                bound=0.0 if exact else metric["bound"])
            worst |= label == "worse"
            shown = "n=1" if widest is None else f"{widest:.3f}"
            print(f"{name:<14}{metric['name']:<36}{mid_a:>14.6g}"
                  f"{mid_b:>14.6g}{worse_by:>+10.3f}"
                  f"{0.0 if exact else metric['bound']:>7.2f}"
                  f"{shown:>8}  {label}")
        if a["traced"] and b["traced"]:
            measured = set(a["traced"]["measured"]) | set(
                b["traced"]["measured"])
            for metric in manifest["per_layer"]:
                if metric["name"] not in measured:
                    continue
                x = a["traced"]["metrics"][metric["name"]]["value"]
                y = b["traced"]["metrics"][metric["name"]]["value"]
                if clock_of(metric["name"]) == "host":
                    label = "host"
                else:
                    label = "same" if x == y or not same_seed else "changed"
                change = (y - x) / abs(x) if x else 0.0
                print(f"{name:<14}{metric['name']:<36}{x:>14.6g}{y:>14.6g}"
                      f"{change:>+10.3f}{'':>7}{'':>8}  {label}")
    return int(worst)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
