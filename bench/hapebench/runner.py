"""Runs one workload end to end and assembles its result.

An untraced run produces the end-to-end metrics; a traced run re-runs the
workload with the span recorder on, adds the single-layer probes and
produces the per-layer metrics.  Both verify outputs and count what they
attempted.
"""

from __future__ import annotations

import os
import resource
import time
from dataclasses import dataclass
from pathlib import Path

from .harness import (
    CALIBRATION_REFERENCE_SECONDS,
    Calibration,
    Clock,
    Recorder,
    Tally,
    clock_of,
    geomean,
    host_seconds,
    load_manifest,
    median,
    summary,
)
from .joins import JoinWorkloadRunner
from .serving import ServeClosed, ServeOpen
from .tpch import TpchWorkload

#: Set-up runs this many times in an untraced run; ``setup_s`` is the median.
SETUP_REPEATS = 3
SCALES = ("full", "smoke")


def workloads(scale: str) -> dict:
    """The six workloads at ``full`` (benchmark) or ``smoke`` (test) size."""
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; expected one of {SCALES}")
    full = scale == "full"
    tpch_sf = 0.05 if full else 0.003
    built = [
        TpchWorkload("tpch_cold", scale_factor=tpch_sf, cache="off"),
        TpchWorkload("tpch_warm", scale_factor=tpch_sf, cache="default"),
        TpchWorkload("tpch_pressure", scale_factor=tpch_sf,
                     cache="pressure", draws=40 if full else 16),
        JoinWorkloadRunner(tuples=250_000 if full else 5_000),
        ServeClosed(scale_factor=tpch_sf, epochs=5 if full else 1,
                    passes=4 if full else 1),
        ServeOpen(scale_factor=0.01 if full else 0.003,
                  arrivals=50 if full else 6, batch=8 if full else 2),
    ]
    return {workload.name: workload for workload in built}


@dataclass
class TracedRun:
    """What a workload's ``layers()`` derives the per-layer metrics from."""

    rec: Recorder
    #: The same units with the recorder off (and, for TPC-H, through the
    #: un-staged ``engine.execute``): the traced pass's own baseline.
    reference: Clock
    traced: Clock
    facts: dict


def measure(workload, state, clock: Clock, rec: Recorder, tally: Tally,
            calibration: Calibration, seconds: float, min_units: int) -> dict:
    """Timed units until ``seconds`` have passed; returns the first's facts.

    Everything a unit reports besides host time is exact, so every later
    unit must reproduce the first one's facts bit-for-bit.
    """
    first = None
    deadline = time.perf_counter() + seconds
    while len(clock.units) < min_units or time.perf_counter() < deadline:
        calibration.sample_if_due()
        rec.unit = len(clock.units)
        with clock.unit():
            facts = workload.unit(state, clock, rec, tally)
        if first is None:
            first = facts
        else:
            tally.check(facts == first,
                        f"unit {rec.unit}: simulated results or counters "
                        f"differ from unit 0")
    calibration.sample()
    return first


def _end_to_end(workload, state, tally: Tally, setups: list[float],
                setup_weather: Calibration, weather: Calibration,
                seconds: float) -> tuple[dict, Clock, dict]:
    clock = Clock()
    facts = measure(workload, state, clock, Recorder(False), tally, weather,
                    seconds, 2)
    factor = weather.factor()
    return {
        "setup_s": median(setups) * setup_weather.factor(),
        "wall_s": clock.floor_seconds() * factor,
        "query_geomean_ms": 1e3 * factor * geomean(
            workload.operation_seconds(clock.floors())),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_s": workload.sim_seconds(facts),
        "completed_frac": 1.0 - tally.failed / tally.attempted,
    }, clock, {}


def _per_layer(workload, state, tally: Tally, rec: Recorder,
               weather: Calibration, seconds: float, fewest: int,
               declared: list[dict]) -> tuple[dict, Clock, dict]:
    reference, traced = Clock(), Clock()
    measure(workload, state, reference, Recorder(False), tally, weather,
            seconds / 4, fewest)
    facts = measure(workload, state, traced, rec, tally, weather,
                    seconds / 4, fewest + 1)
    values = workload.layers(state, TracedRun(rec, reference, traced, facts))
    values["bench.span_overhead_pct"] = (
        traced.floor_seconds() / reference.floor_seconds() - 1.0) * 100.0
    # What the host clock leaves out: wall time of the timed units during
    # which the sandbox ran someone else.
    values["bench.descheduled_pct"] = reference.descheduled_share() * 100.0
    measured = sorted(values)
    # A layer the workload does not exercise spent no time and did no work
    # in it: it reads 0.
    for entry in declared:
        values.setdefault(entry["name"], 0.0)
    predictions = [{"prediction": text, "holds": bool(holds(values))}
                   for text, holds in workload.predictions]
    factor = weather.factor()
    rescale = {"s": factor, "ms": factor, "us": factor, "1/s": 1 / factor}
    for entry in declared:
        if clock_of(entry["name"]) == "host":
            values[entry["name"]] *= rescale.get(entry["unit"], 1.0)
    return values, traced, {"measured": measured, "predictions": predictions}


def run_workload(name: str, *, seed: int, seconds: float, trace: bool,
                 scale: str = "full", out_dir: Path | None = None) -> dict:
    workload = workloads(scale)[name]
    declared = load_manifest()["per_layer" if trace else "end_to_end"]
    tally = Tally()
    load_start = os.getloadavg()[0]
    rec = Recorder(trace)
    setup_weather, weather = Calibration(), Calibration()
    setups = []
    state = None
    # Smoke scale checks the plumbing, not the timings: one set-up and
    # the fewest units that still compare one unit's facts with another's.
    full = scale == "full"
    for _ in range(SETUP_REPEATS if full and not trace else 1):
        state = None  # drop the previous data set before building the next
        setup_weather.sample()
        start = host_seconds()
        state = workload.setup(seed, rec)
        setups.append(host_seconds() - start)
    setup_weather.sample()
    workload.check(state, tally, trace)

    if trace:
        values, clock, extra = _per_layer(
            workload, state, tally, rec, weather, seconds,
            2 if full else 1, declared)
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            rec.write_jsonl(out_dir / f"trace-{name}.jsonl")
    else:
        values, clock, extra = _end_to_end(
            workload, state, tally, setups, setup_weather, weather, seconds)
    units = {entry["name"]: entry["unit"] for entry in declared}
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise KeyError(f"{name} emitted metrics BENCHMARK.json does not "
                       f"declare: {unknown}")
    return {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "scale": scale, **extra,
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "notes": tally.notes,
        "metrics": {metric: {"value": float(values[metric]), "unit": unit}
                    for metric, unit in units.items()},
        "samples": {
            "setup_s": summary(setups),
            "unit_s": summary(clock.units),
            "unit_wall_s": summary(clock.wall),
            "op_s": {op: summary(samples)
                     for op, samples in clock.ops.items()},
        },
        "calibration": {
            "reference_s": CALIBRATION_REFERENCE_SECONDS,
            "setup_s": summary(setup_weather.samples),
            "run_s": summary(weather.samples),
        },
        "load_1min": [load_start, os.getloadavg()[0]],
    }


def describe(result: dict) -> str:
    """Every metric by name with its unit and the clock it is on."""
    measured = result.get("measured")
    lines = [f"workload {result['workload']} seed={result['seed']} "
             f"trace={result['trace']} units={result['samples']['unit_s']['n']}"
             f" attempted={result['attempted']} failed={result['failed']}"]
    for name, metric in result["metrics"].items():
        if measured is not None and name not in measured:
            continue
        lines.append(f"  {name:<42} {metric['value']:>16.6g} "
                     f"{metric['unit']:<6} [{clock_of(name)}]")
    for row in result.get("predictions", ()):
        lines.append(f"  prediction {'holds' if row['holds'] else 'FAILS'}: "
                     f"{row['prediction']}")
    lines.extend(f"  {note}" for note in result["notes"])
    return "\n".join(lines)
