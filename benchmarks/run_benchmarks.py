#!/usr/bin/env python
"""Record the simulated-seconds trajectory and gate its invariants.

A small registry of 14 suites.  Each suite is declared once, by the
``@suite`` decorator above the function that computes its record: its
one-line summary and its **gates as data** — ``Gate(record key,
predicate, failure message)`` — plus, for suites whose per-query
simulated seconds must match another suite's bit for bit, an
``Identity``.  Every suite declares at least one of the two.
``fig5``–``fig9`` are the paper-scale model sweeps, gated on the shape of
the paper's figures, and ``claims`` the abstract's speed-ups;
``tpch`` (cold) / ``tpch_warm`` / ``mem`` / ``stats`` execute
the evaluated TPC-H queries; ``serve`` / ``chaos`` / ``open_loop`` /
``trace`` drive the multi-tenant server.  Wall-clock numbers (best of
``--repeat``) ride along; the wall-clock *ledger* is ``bench/``.

Every invocation appends one run record to ``--output`` (default
``BENCH_results.json``, the append-only history).  With ``--gate`` the
declared gates are applied to the records just written, and the identity
suites are also compared with the latest same-sf/seed entry of
``--baseline``; every failure is printed and the exit status is non-zero.
The Makefile's gate targets (``figures``, ``serve-bench``, ``stats``,
``chaos``, ``trace``, ``open-loop``) are each one such command.

    python benchmarks/run_benchmarks.py [--sf 0.05] [--seed 2019]
        [--repeat 3] [--suites tpch serve ...] [--output FILE]
        [--gate [--baseline BENCH_results.json]]

One :class:`Workbench` per invocation shares *inputs* (the generated
dataset and the query plans); engines and servers are built fresh per
call, so the two sides of every identity gate are separate executions.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterator, Mapping

_REPO = Path(__file__).resolve().parent.parent
if str(_REPO / "src") not in sys.path:
    sys.path.insert(0, str(_REPO / "src"))

from repro.engine import HAPEEngine, OptimizerOptions  # noqa: E402
from repro.engine.querycache import DEFAULT_CACHE_BUDGET_BYTES  # noqa: E402
from repro.faults import FaultPlan  # noqa: E402
from repro.hardware import default_server  # noqa: E402
from repro.perf import JoinModels, TPCHModels, headline_claims  # noqa: E402
from repro.server import (  # noqa: E402
    Arrival,
    QueryServer,
    poisson_arrivals,
    trace_arrivals,
)
from repro.storage import generate_tpch  # noqa: E402
from repro.workloads import (  # noqa: E402
    all_queries,
    run_all_variants,
    run_coprocessed_join,
)

MODES = ("cpu", "hybrid", "gpu")
#: The ``mem`` suite's scale factor — the scale the PR 2 / PR 4 peak-memory
#: figures quote.
MEM_SF = 0.2
#: The ``mem`` suite's whole-column batching: a morsel size no batch
#: reaches, so every batch runs as one morsel.
WHOLE_COLUMN_ROWS = 1 << 40
#: The serve/chaos tenant mix: a 4-tenant mixed CPU/GPU closed loop.
SERVE_TENANTS = {"cpu-a": "cpu", "gpu-a": "gpu", "cpu-b": "cpu", "gpu-b": "gpu"}
SERVE_SESSIONS = dict.fromkeys(SERVE_TENANTS, {})
#: Closed-loop passes each serve tenant submits.
SERVE_PASSES = 2
DEFAULT_SUITES = ("fig5", "fig6", "fig7", "fig8", "fig9", "claims",
                  "tpch", "tpch_warm", "mem", "serve")


# ----------------------------------------------------------------------
# Gates and the suite registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Gate:
    """One invariant of a suite record: ``passes(value, fields)`` must
    hold for the value at ``key``.

    ``key`` is a dotted path into the record; a ``*`` segment applies the
    gate to every item (``queries.*.median_q_error``).  ``fields`` is the
    dict holding the value, and ``message`` a format string over it plus
    ``{value}``.
    """

    key: str
    passes: Callable[[object, dict], bool]
    message: str


@dataclass(frozen=True)
class Identity:
    """``record[key]`` maps ``query/mode`` labels to simulated seconds that
    must equal, bit for bit, the ``simulated_seconds`` of each ``against``
    suite in the same run and of the first ``against`` suite whose latest
    baseline entry was recorded at the same sf/seed."""

    key: str
    against: tuple[str, ...]


@dataclass(frozen=True)
class Suite:
    run: Callable[["Workbench"], dict]
    summary: Callable[[dict], str]
    gates: tuple[Gate, ...] = ()
    identity: Identity | None = None


SUITES: dict[str, Suite] = {}


def suite(name: str, **declared):
    """Register the decorated function as suite ``name``; ``declared`` are
    the remaining :class:`Suite` fields."""
    def register(run: Callable[["Workbench"], dict]):
        SUITES[name] = Suite(run, **declared)
        return run
    return register


def _true(value, fields) -> bool:
    return value is True


def _at_least(bound: float) -> Callable[[object, dict], bool]:
    return lambda value, fields: value is not None and value >= bound


def _at_most(bound: float) -> Callable[[object, dict], bool]:
    return lambda value, fields: value is not None and value <= bound


def _above(bound: float) -> Callable[[object, dict], bool]:
    return lambda value, fields: value is not None and value > bound


_MISSING = object()


def _resolve(record: dict, key: str) -> list[tuple[str, object, dict]]:
    """``(dotted path, value, dict holding it)`` for every match of
    ``key`` in ``record``; a key that is absent resolves to ``_MISSING``."""
    found = [("", record, record)]
    for part in key.split("."):
        found = [(f"{path}.{name}", node.get(name, _MISSING), node)
                 for path, node, _ in found if isinstance(node, dict)
                 for name in (node if part == "*" else (part,))]
    return found


class _Fields(dict):
    """Record fields for failure messages; an absent one prints as ``?``."""

    def __missing__(self, key: str) -> str:
        return "?"


def latest_run(history: dict, suite_name: str) -> dict | None:
    """The most recent run of a history (oldest first) holding a suite."""
    for run in reversed(history.get("runs", [])):
        if suite_name in run.get("suites", {}):
            return run
    return None


def _check_identity(name: str, identity: Identity, run: dict,
                    baseline: dict | None, failures: list[str],
                    notes: list[str]) -> list[str]:
    """Apply one identity declaration; returns what was compared, one
    ``N labels vs <origin>`` phrase per reference."""
    what = f"{name}.{identity.key}"
    sims = run["suites"][name].get(identity.key) or {}
    if not sims:
        failures.append(f"{what}: no simulated seconds recorded")
    # (origin, its record, strict): an in-run reference must hold every
    # label; a recorded one may predate a query but must share a label.
    references = [(f"the in-run {ref} suite", run["suites"][ref], True)
                  for ref in identity.against
                  if ref != name and ref in run["suites"]]
    if baseline is not None:
        same_shape = [
            (ref, recorded) for ref in identity.against
            if (recorded := latest_run(baseline, ref)) is not None
            and all(recorded["args"].get(arg) == run["args"].get(arg)
                    for arg in ("sf", "seed"))]
        if same_shape:
            ref, recorded = same_shape[0]
            references.append((
                f"the recorded {ref} baseline "
                f"({recorded.get('git_revision')})",
                recorded["suites"][ref], False))
        else:
            notes.append(
                f"note: {name}: no {'/'.join(identity.against)} baseline at "
                "this sf/seed — cross-PR identity check skipped")
    phrases = []
    for origin, record, strict in references:
        reference = record["simulated_seconds"]
        shared = [label for label in sims if label in reference]
        if strict:
            failures += [f"{what}: {label} is absent from {origin}"
                         for label in sims if label not in reference]
        elif sims and not shared:
            failures.append(f"{what}: no label in common with {origin} — "
                            "nothing was compared")
        failures += [f"{what}: {label} = {sims[label]!r} != "
                     f"{reference[label]!r} in {origin}"
                     for label in shared if reference[label] != sims[label]]
        phrases.append(f"{len(shared)} labels vs {origin}")
    return phrases


def check_run(run: dict, baseline: dict | None = None
              ) -> tuple[list[str], list[str]]:
    """Apply every declared gate to one run record.

    Returns ``(failures, notes)``: each failure names ``suite.key``; notes
    are the skipped-baseline / per-suite OK lines.  ``baseline`` is
    a loaded history (the recorded ``BENCH_results.json``) or ``None``.
    """
    failures: list[str] = []
    notes: list[str] = []
    for name, record in run["suites"].items():
        declared = SUITES[name]
        before = len(failures)
        for gate in declared.gates:
            matches = _resolve(record, gate.key)
            if not matches:  # a wildcard over nothing gates nothing
                matches = [(f".{gate.key}", _MISSING, record)]
            for path, value, fields in matches:
                if value is _MISSING:
                    failures.append(f"{name}{path}: not recorded")
                elif not gate.passes(value, fields):
                    failures.append(f"{name}{path}: " + gate.message.format_map(
                        _Fields(fields, value=value)))
        checked = ([f"{len(declared.gates)} gate(s)"] if declared.gates
                   else [])
        if declared.identity is not None:
            checked += _check_identity(name, declared.identity, run,
                                       baseline, failures, notes)
        if len(failures) == before and checked:
            notes.append(f"{name} ok: " + ", ".join(checked))
    return failures, notes


# ----------------------------------------------------------------------
# The per-invocation workbench
# ----------------------------------------------------------------------
class Workbench:
    """What the suites of one invocation share — inputs, never results."""

    def __init__(self, sf: float, seed: int, repeat: int) -> None:
        self.sf, self.seed, self.repeat = sf, seed, max(repeat, 1)

    @cached_property
    def dataset(self):
        return generate_tpch(self.sf, seed=self.seed)

    @cached_property
    def queries(self) -> dict:
        return all_queries(self.dataset)

    @cached_property
    def topology(self):
        """The topology the analytical-model suites share."""
        return default_server()

    def cold_engine(self, **knobs) -> HAPEEngine:
        """A fresh session over the dataset.  Cross-query caching is off
        unless overridden (``cache_budget_bytes=0`` keeps within-query
        memoization), so no kernel evaluation is ever served warm and
        wall-clock numbers stay comparable with pre-cache history."""
        knobs.setdefault("cache_budget_bytes", 0)
        engine = HAPEEngine(default_server(), **knobs)
        engine.register_dataset(self.dataset.tables)
        return engine

    def server(self, sessions: Mapping[str, Mapping] = SERVE_SESSIONS,
               **knobs) -> QueryServer:
        """A fresh server over the dataset with ``sessions`` opened
        (tenant -> ``open_session`` keywords; default: the serve mix)."""
        server = QueryServer(default_server(), **knobs)
        server.register_dataset(self.dataset.tables)
        for tenant, policy in sessions.items():
            server.open_session(tenant, **policy)
        return server

    def jobs(self, modes=MODES) -> Iterator[tuple[str, object, str]]:
        """``(label, plan, mode)`` for every query x every mode."""
        for name, query in self.queries.items():
            for mode in modes:
                yield f"{name}/{mode}", query.plan, mode

    def sweep(self, engine: HAPEEngine, modes=MODES,
              pick=lambda result: result.simulated_seconds) -> dict:
        """Every query x every mode on ``engine`` -> simulated seconds."""
        return {label: pick(engine.execute(plan, mode))
                for label, plan, mode in self.jobs(modes)}

    def best_wall(self, run: Callable[[], object]) -> tuple[float, object]:
        """Best-of-``repeat`` wall-clock seconds plus the last value."""
        best, value = float("inf"), None
        for _ in range(self.repeat):
            start = time.perf_counter()
            value = run()
            best = min(best, time.perf_counter() - start)
        return best, value


def _sims_by_label(tickets) -> dict[str, set[float]]:
    """Every simulated-seconds value each ticket label was served with."""
    served: dict[str, set[float]] = {}
    for ticket in tickets:
        served.setdefault(ticket.label, set()).add(
            ticket.result.simulated_seconds)
    return served


def _cache_record(stats) -> dict:
    return {"hits": stats.hits, "misses": stats.misses,
            "evicted": stats.evicted, "invalidated": stats.invalidated,
            "entries": stats.entries, "bytes_used": stats.bytes_used}


# ----------------------------------------------------------------------
# TPC-H execution suites
# ----------------------------------------------------------------------
@suite("tpch",
       summary=lambda r: f"cold pass {r['wall_clock_seconds']:.3f}s",
       identity=Identity("simulated_seconds", ("tpch",)))
def suite_tpch(bench: Workbench) -> dict:
    """Every query in every mode, cold: the cross-PR trajectory."""
    engine = bench.cold_engine()
    wall, simulated = bench.best_wall(lambda: bench.sweep(engine))
    return {"scale_factor": bench.sf, "wall_clock_seconds": wall,
            "simulated_seconds": simulated}


@suite("tpch_warm",
       summary=lambda r: (
           f"cold {r['wall_clock_seconds_cold']:.3f}s, warm "
           f"{r['wall_clock_seconds_warm']:.3f}s "
           f"({r['warm_speedup']:.2f}x), cache hits={r['cache']['hits']} "
           f"misses={r['cache']['misses']}"),
       gates=(Gate("warm_simulated_seconds_identical", _true,
                   "warm passes reported simulated seconds different from "
                   "the cold pass — costing observed the cache"),))
def suite_tpch_warm(bench: Workbench) -> dict:
    """The repeated-query session: one cold pass populates the cross-query
    cache, ``repeat`` warm passes are served from it."""
    engine = bench.cold_engine(cache_budget_bytes=DEFAULT_CACHE_BUDGET_BYTES)
    start = time.perf_counter()
    cold = bench.sweep(engine)
    cold_wall = time.perf_counter() - start
    warm_wall, warm = bench.best_wall(lambda: bench.sweep(engine))
    return {
        "scale_factor": bench.sf,
        "passes": 1 + bench.repeat,
        "wall_clock_seconds_cold": cold_wall,
        "wall_clock_seconds_warm": warm_wall,
        "warm_speedup": cold_wall / warm_wall if warm_wall > 0 else None,
        "cache": _cache_record(engine.cache_stats),
        "warm_simulated_seconds_identical": warm == cold,
        "simulated_seconds": cold,
    }


@suite("stats",
       summary=lambda r: (
           "median q-errors " + ", ".join(
               f"{name}:{record['median_q_error']:.2f}"
               for name, record in sorted(r["queries"].items()))
           + f" (worst {r['worst_median_q_error']:.2f}, bar 4.00)"),
       gates=(
           Gate("queries.*.median_q_error", _at_most(4.0),
                "median q-error {value:.2f} exceeds the allowed 4.00 "
                "(max {max_q_error})"),
           Gate("sims_identical_for_unchanged_plans", _true,
                "simulated seconds diverged between statistics on/off for "
                "a query whose chosen plan was unchanged"),
       ))
def suite_stats(bench: Workbench) -> dict:
    """Cardinality-estimation quality: per-operator estimated-vs-actual
    q-errors of every query in hybrid mode, the mode ``"auto"`` would
    pick, and — against a ``use_statistics=False`` engine — bit-identical
    simulated seconds wherever statistics left the chosen plan unchanged
    (estimates steer plan *choice*, never what a chosen plan computes)."""
    engine = bench.cold_engine()
    legacy = bench.cold_engine(
        optimizer_options=OptimizerOptions(use_statistics=False))
    wall, results = bench.best_wall(lambda: {
        name: engine.execute(query.plan, "hybrid")
        for name, query in bench.queries.items()})
    per_query: dict[str, dict] = {}
    sims_identical = True
    for name, query in bench.queries.items():
        modes = {}
        for mode in MODES:
            plan_changed = (engine.plan(query.plan, mode).pretty()
                            != legacy.plan(query.plan, mode).pretty())
            simulated = engine.execute(query.plan, mode).simulated_seconds
            legacy_simulated = legacy.execute(
                query.plan, mode).simulated_seconds
            if not plan_changed and simulated != legacy_simulated:
                sims_identical = False
            modes[mode] = {"plan_changed": plan_changed,
                           "simulated_seconds": simulated,
                           "legacy_simulated_seconds": legacy_simulated}
        report = results[name].cardinality
        per_query[name] = {
            "median_q_error": report.median_q_error,
            "max_q_error": report.max_q_error,
            "operators": len(report.operators),
            "auto_mode": engine.resolve_mode(query.plan, "auto").value,
            "modes": modes,
        }
    return {
        "scale_factor": bench.sf,
        "wall_clock_seconds": wall,
        "queries": per_query,
        "worst_median_q_error": max(
            record["median_q_error"] for record in per_query.values()),
        "sims_identical_for_unchanged_plans": sims_identical,
    }


@suite("mem",
       summary=lambda r: ", ".join(
           f"{variant}={data['peak_intermediate_bytes'] / 1e6:.1f}MB"
           f"/{data['wall_clock_seconds']:.3f}s"
           for variant, data in r["variants"].items()),
       gates=(
           Gate("morsels_peak_vs_whole_column", _at_most(0.75),
                "morsels peak at {value:.2f}x whole-column packets', over "
                "the allowed 0.75x — streaming no longer bounds the "
                "working set"),
           Gate("simulated_seconds_identical", _true,
                "simulated seconds differ between the batching variants — "
                "morsel_rows is a working-set knob only"),
       ))
def suite_mem(bench: Workbench) -> dict:
    """Peak intermediate memory (``tracemalloc``) of Q5 hybrid at
    ``MEM_SF`` under the two batchings: whole-column packets (a morsel
    larger than every batch, ``WHOLE_COLUMN_ROWS``) and the default
    morsels.  The gates hold what streaming in morsels buys."""
    big = Workbench(MEM_SF, bench.seed, bench.repeat)
    plan = big.queries["Q5"].plan
    variants = {
        "whole_column_packets": {"morsel_rows": WHOLE_COLUMN_ROWS},
        "morsels": {},
    }
    results = {}
    for name, knobs in variants.items():
        engine = big.cold_engine(**knobs)
        best_wall, best_peak, simulated = float("inf"), None, None
        for _ in range(big.repeat):
            tracemalloc.start()
            start = time.perf_counter()
            run = engine.execute(plan, "hybrid")
            wall = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            best_wall = min(best_wall, wall)
            best_peak = peak if best_peak is None else min(best_peak, peak)
            simulated = run.simulated_seconds
        results[name] = {"peak_intermediate_bytes": best_peak,
                         "wall_clock_seconds": best_wall,
                         "simulated_seconds": simulated}
    peak = {name: data["peak_intermediate_bytes"]
            for name, data in results.items()}
    return {"scale_factor": MEM_SF, "query": "Q5", "mode": "hybrid",
            "variants": results,
            "morsels_peak_vs_whole_column":
                peak["morsels"] / peak["whole_column_packets"],
            "simulated_seconds_identical": len(
                {data["simulated_seconds"] for data in results.values()}) == 1}


# ----------------------------------------------------------------------
# Serving suites
# ----------------------------------------------------------------------
@suite("serve",
       summary=lambda r: (
           f"{r['queries_served']} queries in "
           f"{r['wall_clock_seconds']:.3f}s, throughput "
           f"{r['throughput_speedup_vs_serial']:.2f}x serial, p99 "
           f"{r['latency_p99_seconds'] * 1e3:.3f}ms"),
       gates=(
           Gate("single_query_simulated_identical", _true,
                "served per-query simulated seconds diverged from a cold "
                "solo session"),
           Gate("throughput_speedup_vs_serial", _at_least(2.0),
                "throughput {value:.2f}x serial, below the required 2.00x"),
       ),
       identity=Identity("simulated_seconds", ("tpch",)))
def suite_serve(bench: Workbench) -> dict:
    """Closed-loop serving: four tenants (two CPU-mode, two GPU-mode,
    concurrency 1 each) enqueue ``SERVE_PASSES`` passes of every query on
    one server.  The device-aware scheduler overlaps the CPU-bound and
    GPU-bound streams — the throughput gain over serial submission — and
    every served query must charge exactly what a cold solo session
    charges."""
    def drain():
        server = bench.server()
        for _ in range(SERVE_PASSES):
            for tenant, mode in SERVE_TENANTS.items():
                for label, plan, _ in bench.jobs((mode,)):
                    server.submit(tenant, plan, mode, label=label)
        return server.run()

    wall, report = bench.best_wall(drain)
    solo = bench.sweep(bench.cold_engine(), ("cpu", "gpu"))
    return {
        "scale_factor": bench.sf,
        "tenants": dict(SERVE_TENANTS),
        "passes": SERVE_PASSES,
        "queries_served": report.completed,
        "queries_rejected": report.rejected,
        "wall_clock_seconds": wall,
        "server_makespan_seconds": report.makespan,
        "serial_seconds": report.serial_seconds,
        "throughput_qps": report.throughput_qps,
        "throughput_speedup_vs_serial": report.speedup_vs_serial,
        "latency_p50_seconds": report.percentile_latency(50),
        "latency_p99_seconds": report.percentile_latency(99),
        "queue_wait_seconds_total": sum(
            tenant.queue_wait_seconds for tenant in report.tenants.values()),
        "cache": _cache_record(report.cache),
        "tenant_cache_hits": {
            name: tenant.cache.hits
            for name, tenant in sorted(report.tenants.items())},
        "simulated_seconds": solo,
        # Every repetition of a label agrees, and equals the solo value.
        "single_query_simulated_identical": _sims_by_label(
            report.tickets) == {label: {seconds}
                                for label, seconds in solo.items()},
    }


@suite("chaos",
       summary=lambda r: (
           f"{r['completed']}/{r['queries_submitted']} completed through "
           f"{r['failovers']} failovers, makespan "
           f"{r['makespan_degradation']:.2f}x fault-free, "
           f"{r['recovered_gpu_queries']} GPU queries after recovery"),
       gates=(
           Gate("clean_completion", _true,
                "epoch did not complete cleanly: {completed} completed, "
                "{failed} failed, {timed_out} timed out of "
                "{queries_submitted} submitted"),
           Gate("failover_results_identical", _true,
                "a failed-over query diverged (simulated seconds or result "
                "bytes) from its fault-free solo run in its final mode"),
           Gate("failovers", _at_least(1),
                "the fault plan never struck: {value} failovers"),
           Gate("wasted_simulated_seconds", lambda value, record: value > 0.0,
                "no simulated seconds were wasted — the outage killed no "
                "in-flight work, so the kill window missed"),
           Gate("makespan_degradation", _at_least(1.0),
                "chaos makespan is {value:.3f}x the fault-free makespan "
                "(< 1.0): work went missing"),
           Gate("empty_plan_consistent", _true,
                "the fault-free reference pass reported diverging simulated "
                "seconds across repetitions of the same query"),
       ),
       identity=Identity("empty_plan_simulated_seconds", ("serve", "tpch")))
def suite_chaos(bench: Workbench) -> dict:
    """One pass of the serve mix through a mid-run dual-GPU outage.

    In-flight GPU work is killed (its simulated seconds are wasted), queued
    GPU-mode queries walk the degradation ladder to cpu mode, and queries
    dispatched after recovery use the GPUs again.  The same schedule served
    with an empty ``FaultPlan`` fixes the outage window and is the
    empty-plan identity probe: fault machinery must cost nothing when
    idle."""
    def drain(fault_plan):
        server = bench.server(fault_plan=fault_plan)
        # All arrivals at t=0 on the open-loop path — identical to direct
        # submit() calls (the drain-equivalence property test pins this).
        server.add_arrivals(
            [Arrival(at=0.0, tenant=tenant, plan=plan, mode=mode, label=label)
             for tenant, mode in SERVE_TENANTS.items()
             for label, plan, _ in bench.jobs((mode,))],
            name="chaos-trace")
        return server.run()

    # Both GPUs fail a quarter of the way through the fault-free makespan
    # and recover at 60%.
    reference = drain(FaultPlan())
    kill_at, recover_at = reference.makespan * 0.25, reference.makespan * 0.60
    outage = (FaultPlan()
              .fail_device("gpu0", at=kill_at, recover_at=recover_at)
              .fail_device("gpu1", at=kill_at, recover_at=recover_at))
    wall, report = bench.best_wall(lambda: drain(outage))

    engine = bench.cold_engine()
    identical, failed_over = True, 0
    for ticket in report.tickets:
        if ticket.status != "completed" or ticket.failovers == 0:
            continue
        failed_over += 1
        solo = engine.execute(
            bench.queries[ticket.label.split("/")[0]].plan, ticket.final_mode)
        identical = identical and (
            solo.simulated_seconds == ticket.result.simulated_seconds
            and all(solo.table.array(column).tobytes()
                    == ticket.result.table.array(column).tobytes()
                    for column in solo.table.column_names))

    empty_plan = _sims_by_label(reference.tickets)
    return {
        "scale_factor": bench.sf,
        "tenants": dict(SERVE_TENANTS),
        "kill_at_seconds": kill_at,
        "recover_at_seconds": recover_at,
        "wall_clock_seconds": wall,
        "queries_submitted": len(report.tickets),
        "completed": report.completed,
        "failed": report.failed,
        "timed_out": report.timed_out,
        "failovers": report.failovers,
        "failed_over_queries": failed_over,
        "retries": report.retries,
        "wasted_simulated_seconds": report.wasted_seconds,
        "fault_free_makespan_seconds": reference.makespan,
        "chaos_makespan_seconds": report.makespan,
        "makespan_degradation": report.makespan / reference.makespan,
        "throughput_qps_fault_free": reference.throughput_qps,
        "throughput_qps_chaos": report.throughput_qps,
        "recovered_gpu_queries": sum(
            1 for ticket in report.tickets
            if ticket.status == "completed" and ticket.final_mode == "gpu"
            and ticket.start_time >= recover_at),
        "clean_completion": all(ticket.status == "completed"
                                for ticket in report.tickets),
        "failover_results_identical": identical,
        "empty_plan_consistent": all(
            len(values) == 1 for values in empty_plan.values()),
        "empty_plan_simulated_seconds": {
            label: min(values) for label, values in empty_plan.items()},
    }


@suite("open_loop",
       summary=lambda r: (
           f"{r['queries_served']}/{r['queries_submitted']} served in "
           f"{r['wall_clock_seconds']:.3f}s, {r['preemptions']} "
           f"preemptions, batch {r['batch_completed']} completed"),
       gates=(
           Gate("single_query_simulated_identical", _true,
                "served per-query simulated seconds diverged from a cold "
                "solo session"),
           Gate("slos_met", _true, "at least one tenant missed its SLO"),
           Gate("tenants.*.slo_met",  # None: the tenant has no SLO
                lambda value, tenant: value is not False,
                "p99 {latency_p99_seconds}s exceeded the tenant's SLO "
                "{slo_p99_seconds}s"),
           Gate("batch_starved", lambda value, record: value is False,
                "batch tenant starved under the interactive flood "
                "({batch_completed} completed)"),
           Gate("deterministic_replay", _true,
                "replaying the same arrival seed did not reproduce the "
                "ticket schedule"),
           Gate("queries_served",
                lambda value, record: value == record.get("queries_submitted"),
                "{value} of {queries_submitted} submitted queries "
                "completed"),
       ),
       identity=Identity("simulated_seconds", ("tpch",)))
def suite_open_loop(bench: Workbench) -> dict:
    """Open-loop serving: two interactive tenants submit seeded Poisson
    streams (one CPU-mode, one GPU-mode) while a normal tenant replays a
    staggered hybrid trace and a batch tenant drains one hybrid pass
    submitted at t=0.  Preemption and aging are on and the shared cache is
    off, so preemption always crosses the real morsel grid.  Arrivals,
    preemption and aging may only ever add queue wait: solo identity, each
    interactive tenant's p99 SLO, zero batch starvation and exact
    same-seed replay are gated."""
    names = list(bench.queries)
    plans = [bench.queries[name].plan for name in names]
    solo = bench.sweep(bench.cold_engine())
    worst = {mode: max(solo[f"{name}/{mode}"] for name in names)
             for mode in MODES}
    total = {mode: sum(solo[f"{name}/{mode}"] for name in names)
             for mode in MODES}
    serial_total = total["cpu"] + total["gpu"] + 2 * total["hybrid"]
    # Interactive SLO: a handful of worst-case solo executions, far below
    # the epoch's serial span.  Poisson rate: each interactive stream
    # spreads over ~40% of the serial span, so arrivals interleave with
    # running work.
    slo = {mode: 6.0 * worst[mode] for mode in ("cpu", "gpu")}
    rate = {mode: len(names) / (serial_total * 0.4) for mode in slo}
    aging = worst["hybrid"]

    def one_run():
        server = bench.server(
            {"lat_cpu": {"priority": "interactive",
                         "slo_p99_seconds": slo["cpu"]},
             "lat_gpu": {"priority": "interactive",
                         "slo_p99_seconds": slo["gpu"]},
             "adhoc": {"priority": "normal"},
             "batch": {"priority": "batch"}},
            preemption=True, aging_seconds=aging, cache_budget_bytes=0)
        for offset, mode in enumerate(("cpu", "gpu")):
            server.add_arrivals(poisson_arrivals(
                f"lat_{mode}", plans, rate_qps=rate[mode], count=len(names),
                seed=bench.seed + offset, mode=mode))
        server.add_arrivals(trace_arrivals(
            "adhoc", [(index * serial_total / 16, plan)
                      for index, plan in enumerate(plans)], mode="hybrid"))
        server.add_arrivals(
            [Arrival(at=0.0, tenant="batch", plan=plan, mode="hybrid",
                     label=label)
             for label, plan, _ in bench.jobs(("hybrid",))],
            name="batch-drain")
        return server.run()

    def fingerprint(report) -> tuple:
        return tuple(
            (t.label, t.tenant, t.status, t.submit_time, t.start_time,
             t.finish_time, t.preemptions, t.result.simulated_seconds)
            for t in report.tickets)

    # Generator labels index round-robin into the plan list; the batch
    # drain carries explicit query/mode labels.
    def solo_key(ticket) -> str:
        if "-p" in ticket.label or "-t" in ticket.label:
            index = int(ticket.label.rsplit("-", 1)[1][1:]) - 1
            return f"{names[index % len(names)]}/{ticket.mode}"
        return ticket.label

    wall, report = bench.best_wall(one_run)
    batch = [t for t in report.tickets if t.tenant == "batch"]
    batch_completed = sum(1 for t in batch if t.status == "completed")
    return {
        "scale_factor": bench.sf,
        "arrival_seed": bench.seed,
        "queries_served": report.completed,
        "queries_submitted": len(report.tickets),
        "wall_clock_seconds": wall,
        "server_makespan_seconds": report.makespan,
        "serial_seconds": report.serial_seconds,
        "throughput_qps": report.throughput_qps,
        "throughput_speedup_vs_serial": report.speedup_vs_serial,
        "preemptions": report.preemptions,
        "wasted_simulated_seconds": report.wasted_seconds,
        "aging_seconds": aging,
        "poisson_rate_qps": rate,
        "slo_p99_seconds": slo,
        "slos_met": report.slos_met,
        "tenants": {
            name: {
                "completed": tenant.completed,
                "latency_p50_seconds": tenant.percentile_latency(50),
                "latency_p99_seconds": tenant.percentile_latency(99),
                "queue_wait_seconds": tenant.queue_wait_seconds,
                "preemptions": tenant.preemptions,
                "slo_p99_seconds": tenant.slo_p99_seconds,
                "slo_met": tenant.slo_met,
            } for name, tenant in sorted(report.tenants.items())},
        "batch_completed": batch_completed,
        "batch_starved": batch_completed < len(batch),
        "interactive_flood_end_seconds": max(
            t.submit_time for t in report.tickets
            if t.tenant in ("lat_cpu", "lat_gpu")),
        "deterministic_replay": fingerprint(one_run()) == fingerprint(report),
        "simulated_seconds": solo,
        "single_query_simulated_identical": all(
            t.result.simulated_seconds == solo[solo_key(t)]
            for t in report.tickets),
    }


#: Event kinds the traced chaos epoch must exercise for its byte-identity
#: claim to cover the whole lifecycle.
_REQUIRED_EVENTS = ("submit", "admit", "dispatch", "complete",
                    "failover", "retry", "preempt", "device_health")


@suite("trace",
       summary=lambda r: (
           f"{r['trace_lines']} trace lines, "
           f"{len(r['critical_paths'])} critical paths, tracing-off "
           f"overhead {r['tracing_off_overhead_pct']:.2f}% (allowed 2.00%)"),
       gates=(
           Gate("trace_identical_on_replay", _true,
                "chaos epoch trace was not byte-identical on replay"),
           Gate("perfetto_loadable", _true,
                "Chrome trace export is not Perfetto-loadable (round-trip "
                "or event-shape check failed)"),
           Gate("critical_paths_bound", _true,
                "at least one completed query's critical path failed to "
                "name its binding resource"),
           Gate("tracing_off_overhead_pct", _at_most(2.0),
                "tracing-off path ran {value:.2f}% slower than the traced "
                "control (allowed 2.00%)"),
           Gate("event_kinds",
                lambda kinds, record: set(_REQUIRED_EVENTS) <= set(kinds),
                "event log {value} lacks some of the required kinds "
                + ", ".join(_REQUIRED_EVENTS)),
           *(Gate(counter, _at_least(1),
                  f"chaos epoch exercised no {counter} — the determinism "
                  "claim would not cover them")
             for counter in ("failovers", "retries", "preemptions")),
       ))
def suite_trace(bench: Workbench) -> dict:
    """One chaos epoch — interactive + batch tenants, preemption and aging
    on, gpu0 killed mid-epoch plus transient errors — served with
    ``tracing=True``, then replayed: the exported JSONL must be
    byte-identical across the two drains, the Chrome export
    Perfetto-loadable, every critical path bound.  The overhead leg
    interleaves the cold TPC-H pass on a traced and an untraced session:
    ``tracing_off_overhead_pct`` is how much slower the *untraced* one is
    (the off path must be at worst noise-level slower)."""
    def serve(tracing, fault_plan, aging):
        server = bench.server(
            {"inter": {"priority": "interactive", "max_concurrency": 2},
             "batch": {"priority": "batch", "max_concurrency": 2}},
            preemption=True, aging_seconds=aging,
            fault_plan=fault_plan, tracing=tracing)
        for name, query in bench.queries.items():
            server.submit("batch", query.plan, "hybrid",
                          label=f"{name}/hybrid")
            server.submit("inter", query.plan, "gpu", label=f"{name}/gpu")
        return server, server.run()

    # The fault-free reference fixes the outage window and aging quantum.
    _, reference = serve(False, FaultPlan(), None)
    aging = reference.makespan / 8
    chaos_plan = (FaultPlan(seed=13)
                  .fail_device("gpu0", at=reference.makespan * 0.25,
                               recover_at=reference.makespan * 0.60)
                  .transient_errors(rate=0.2))
    jsonl: list[str] = []
    wall = float("inf")
    for _ in range(2):  # the traced run, then its replay
        start = time.perf_counter()
        server, report = serve(True, chaos_plan, aging)
        wall = min(wall, time.perf_counter() - start)
        jsonl.append(server.last_trace.to_jsonl())
    trace = server.last_trace

    try:
        events = json.loads(json.dumps(
            trace.to_chrome(), allow_nan=False)).get("traceEvents")
        perfetto_loadable = (isinstance(events, list) and bool(events) and all(
            "ph" in event and "pid" in event for event in events))
    except ValueError:
        perfetto_loadable = False
    paths = trace.critical_paths()
    by_ticket = {row.ticket_id: row for row in trace.queries}

    # Whole-pass minimums are too noisy for a 2% gate (scheduler jitter
    # between two *identical* engines already spans ~3% on CI hosts), so
    # each side's wall is the sum of per-(query, mode) minimums over N
    # interleaved passes: per-query minimums shed localized noise spikes
    # fast, and the sums form stable lower envelopes.  The engine order
    # alternates per pass and garbage is collected between passes so the
    # traced side's allocations can't dump GC pauses into the untraced
    # side's timings.
    def envelope_pass(engine, best):
        gc.collect()
        for label, plan, mode in bench.jobs():
            start = time.perf_counter()
            engine.execute(plan, mode)
            best[label] = min(best.get(label, float("inf")),
                              time.perf_counter() - start)

    sides = [(bench.cold_engine(tracing=True), {}), (bench.cold_engine(), {})]
    for _ in range(2):  # warm-up, untimed
        for engine, _best in sides:
            envelope_pass(engine, {})
    for iteration in range(max(bench.repeat, 6)):
        for engine, best in (sides if iteration % 2 == 0 else sides[::-1]):
            envelope_pass(engine, best)
    wall_on, wall_off = (sum(best.values()) for _engine, best in sides)
    return {
        "scale_factor": bench.sf,
        "wall_clock_seconds": wall,
        "queries_submitted": len(report.tickets),
        "completed": report.completed,
        "failovers": report.failovers,
        "retries": report.retries,
        "preemptions": report.preemptions,
        "trace_lines": len(jsonl[0].splitlines()),
        "trace_bytes": len(jsonl[0]),
        "event_kinds": sorted({event.kind for event in trace.events}),
        "trace_identical_on_replay": jsonl[0] == jsonl[1],
        "perfetto_loadable": perfetto_loadable,
        "critical_paths": {
            f"{by_ticket[ticket].tenant}:{by_ticket[ticket].label}":
                {"resource": path.binding_resource, "bound": path.bound,
                 "idle_seconds": path.idle_seconds}
            for ticket, path in sorted(paths.items())},
        "critical_paths_bound": bool(paths) and all(
            path.binding_resource for path in paths.values()),
        "wall_clock_seconds_traced": wall_on,
        "wall_clock_seconds_untraced": wall_off,
        "tracing_off_overhead_pct": max(
            0.0, (wall_off / wall_on - 1.0) * 100.0 if wall_on > 0 else 0.0),
    }


# ----------------------------------------------------------------------
# Paper-figure model sweeps
# ----------------------------------------------------------------------
def _model_and_execution(bench: Workbench, series_of, execute) -> dict:
    """The shape fig6 and fig7 share: the analytical series next to one
    real execution of each variant."""
    wall_model, series = bench.best_wall(series_of)
    wall_exec, runs = bench.best_wall(execute)
    return {
        "wall_clock_seconds_model": wall_model,
        "wall_clock_seconds_execution": wall_exec,
        "simulated_seconds_model": {
            variant: {str(point.tuples_per_side): point.seconds
                      for point in points}
            for variant, points in series.items()},
        "simulated_seconds_execution": {
            variant: run.simulated_seconds for variant, run in runs.items()},
        "output_rows_execution": {
            variant: run.output_rows for variant, run in runs.items()},
    }


def _one_wall(r: dict) -> str:
    return f"model sweep {r['wall_clock_seconds']:.3f}s"


def _two_walls(r: dict) -> str:
    return (f"model sweep {r['wall_clock_seconds_model']:.3f}s, execution "
            f"{r['wall_clock_seconds_execution']:.3f}s")


def _at_largest(model: dict) -> dict:
    """variant -> seconds at the sweep's largest size (``None`` = the
    variant cannot run there)."""
    return {variant: list(points.values())[-1]
            for variant, points in model.items()}


def _partitioned_gpu_fastest(model, fields) -> bool:
    largest = _at_largest(model)
    best = largest.pop("Partitioned GPU")
    return best is not None and all(
        best < seconds for seconds in largest.values() if seconds is not None)


def _replay_is_exact(ratios, fields) -> bool:
    """Executed seconds == replayed seconds, bit for bit: a GPU or
    co-processed variant runs on the devices the model prices, a CPU
    variant on one socket of the ``cpu_sockets`` the model divides by."""
    return bool(ratios) and all(
        ratio == (fields.get("cpu_sockets") if variant.endswith("CPU")
                  else 1.0)
        for variant, ratio in ratios.items())


def _coprocessing_order(model, fields) -> bool:
    largest = _at_largest(model)
    return (largest["2 GPUs"] < largest["1 GPU"] < largest["DBMS C"]
            < largest["DBMS G"])


@suite("fig5", summary=_one_wall,
       gates=(Gate("simulated_seconds",
                   lambda sims, fields: all(
                       sims["SM"][size] < sims["L1"][size]
                       for size in sims["SM"]),
                   "the scratchpad probe is not below the L1 probe at every "
                   "partition size"),))
def suite_fig5(bench: Workbench) -> dict:
    wall, series = bench.best_wall(JoinModels(bench.topology).figure5_series)
    return {"wall_clock_seconds": wall,
            "simulated_seconds": {
                variant: {str(size): seconds for size, seconds in points}
                for variant, points in series.items()}}


@suite("fig6", summary=_two_walls,
       gates=(
           Gate("simulated_seconds_model", _partitioned_gpu_fastest,
                "Partitioned GPU is not strictly the fastest supported "
                "variant at the largest size"),
           Gate("output_rows_execution",
                lambda rows, fields: len(set(rows.values())) == 1,
                "the executed variants returned different row counts: "
                "{value}"),
           Gate("executed_over_replayed", _replay_is_exact,
                "executed seconds over the model's at the executed size "
                "are {value}, not exactly 1.0 (GPU) / {cpu_sockets} (CPU, "
                "one socket of the model's) — the figure and the engine "
                "price the join differently"),
       ))
def suite_fig6(bench: Workbench) -> dict:
    models = JoinModels(bench.topology)
    record = _model_and_execution(
        bench, models.figure6_series,
        lambda: run_all_variants(200_000, topology=bench.topology))
    replayed = models.figure6_series(sizes_mtuples=(0.2,))
    record["cpu_sockets"] = models.num_cpus
    record["executed_over_replayed"] = {
        variant: seconds / replayed[variant][0].seconds
        for variant, seconds in record["simulated_seconds_execution"].items()}
    return record


@suite("fig7", summary=_two_walls,
       gates=(
           Gate("simulated_seconds_model", _coprocessing_order,
                "not 2 GPUs < 1 GPU < DBMS C < DBMS G at the largest size"),
           Gate("output_rows_execution",
                lambda rows, fields: rows == {"1gpu": 300_000,
                                              "2gpu": 300_000},
                "the executed co-processed joins returned {value}, not "
                "300,000 rows each"),
           Gate("executed_over_replayed", _replay_is_exact,
                "executed seconds over the model's at the executed size "
                "are {value}, not exactly 1.0 — the figure and the engine "
                "price the co-processed join differently"),
       ))
def suite_fig7(bench: Workbench) -> dict:
    models = JoinModels(bench.topology)
    gpu_counts = {f"{num_gpus}gpu": num_gpus for num_gpus in (1, 2)}
    record = _model_and_execution(
        bench, models.figure7_series,
        lambda: {variant: run_coprocessed_join(
            300_000, num_gpus=num_gpus, topology=bench.topology)
            for variant, num_gpus in gpu_counts.items()})
    record["executed_over_replayed"] = {
        variant: record["simulated_seconds_execution"][variant]
        / models.coprocessing_seconds(300_000, num_gpus=num_gpus)
        for variant, num_gpus in gpu_counts.items()}
    return record


#: The scan-bound queries: a hybrid pipeline adds the GPUs' share of the
#: scan to both sockets', so the engine must not run them slower hybrid.
SCAN_BOUND = ("Q1", "Q6")


@suite("fig8",
       summary=lambda r: (
           f"model sweep {r['wall_clock_seconds']:.3f}s, execution "
           f"{r['wall_clock_seconds_execution']:.3f}s"),
       gates=(
           Gate("simulated_seconds.*.Proteus Hybrid",
                lambda hybrid, systems: all(
                    hybrid <= seconds * 1.001
                    for seconds in systems.values() if seconds is not None),
                "hybrid ({value:.3f}s) is slower than a supported "
                "single-device configuration or baseline"),
           Gate("simulated_seconds.Q5.DBMS G",
                lambda seconds, fields: seconds is None,
                "DBMS G reports {value}s on Q5, which it cannot run"),
           *(Gate(f"executed_hybrid_over_cpu.{query}", _at_most(1.0),
                  "the engine runs this scan-bound query {value:.3f}x "
                  "slower hybrid than CPU-only")
             for query in SCAN_BOUND),
           Gate("link_mb_execution.*.hybrid",
                lambda hybrid, mb: hybrid <= mb["gpu"],
                "executed hybrid puts {value:.2f} MB on the links, more "
                "than GPU-only ({gpu:.2f} MB), which ships the whole input"),
       ))
def suite_fig8(bench: Workbench) -> dict:
    """The model's Fig. 8 beside the engine's own cpu / hybrid / gpu runs
    at ``--sf`` (Q5 / Q9 ``executed_hybrid_over_cpu`` are recorded
    ungated)."""
    wall, figure = bench.best_wall(TPCHModels(bench.topology).figure8)
    engine = bench.cold_engine()
    wall_exec, runs = bench.best_wall(
        lambda: bench.sweep(engine, pick=lambda result: result))
    by_query = {
        query: {mode: runs[f"{query}/{mode}"] for mode in MODES}
        for query in bench.queries}
    executed = {query: {mode: run.simulated_seconds
                        for mode, run in modes.items()}
                for query, modes in by_query.items()}
    return {"wall_clock_seconds": wall,
            "wall_clock_seconds_execution": wall_exec,
            "simulated_seconds": {
                query: {estimate.system: estimate.seconds
                        for estimate in estimates}
                for query, estimates in figure.items()},
            "simulated_seconds_execution": executed,
            "link_mb_execution": {
                query: {mode: sum(run.link_bytes.values()) / 1e6
                        for mode, run in modes.items()}
                for query, modes in by_query.items()},
            "executed_hybrid_over_cpu": {
                query: seconds["hybrid"] / seconds["cpu"]
                for query, seconds in executed.items()}}


@suite("fig9", summary=_one_wall,
       gates=(
           Gate("partitioned_gain.GPU", _above(1.1),
                "the partitioned join gains only {value:.2f}x on GPU-only "
                "Q5 (bar 1.10x)"),
           Gate("partitioned_gain.Hybrid", _above(1.05),
                "the partitioned join gains only {value:.2f}x on hybrid Q5 "
                "(bar 1.05x)"),
           Gate("gpu_gain_vs_hybrid_gain", _above(1.0),
                "the GPU-only gain is {value:.2f}x the hybrid gain — the "
                "partitioned join must matter most where the GPU does all "
                "the joining"),
       ))
def suite_fig9(bench: Workbench) -> dict:
    wall, figure = bench.best_wall(TPCHModels(bench.topology).figure9)
    gain = {config: variants["Non partitioned join"]
            / variants["Partitioned join"]
            for config, variants in figure.items()}
    return {"wall_clock_seconds": wall,
            "simulated_seconds": {config: dict(variants)
                                  for config, variants in figure.items()},
            "partitioned_gain": gain,
            "gpu_gain_vs_hybrid_gain": gain["GPU"] / gain["Hybrid"]}


@suite("claims",
       summary=lambda r: f"{len(r['claims'])} headline claims in "
                         f"{r['wall_clock_seconds']:.3f}s",
       gates=(Gate("claims.*.measured", _above(1.0),
                   "measured {value:.2f}x (paper {paper}) — the claimed "
                   "speed-up is not a speed-up"),))
def suite_claims(bench: Workbench) -> dict:
    """The abstract's speed-ups, paper value beside the models' ratio."""
    wall, claims = bench.best_wall(lambda: headline_claims(bench.topology))
    return {"wall_clock_seconds": wall,
            "claims": {claim.name: {"paper": claim.paper_value,
                                    "measured": claim.measured}
                       for claim in claims}}


# ----------------------------------------------------------------------
# The command line
# ----------------------------------------------------------------------
def load_history(path: Path) -> dict:
    """A ``{"runs": [...]}`` history file; a missing file starts a fresh
    one, an unreadable one raises ``ValueError`` naming it — the history
    is the baseline every cross-PR identity gate reads and is never
    silently replaced."""
    if not path.exists():
        return {"runs": []}
    try:
        history = json.loads(path.read_text())
    except (OSError, ValueError) as error:
        raise ValueError(f"{path} is not a readable bench history "
                         f"({error}); refusing to overwrite it") from error
    if not isinstance(history, dict) or not isinstance(
            history.get("runs"), list):
        raise ValueError(f'{path} is not a bench history (no "runs" list); '
                         "refusing to overwrite it")
    return history


def _git_revision() -> str | None:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=_REPO,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sf", type=float, default=0.05,
                        help="TPC-H scale factor of the execution suites")
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--repeat", type=int, default=3,
                        help="wall-clock measurements take the best of N")
    parser.add_argument("--output", type=Path,
                        default=_REPO / "BENCH_results.json",
                        help="history file the run record is appended to")
    parser.add_argument("--suites", nargs="*", default=list(DEFAULT_SUITES),
                        help=f"subset of {', '.join(SUITES)}")
    parser.add_argument("--gate", action="store_true",
                        help="apply the suites' declared gates to the run "
                             "just recorded; exit non-zero on any failure")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="recorded history whose latest same-sf/seed "
                             "entries anchor the cross-PR identity gates")
    args = parser.parse_args(argv)
    unknown = [name for name in args.suites if name not in SUITES]
    if unknown:
        parser.error(f"unknown suite(s) {unknown}; choose from "
                     f"{sorted(SUITES)}")
    try:
        history = load_history(args.output)
        # Read before this run is appended: a run is never its own baseline.
        baseline = (load_history(args.baseline)
                    if args.gate and args.baseline is not None else None)
    except ValueError as error:
        print(f"FAIL: {error}", file=sys.stderr)
        return 1

    bench = Workbench(args.sf, args.seed, args.repeat)
    records = {}
    for name in args.suites:
        print(f"running suite {name} ...", flush=True)
        records[name] = SUITES[name].run(bench)
        print(f"  {SUITES[name].summary(records[name])}")
    run = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "git_revision": _git_revision(),
        "python": platform.python_version(),
        "args": {"sf": args.sf, "seed": args.seed, "repeat": args.repeat},
        "suites": records,
    }
    history["runs"].append(run)
    args.output.write_text(json.dumps(history, indent=2) + "\n")
    print(f"wrote {args.output} ({len(history['runs'])} run(s) recorded)")
    if not args.gate:
        return 0
    failures, notes = check_run(run, baseline)
    for line in notes + [f"FAIL: {failure}" for failure in failures]:
        print(line)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
