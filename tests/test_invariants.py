"""Engine-wide invariant matrix: (morsel × cache × warm/cold).

One parametrized grid replaces the ad-hoc identity checks that used to be
scattered across ``test_morsels.py`` (morsel invariance over TPC-H) and
``test_query_cache.py`` (warm-vs-cold TPC-H timings): for **every** TPC-H
workload query in **every** device mode, every configuration of

    morsel_rows ∈ {2**40 (one morsel per batch), 977, 8,192}
  × cache_budget_bytes ∈ {engine default, 256 KiB (evicts), 0 (off)}
  × cache {cold, warm}

must report bit-identical outputs, bit-identical simulated seconds and
bit-identical execution stats records (per-device busy seconds and
per-link bytes) to the canonical baseline — one morsel per batch, cache
off.  These knobs tune the *real* wall-clock/working-set
behavior of the engine; nothing the paper's figures plot may move.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import HAPEEngine
from repro.hardware import default_server
from repro.relational import (agg_count, agg_sum, col, execute_logical, lit,
                              scan)
from repro.storage import DEFAULT_MORSEL_ROWS
from repro.workloads import EVALUATED_QUERIES, build_query

MODES = ("cpu", "gpu", "hybrid")
#: One morsel per batch, a non-divisor morsel size, and one between it and
#: the suite's table sizes (the default runs every batch of SF 0.005 as
#: one morsel, as ``1 << 40`` does).
MORSEL_SETTINGS = (1 << 40, 977, 8_192)
#: A budget that holds every entry, one that evicts some of the grid's
#: entries before their warm run, and none.
CACHE_SETTINGS = {"whole": None, "evicting": 256 * 1024, "off": 0}

CONFIGS = [
    pytest.param(morsel_rows, cache, id=f"morsel={morsel_rows}-cache={cache}")
    for morsel_rows in MORSEL_SETTINGS
    for cache in CACHE_SETTINGS
]


def _record(result) -> tuple:
    """Everything a configuration must reproduce bit for bit."""
    return (
        result.simulated_seconds,
        tuple(sorted((name, result.table.array(name).tobytes(),
                      str(result.table.array(name).dtype))
                     for name in result.table.column_names)),
        tuple(sorted(result.device_busy.items())),
        tuple(sorted(result.link_bytes.items())),
    )


@pytest.fixture(scope="module")
def baseline(tpch_dataset):
    """Canonical per-(query, mode) records: one morsel per batch, no
    cache."""
    engine = HAPEEngine(default_server(), morsel_rows=1 << 40,
                        cache_budget_bytes=0)
    engine.register_dataset(tpch_dataset.tables)
    records = {}
    references = {}
    for query_name in EVALUATED_QUERIES:
        query = build_query(query_name, tpch_dataset)
        references[query_name] = execute_logical(query.plan, engine.catalog)
        for mode in MODES:
            records[(query_name, mode)] = _record(
                engine.execute(query.plan, mode))
    return records, references


@pytest.mark.parametrize("morsel_rows,cache", CONFIGS)
def test_tpch_grid_is_bit_identical(tpch_dataset, baseline, morsel_rows,
                                    cache):
    records, references = baseline
    budget = CACHE_SETTINGS[cache]
    knobs = {} if budget is None else {"cache_budget_bytes": budget}
    engine = HAPEEngine(default_server(), morsel_rows=morsel_rows, **knobs)
    engine.register_dataset(tpch_dataset.tables)
    for query_name in EVALUATED_QUERIES:
        query = build_query(query_name, tpch_dataset)
        for mode in MODES:
            context = (f"{query_name}/{mode} morsel_rows={morsel_rows} "
                       f"cache={cache}")
            cold = engine.execute(query.plan, mode)
            assert _record(cold) == records[(query_name, mode)], (
                f"{context}: cold run diverged from the canonical baseline")
            warm = engine.execute(query.plan, mode)
            assert _record(warm) == records[(query_name, mode)], (
                f"{context}: warm run diverged from the canonical baseline")
            # Warm runs are functionally served by the session cache: with
            # room for every entry no kernel ran, so no morsels were
            # dispatched; with no cache every kernel ran again — while the
            # records above prove the timings never notice either way.
            if cache == "whole":
                assert warm.morsels_dispatched == 0, (
                    f"{context}: warm run dispatched morsels")
            elif cache == "off":
                assert warm.morsels_dispatched == cold.morsels_dispatched, (
                    f"{context}: an uncached warm run skipped kernels")
            # The engine output also matches the reference oracle row for
            # row — the canonical join output order makes engine results
            # order-identical to the reference, not just set-identical.
            assert cold.table.equals(references[query_name],
                                     check_order=True), (
                f"{context}: engine output diverged from the reference")
    # The evicting budget is only a test of eviction if it evicted.
    if cache == "evicting":
        assert engine.cache_stats.evicted > 0


def test_the_morsel_settings_are_three_configurations(tpch_dataset):
    """Each morsel setting carves the suite's batches differently: cold
    TPC-H executions dispatch a different morsel count under each, so no
    setting of the grid repeats another."""
    dispatched = set()
    for morsel_rows in MORSEL_SETTINGS:
        engine = HAPEEngine(default_server(), morsel_rows=morsel_rows,
                            cache_budget_bytes=0)
        engine.register_dataset(tpch_dataset.tables)
        dispatched.add(tuple(
            engine.execute(build_query(name, tpch_dataset).plan,
                           mode).morsels_dispatched
            for name in EVALUATED_QUERIES for mode in MODES))
    assert len(dispatched) == len(MORSEL_SETTINGS)


def test_a_subplan_cut_differently_is_never_reused_wrongly(tpch_dataset):
    """Two stacked filters are two chains at a plan's root (the root is a
    chain of its own) and one fused chain under an aggregate: the
    fused-chain tuning keys the two cuts apart in one session, so each
    plan, cold and warm, equals the reference and a fresh session."""
    filtered = (scan("lineitem", ["l_orderkey", "l_quantity"])
                .filter(col("l_quantity") > lit(10))
                .filter(col("l_orderkey") > lit(100)))
    grouped = filtered.aggregate([], [agg_count("cnt"),
                                      agg_sum(col("l_quantity"), "q")])
    engine = HAPEEngine(default_server())
    engine.register_dataset(tpch_dataset.tables)
    for plan in (filtered, grouped, filtered, grouped):
        fresh = HAPEEngine(default_server())
        fresh.register_dataset(tpch_dataset.tables)
        result = engine.execute(plan, "hybrid")
        assert result.table.equals(execute_logical(plan, engine.catalog),
                                   check_order=True)
        assert _record(result) == _record(fresh.execute(plan, "hybrid"))
    assert engine.cache_stats.hits > 0


@pytest.mark.parametrize("mode", MODES)
def test_retuning_morsels_mid_session_keeps_every_record(tpch_dataset,
                                                         baseline, mode):
    """Retuning ``morsel_rows`` between executions of one session, with
    the cache on, may cost cold misses but never serves an entry under the
    wrong setting: every TPC-H query after every retune equals the
    canonical baseline."""
    records, references = baseline
    engine = HAPEEngine(default_server())
    engine.register_dataset(tpch_dataset.tables)
    plans = {name: build_query(name, tpch_dataset).plan
             for name in EVALUATED_QUERIES}
    for morsel_rows in (977, 1 << 40, DEFAULT_MORSEL_ROWS, 977):
        engine.morsel_rows = morsel_rows
        for query_name, plan in plans.items():
            result = engine.execute(plan, mode)
            context = f"{query_name}/{mode} morsel_rows={morsel_rows}"
            assert _record(result) == records[(query_name, mode)], context
            assert result.table.equals(references[query_name],
                                       check_order=True), context
    assert engine.cache_stats.hits > 0


# ----------------------------------------------------------------------
# Serving-layer invariance: arrival pattern × tracing
# ----------------------------------------------------------------------
#: How the same 12 (query, mode) submissions reach the server: all before
#: run() (the PR 5 drain), as a seeded Poisson stream, or as a recorded
#: trace — open-loop arrivals may only add queue wait, never change what
#: any single query computes or charges.
ARRIVAL_PATTERNS = ("drain", "poisson", "trace")

SERVE_CONFIGS = [
    pytest.param(pattern, tracing,
                 id=f"arrivals={pattern}-tracing={'on' if tracing else 'off'}")
    for pattern in ARRIVAL_PATTERNS
    for tracing in (False, True)
]


@pytest.mark.parametrize("pattern,tracing", SERVE_CONFIGS)
def test_served_grid_is_bit_identical(tpch_dataset, baseline, pattern,
                                      tracing):
    """Every served query's record matches the canonical solo baseline,
    however it arrived and whether or not the epoch was traced."""
    from repro.server import Arrival, QueryServer, trace_arrivals

    records, _ = baseline
    server = QueryServer(default_server(), preemption=True,
                         aging_seconds=2e-4, tracing=tracing)
    server.register_dataset(tpch_dataset.tables)
    tenants = ("inter", "norm", "batch")
    server.open_session("inter", priority="interactive", max_concurrency=2)
    server.open_session("norm", priority="normal", max_concurrency=2)
    server.open_session("batch", priority="batch", max_concurrency=2)
    jobs = []
    for index, query_name in enumerate(EVALUATED_QUERIES):
        plan = build_query(query_name, tpch_dataset).plan
        for offset, mode in enumerate(MODES):
            tenant = tenants[(index + offset) % len(tenants)]
            label = f"{query_name}/{mode}"
            jobs.append((tenant, plan, mode, label, (query_name, mode)))

    if pattern == "drain":
        for tenant, plan, mode, label, _ in jobs:
            server.submit(tenant, plan, mode, label=label)
    elif pattern == "poisson":
        rng = np.random.default_rng(20260808)
        arrivals: dict[str, list] = {tenant: [] for tenant in tenants}
        at = 0.0
        for tenant, plan, mode, label, _ in jobs:
            at += float(rng.exponential(3e-5))
            arrivals[tenant].append(Arrival(at=at, tenant=tenant, plan=plan,
                                            mode=mode, label=label))
        for tenant in tenants:
            server.add_arrivals(arrivals[tenant])
    else:
        for tenant in tenants:
            trace = [(index * 2e-5, plan, mode)
                     for index, (job_tenant, plan, mode, _, _)
                     in enumerate(jobs) if job_tenant == tenant]
            server.add_arrivals(trace_arrivals(tenant, trace))

    report = server.run()
    assert report.completed == len(jobs)
    for ticket in report.tickets:
        if pattern == "trace":
            # trace_arrivals assigns its own tenant-indexed labels; map
            # the ticket back through its plan and mode instead.
            key = next((query_name, mode)
                       for _, plan, mode, _, (query_name, _) in jobs
                       if plan is ticket.plan and mode == ticket.mode)
        else:
            key = next(job_key for _, _, _, label, job_key in jobs
                       if label == ticket.label)
        context = (f"{key[0]}/{key[1]} arrivals={pattern} "
                   f"tracing={tracing} tenant={ticket.tenant}")
        assert _record(ticket.result) == records[key], (
            f"{context}: served record diverged from the solo baseline")
        assert ticket.start_time >= ticket.submit_time, (
            f"{context}: query started before it arrived")
    # The traced epoch really was traced: one trace row per ticket, each
    # with its query's operator trace.
    if tracing:
        assert len(server.last_trace.queries) == len(jobs)
        assert all(row.trace is not None for row in server.last_trace.queries)
    else:
        assert server.last_trace is None
