"""Engine-wide invariant matrix: (workers × fusion × morsel × warm/cold).

One parametrized grid replaces the ad-hoc identity checks that used to be
scattered across ``test_morsels.py`` (morsel invariance over TPC-H) and
``test_query_cache.py`` (warm-vs-cold TPC-H timings): for **every** TPC-H
workload query in **every** device mode, every configuration of

    workers ∈ {1, 2, "auto"}
  × pipeline_fusion ∈ {off, on}
  × morsel_rows ∈ {None, 977, engine default}
  × cache {cold, warm}

must report bit-identical outputs, bit-identical simulated seconds and
bit-identical execution stats records (per-device busy seconds and
per-link bytes) to the canonical baseline — one worker, fusion off,
whole-column packets, cold.  These knobs tune the *real*
wall-clock/working-set behavior of the engine; nothing the paper's
figures plot may move.  The worker axis is the parallel-execution
determinism contract: worker threads run only pure kernel work, all
merging/accounting happens on the query thread in canonical plan order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import HAPEEngine
from repro.hardware import default_server
from repro.relational import execute_logical
from repro.storage import DEFAULT_MORSEL_ROWS
from repro.workloads import EVALUATED_QUERIES, build_query

MODES = ("cpu", "gpu", "hybrid")
#: Whole-column packets, a non-divisor morsel size, and the default.
MORSEL_SETTINGS = (None, 977, DEFAULT_MORSEL_ROWS)
FUSION_SETTINGS = (False, True)
#: Serial, genuinely threaded, and whatever the host resolves "auto" to.
WORKER_SETTINGS = (1, 2, "auto")

CONFIGS = [
    pytest.param(fusion, morsel_rows, workers,
                 id=(f"fusion={'on' if fusion else 'off'}"
                     f"-morsel={morsel_rows}-workers={workers}"))
    for fusion in FUSION_SETTINGS
    for morsel_rows in MORSEL_SETTINGS
    for workers in WORKER_SETTINGS
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
    """Canonical per-(query, mode) records: fusion off, no morsels, cold."""
    engine = HAPEEngine(default_server(), morsel_rows=None,
                        pipeline_fusion=False, cache_budget_bytes=0)
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


@pytest.mark.parametrize("fusion,morsel_rows,workers", CONFIGS)
def test_tpch_grid_is_bit_identical(tpch_dataset, baseline, fusion,
                                    morsel_rows, workers):
    records, references = baseline
    engine = HAPEEngine(default_server(), morsel_rows=morsel_rows,
                        pipeline_fusion=fusion, workers=workers)
    engine.register_dataset(tpch_dataset.tables)
    for query_name in EVALUATED_QUERIES:
        query = build_query(query_name, tpch_dataset)
        for mode in MODES:
            context = (f"{query_name}/{mode} fusion={fusion} "
                       f"morsel_rows={morsel_rows} "
                       f"workers={workers} (resolved={engine.workers})")
            cold = engine.execute(query.plan, mode)
            assert _record(cold) == records[(query_name, mode)], (
                f"{context}: cold run diverged from the canonical baseline")
            warm = engine.execute(query.plan, mode)
            assert _record(warm) == records[(query_name, mode)], (
                f"{context}: warm run diverged from the canonical baseline")
            # Warm runs are functionally served by the session cache:
            # no kernel ran, so no morsels were dispatched — while the
            # records above prove the timings never notice.
            assert warm.morsels_dispatched == 0, (
                f"{context}: warm run dispatched morsels")
            # The engine output also matches the reference oracle row for
            # row — the canonical join output order makes engine results
            # order-identical to the reference, not just set-identical.
            assert cold.table.equals(references[query_name],
                                     check_order=True), (
                f"{context}: engine output diverged from the reference")


class TestFusionKnobSurface:
    def test_default_session_has_fusion_enabled(self):
        assert HAPEEngine(default_server()).pipeline_fusion is True

    def test_toggling_mid_session_never_reuses_wrong_entries(self,
                                                             tpch_dataset):
        """Fused and unfused cache entries are keyed apart: a toggle can
        cause cold misses but never a wrong (differently shaped) reuse."""
        engine = HAPEEngine(default_server())
        engine.register_dataset(tpch_dataset.tables)
        query = build_query("Q5", tpch_dataset)
        fused = engine.execute(query.plan, "hybrid")
        engine.pipeline_fusion = False
        unfused = engine.execute(query.plan, "hybrid")
        engine.pipeline_fusion = True
        refused = engine.execute(query.plan, "hybrid")
        assert fused.simulated_seconds == unfused.simulated_seconds
        assert unfused.simulated_seconds == refused.simulated_seconds
        for name in fused.table.column_names:
            np.testing.assert_array_equal(fused.table.array(name),
                                          unfused.table.array(name))
            np.testing.assert_array_equal(fused.table.array(name),
                                          refused.table.array(name))

    def test_fused_chains_dispatch_fewer_morsels(self, tpch_dataset):
        """Fusion collapses per-node streams into per-chain streams."""
        def run(fusion: bool) -> int:
            engine = HAPEEngine(default_server(), morsel_rows=512,
                                pipeline_fusion=fusion)
            engine.register_dataset(tpch_dataset.tables)
            query = build_query("Q5", tpch_dataset)
            return engine.execute(query.plan, "hybrid").morsels_dispatched
        assert run(True) < run(False)


# ----------------------------------------------------------------------
# Serving-layer invariance: arrival pattern × workers
# ----------------------------------------------------------------------
#: How the same 12 (query, mode) submissions reach the server: all before
#: run() (the PR 5 drain), as a seeded Poisson stream, or as a recorded
#: trace — open-loop arrivals may only add queue wait, never change what
#: any single query computes or charges.
ARRIVAL_PATTERNS = ("drain", "poisson", "trace")
SERVE_WORKERS = (1, 2)

SERVE_CONFIGS = [
    pytest.param(pattern, workers, id=f"arrivals={pattern}-workers={workers}")
    for pattern in ARRIVAL_PATTERNS
    for workers in SERVE_WORKERS
]


@pytest.mark.parametrize("pattern,workers", SERVE_CONFIGS)
def test_served_grid_is_bit_identical(tpch_dataset, baseline, pattern,
                                      workers):
    """Every served query's record matches the canonical solo baseline,
    however it arrived and however many dispatch workers ran."""
    from repro.server import Arrival, QueryServer, trace_arrivals

    records, _ = baseline
    server = QueryServer(default_server(), workers=workers,
                         preemption=True, aging_seconds=2e-4)
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
        context = (f"{key[0]}/{key[1]} arrivals={pattern} workers={workers} "
                   f"tenant={ticket.tenant}")
        assert _record(ticket.result) == records[key], (
            f"{context}: served record diverged from the solo baseline")
        assert ticket.start_time >= ticket.submit_time, (
            f"{context}: query started before it arrived")
