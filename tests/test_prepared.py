"""Prepared plans: a repeated query is planned and compiled once, and only
once.

A session keeps one record per (logical plan, resolved mode) — physical
plan, pipelines, estimates and, from the first execution on, the
executor's compiled program (chains, placement, memo keys, prices) —
stamped with the catalog's table versions, the topology's health
fingerprint and the options.  These tests pin both halves of that
contract: a hit plans and derives nothing and changes nothing (results,
simulated seconds, reports and traces are those of a fresh planning), and
every change the decisions depend on is a miss.
"""

from __future__ import annotations

import copy
import cProfile
import dataclasses
from collections import Counter
import gc
import operator
import pstats
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.engine import Executor, HAPEEngine, descriptions
from repro.engine import executor as executor_module
from repro.engine.modes import ExecutionMode
from repro.engine.optimizer import Optimizer, OptimizerOptions
from repro.engine.querycache import CacheKey, QueryCache, result_nbytes
from repro.errors import CatalogError, OptimizerError, OutOfDeviceMemoryError
from repro.faults import FaultPlan
from repro.hardware import default_server
from repro.hardware.clock import SimClock, Timeline
from repro.hardware.specs import pcie3_x16
from repro.hardware.topology import Topology
from repro.obs import QueryTrace, Span
from repro.operators import kernel_counts, reset_kernel_counts
from repro.relational import JoinAlgorithm, agg_sum, col, lit, scan
from repro.relational import physical as physical_module
from repro.relational.physical import PJoin, structural_key
from repro.server import QueryServer
from repro.stats import CardinalityEstimator
from repro.storage import Table, generate_tpch
from repro.storage.column import Column
from repro.workloads import all_queries, build_query

MODES = ("cpu", "hybrid", "gpu")


@pytest.fixture
def optimize_calls(monkeypatch):
    """Every ``Optimizer.optimize`` call, as its resolved mode value."""
    calls: list[str] = []
    original = Optimizer.optimize

    def counting(self, plan, mode="hybrid", *args, **kwargs):
        calls.append(getattr(mode, "value", mode))
        return original(self, plan, mode, *args, **kwargs)

    monkeypatch.setattr(Optimizer, "optimize", counting)
    return calls


@pytest.fixture
def compile_calls(monkeypatch):
    """Every ``Executor.compile`` call, as the plan it compiled."""
    calls: list = []
    original = Executor.compile

    def counting(self, plan):
        calls.append(plan)
        return original(self, plan)

    monkeypatch.setattr(Executor, "compile", counting)
    return calls


@pytest.fixture
def q5(tpch_dataset):
    return build_query("Q5", tpch_dataset).plan


def _replans(engine, plan, mode, optimize_calls, change) -> object:
    """Run ``plan``, apply ``change``, run it again; assert the second run
    planned anew, and return its result."""
    first = engine.execute(plan, mode)
    before = len(optimize_calls)
    change()
    second = engine.execute(plan, mode)
    assert len(optimize_calls) == before + 1
    assert second.physical_plan is not first.physical_plan
    return second


# ----------------------------------------------------------------------
# Hits
# ----------------------------------------------------------------------
class TestHit:
    @pytest.mark.parametrize("mode", MODES)
    def test_a_repeated_query_is_planned_once(self, engine, q5, mode,
                                              optimize_calls):
        first = engine.execute(q5, mode)
        assert len(optimize_calls) == 1
        second = engine.execute(q5, mode)
        assert second.physical_plan is first.physical_plan
        assert second.pipelines is first.pipelines
        assert engine.plan(q5, mode) is first.physical_plan
        assert "pipelines:" in engine.explain(q5, mode)
        assert len(optimize_calls) == 1
        assert second.simulated_seconds == first.simulated_seconds
        assert second.cardinality == first.cardinality

    def test_each_mode_has_its_own_record(self, engine, q5, optimize_calls):
        plans = {mode: engine.plan(q5, mode) for mode in MODES}
        assert len({id(plan) for plan in plans.values()}) == len(MODES)
        for mode in MODES:
            assert engine.execute(q5, mode).physical_plan is plans[mode]
        assert optimize_calls == list(MODES)

    def test_auto_reads_the_record_of_the_mode_it_picked(self, engine, q5,
                                                         optimize_calls):
        picked = engine.resolve_mode(q5, "auto")
        result = engine.execute(q5, "auto")
        assert result.mode is picked
        assert engine.execute(q5, "auto").physical_plan \
            is result.physical_plan
        assert engine.plan(q5, picked) is result.physical_plan
        assert optimize_calls == [picked.value]

    def test_an_equal_plan_object_is_its_own_record(self, engine,
                                                    tpch_dataset,
                                                    optimize_calls):
        one = build_query("Q6", tpch_dataset).plan
        two = build_query("Q6", tpch_dataset).plan
        engine.execute(one, "cpu")
        engine.execute(two, "cpu")
        assert len(optimize_calls) == 2

    def test_a_failed_planning_is_not_recorded(self, engine, tpch_dataset,
                                               optimize_calls):
        plan = scan("nowhere").aggregate([], [agg_sum(col("x"), "s")])
        for _ in range(2):
            with pytest.raises(CatalogError):
                engine.execute(plan, "cpu")
        assert len(optimize_calls) == 2


# ----------------------------------------------------------------------
# Misses: every change the decisions depend on
# ----------------------------------------------------------------------
class TestMiss:
    def test_register_replace(self, engine, q5, tpch_dataset,
                              optimize_calls):
        _replans(engine, q5, "hybrid", optimize_calls,
                 lambda: engine.register_table(
                     tpch_dataset.tables["nation"], replace=True))

    def test_drop_then_register_again(self, engine, q5, tpch_dataset,
                                      optimize_calls):
        def change():
            engine.drop_table("region")
            engine.register_table(tpch_dataset.tables["region"])

        _replans(engine, q5, "hybrid", optimize_calls, change)

    def test_a_drop_alone_is_a_miss(self, engine, q5, optimize_calls):
        engine.execute(q5, "hybrid")
        engine.drop_table("region")
        with pytest.raises(CatalogError):
            engine.execute(q5, "hybrid")

    def test_a_change_while_the_record_is_built(self, engine, q5,
                                                tpch_dataset, monkeypatch,
                                                optimize_calls):
        """A table replaced while the plan is being estimated (another
        thread's registration, then another thread's lookup under the new
        versions) leaves no record on the old statistics."""
        estimator = engine.optimizer.estimator
        original = estimator.estimate_nodes
        nation = tpch_dataset.tables["nation"]
        other = build_query("Q6", tpch_dataset).plan

        def rows(estimates):
            return [estimates[id(node)].rows for node in q5.walk()]

        stale = []

        def estimate_then_replace(plan):
            estimates = original(plan)  # on the statistics before
            stale.append(rows(estimates))
            monkeypatch.setattr(estimator, "estimate_nodes", original)
            engine.register_table(nation.slice(0, 5), replace=True)
            engine.working_set(other)  # records under the new versions
            return estimates

        monkeypatch.setattr(estimator, "estimate_nodes",
                            estimate_then_replace)
        first = engine.execute(q5, "hybrid")
        second = engine.execute(q5, "hybrid")
        assert second.physical_plan is not first.physical_plan
        assert len(optimize_calls) == 2
        assert rows(engine._plan_records(q5).estimates) \
            == rows(original(q5)) != stale[0]

    def test_a_first_registration_refreshes_the_estimates(self,
                                                          tpch_dataset):
        engine = HAPEEngine(default_server())
        plan = build_query("Q6", tpch_dataset).plan
        assert not engine.working_set(plan).backed
        engine.register_dataset(tpch_dataset.tables)
        assert engine.working_set(plan).backed

    def test_retune(self, engine, q5, optimize_calls):
        _replans(engine, q5, "hybrid", optimize_calls,
                 lambda: engine.executor.retune(morsel_rows=977))
        # The knob attribute is the same door.
        _replans(engine, q5, "hybrid", optimize_calls,
                 lambda: setattr(engine, "tracing", True))
        _replans(engine, q5, "hybrid", optimize_calls,
                 lambda: setattr(engine, "cache_budget_bytes", 1 << 20))

    def test_fail_and_restore_a_device(self, engine, q5, optimize_calls):
        healthy = engine.execute(q5, "hybrid")
        failed = _replans(engine, q5, "hybrid", optimize_calls,
                          lambda: engine.topology.fail_device("gpu0"))
        assert failed.device_busy.get("gpu0", 0.0) == 0.0
        restored = _replans(engine, q5, "hybrid", optimize_calls,
                            lambda: engine.topology.restore_device("gpu0"))
        assert restored.physical_plan.pretty() \
            == healthy.physical_plan.pretty()
        assert restored.simulated_seconds == healthy.simulated_seconds

    def test_a_direct_memory_shrink_reaches_the_gpu_fit_rule(
            self, engine, q5, optimize_calls):
        def algorithms():
            return {node.algorithm for node in engine.plan(q5, "hybrid").walk()
                    if hasattr(node, "algorithm")}

        assert algorithms() == {JoinAlgorithm.NON_PARTITIONED}
        engine.plan(q5, "gpu")
        gpu = engine.topology.device("gpu0")
        gpu.shrink_memory(1e-5)  # on the device, not through the topology
        # The hash tables no longer fit: hybrid co-processes, GPU-only is
        # refused — neither is served from the records made before.
        assert JoinAlgorithm.COPROCESSED_RADIX in algorithms()
        with pytest.raises(OptimizerError):
            engine.plan(q5, "gpu")
        gpu.restore_memory()
        assert algorithms() == {JoinAlgorithm.NON_PARTITIONED}

    def test_a_degraded_link_replans_and_prices_the_new_bandwidth(
            self, engine, q5, tpch_dataset, optimize_calls):
        degraded = _replans(
            engine, q5, "gpu", optimize_calls,
            lambda: engine.topology.degrade_link("pcie1", 0.25))
        fresh = HAPEEngine(default_server())
        fresh.register_dataset(tpch_dataset.tables)
        fresh.topology.degrade_link("pcie1", 0.25)
        alone = fresh.execute(q5, "gpu")
        assert degraded.simulated_seconds == alone.simulated_seconds
        assert degraded.link_bytes == alone.link_bytes

    def test_options_are_part_of_the_stamp(self, engine, q5,
                                           optimize_calls):
        _replans(engine, q5, "hybrid", optimize_calls,
                 lambda: setattr(engine.optimizer, "options",
                                 dataclasses.replace(engine.optimizer.options,
                                                     small_build_rows=10)))

    def test_a_breaker_trip_inside_an_epoch(self, tpch_dataset,
                                            optimize_calls):
        plan = (scan("lineitem", ["l_orderkey", "l_extendedprice"])
                .aggregate(["l_orderkey"],
                           [agg_sum(col("l_extendedprice"), "s")]))
        fault_plan = FaultPlan().fail_attempt("victim", attempt=1,
                                              device="gpu0", fraction=0.5)
        server = QueryServer(default_server(), fault_plan=fault_plan,
                             cache_budget_bytes=0, breaker_threshold=1,
                             breaker_cooldown_seconds=10.0)
        server.register_dataset(tpch_dataset.tables)
        # One tenant, one plan object: the follower would find the
        # victim's two-GPU record if the trip did not drop it.
        victim = server.submit("t", plan, "gpu", label="victim")
        follower = server.submit("t", plan, "gpu", label="follower", at=1.0)
        server.run()
        assert victim.status == follower.status == "completed"
        assert victim.failovers == 1
        assert follower.final_mode == "gpu"
        assert follower.result.device_busy.get("gpu0", 0.0) == 0.0
        assert optimize_calls.count("gpu") == 2


# ----------------------------------------------------------------------
# Identity: a record changes nothing a query reports
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sf001():
    return generate_tpch(0.01, seed=2019)


def _fingerprint(result):
    # Plan node ids come from a global counter, so two plannings number
    # their nodes differently; the report is compared in plan order.
    report = [(op.label, op.estimated_rows, op.actual_rows, op.q_error)
              for op in result.cardinality.operators]
    return (result.table.column_names,
            [result.table.array(name).tobytes()
             for name in result.table.column_names],
            repr(result.simulated_seconds), result.device_busy,
            result.link_bytes, report, result.trace.to_jsonl(),
            result.morsels_dispatched)


def test_warm_records_are_bit_identical_to_a_fresh_session(sf001):
    queries = all_queries(sf001)
    sessions = []
    for _ in range(2):
        session = HAPEEngine(default_server(), tracing=True,
                             cache_budget_bytes=0)
        session.register_dataset(sf001.tables)
        sessions.append(session)
    warm, fresh = sessions
    for name in ("Q1", "Q5", "Q6", "Q9"):
        for mode in MODES:
            plan = queries[name].plan
            first = warm.execute(plan, mode)
            hit = warm.execute(plan, mode)
            assert hit.cardinality == first.cardinality
            assert _fingerprint(hit) == _fingerprint(
                fresh.execute(plan, mode)), (name, mode)


def _timing(result):
    """What every execution of one plan reports alike, warm or cold."""
    report = [(op.label, op.estimated_rows, op.actual_rows, op.q_error)
              for op in result.cardinality.operators]
    return (repr(result.simulated_seconds), result.device_busy,
            result.link_bytes, report, result.trace.timing_jsonl())


def _replay(result):
    """What an execution reports, cache warmth included."""
    return (_timing(result), result.cache, result.morsels_dispatched,
            result.trace.to_jsonl())


@pytest.mark.parametrize("morsel_rows", [1 << 40, 977],
                         ids=["whole", "morsels"])
def test_a_kept_program_is_bit_identical_to_a_fresh_one(sf001, morsel_rows):
    """Every TPC-H (query, mode): runs through a program an earlier run
    compiled and priced equal runs through a new one — cold kernels
    (cache off), warm kernels (an equal plan object, so a new program over
    the same cache entries) and a fresh session — in simulated seconds,
    device busy, link bytes, operator rows, cache counters and traces,
    with one morsel per batch and with a non-divisor morsel size."""
    def session(**knobs):
        engine = HAPEEngine(default_server(), tracing=True,
                            morsel_rows=morsel_rows, **knobs)
        engine.register_dataset(sf001.tables)
        return engine

    queries, rebuilt = all_queries(sf001), all_queries(sf001)
    cold, warm, fresh = session(cache_budget_bytes=0), session(), session()
    for name in ("Q1", "Q5", "Q6", "Q9"):
        for mode in MODES:
            plan = queries[name].plan
            cold_runs = [cold.execute(plan, mode) for _ in range(2)]
            compiled, kept = (warm.execute(plan, mode) for _ in range(2))
            recompiled = warm.execute(rebuilt[name].plan, mode)
            alone = fresh.execute(plan, mode)
            assert kept.cache.hits and not kept.cache.misses
            assert _replay(cold_runs[0]) == _replay(cold_runs[1])
            assert _replay(compiled) == _replay(alone), (name, mode)
            assert _replay(kept) == _replay(recompiled), (name, mode)
            assert len({repr(_timing(result)) for result in (
                *cold_runs, compiled, kept, recompiled, alone)}) == 1


class TestProgram:
    def test_compiled_by_the_first_execute_only(self, engine, q5,
                                                compile_calls):
        engine.plan(q5, "hybrid")
        engine.explain(q5, "hybrid")
        assert compile_calls == []
        first = engine.execute(q5, "hybrid")
        second = engine.execute(q5, "hybrid")
        assert compile_calls == [first.physical_plan]
        assert second.simulated_seconds == first.simulated_seconds

    @pytest.mark.parametrize("change", [
        lambda engine, dataset: engine.topology.fail_device("gpu0"),
        lambda engine, dataset: engine.register_table(
            dataset.tables["nation"], replace=True),
        lambda engine, dataset: engine.executor.retune(morsel_rows=977),
    ], ids=["fail_device", "register_replace", "retune"])
    def test_rebuilt_after_a_change(self, engine, q5, tpch_dataset,
                                    compile_calls, change):
        for _ in range(2):
            engine.execute(q5, "hybrid")
        change(engine, tpch_dataset)
        for _ in range(2):
            engine.execute(q5, "hybrid")
        assert len(compile_calls) == 2
        assert compile_calls[0] is not compile_calls[1]

    def test_rebuilt_after_a_restore(self, engine, q5, compile_calls):
        healthy = engine.execute(q5, "hybrid")
        engine.topology.fail_device("gpu0")
        failed = engine.execute(q5, "hybrid")
        engine.topology.restore_device("gpu0")
        restored = engine.execute(q5, "hybrid")
        assert len(compile_calls) == 3
        assert failed.device_busy.get("gpu0", 0.0) == 0.0
        assert restored.simulated_seconds == healthy.simulated_seconds
        assert restored.device_busy == healthy.device_busy

    @pytest.mark.parametrize("tracing", [False, True],
                             ids=["untraced", "traced"])
    def test_a_warm_execute_derives_nothing(self, engine, q5, tracing):
        """Once compiled and priced, an execution only looks up kernels and
        reserves clocks — or, all hits again, replays the timeline it
        kept: no chain is cut, no description made, no route searched,
        nothing estimated — and, traced, no plan walked: the span skeleton
        and the estimated report are on the record.  (The cold cpu run ran
        kernels and kept nothing, so the first profiled cpu run charges.)"""
        engine.tracing = tracing
        for mode in MODES:
            engine.execute(q5, mode)
        profile = cProfile.Profile()
        profile.enable()
        for _ in range(2):
            for mode in MODES:
                engine.execute(q5, mode)
        profile.disable()
        called = {(Path(path).name, name)
                  for path, _, name in pstats.Stats(profile).stats}
        derived = {(path, name) for path, name in called
                   if name in ("fused_chain", "route", "compile", "_chain",
                               "walk", "working_set")
                   or name.startswith("estimate_")
                   or (path == "descriptions.py" and name == "__init__")}
        assert not derived, derived
        assert ("clock.py", "reserve") in called
        assert ("topology.py", "restore_clocks") in called
        if tracing:
            assert ("descriptions.py", "advance") in called

    def test_a_dropped_session_frees_its_cache_at_once(self, tpch_dataset):
        """The records sit in a reference cycle (a plan's weak reference
        calls back into them); the program on them must not reach the
        executor strongly, or a dropped session's cache and catalog would
        wait for the cyclic GC."""
        engine = HAPEEngine(default_server())
        engine.register_dataset(tpch_dataset.tables)
        plan = build_query("Q5", tpch_dataset).plan
        engine.execute(plan, "hybrid")
        cache = weakref.ref(engine.executor.query_cache)
        gc.disable()
        try:
            del engine
            assert cache() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("cached", [False, True],
                             ids=["cache_off", "replayed"])
    def test_holds_no_batch(self, tpch_dataset, monkeypatch, cached):
        """What one execution makes — chain outputs, join indexes — is
        gone once it returns, or, with the cache on, once the cache drops
        it, although the program stays, with the timeline it kept."""
        engine = HAPEEngine(default_server(),
                            cache_budget_bytes=None if cached else 0)
        engine.register_dataset(tpch_dataset.tables)
        catalog = {id(values) for table in tpch_dataset.tables.values()
                   for values in table.arrays().values()}
        made: list[weakref.ref] = []

        class Build(descriptions.HashJoinBuild):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(weakref.ref(self))

        real_run = Executor._run

        def run(self, chain):
            batch = real_run(self, chain)
            made.extend(weakref.ref(values)
                        for values in batch.columns.values()
                        if id(values) not in catalog)
            return batch

        monkeypatch.setattr(descriptions, "HashJoinBuild", Build)
        monkeypatch.setattr(Executor, "_run", run)
        plan = build_query("Q5", tpch_dataset).plan
        # Cached: cold, then all hits (kept), then a replay.
        for _ in range(3):
            engine.execute(plan, "hybrid")
            if cached:
                continue
            gc.collect()
            assert made and all(ref() is None for ref in made)
            made.clear()
        program = engine._plan_records(plan).modes[ExecutionMode.HYBRID].program
        assert (program.replay is not None) == cached
        if cached:
            engine.clear_query_cache()
            gc.collect()
            assert made and all(ref() is None for ref in made)


    @pytest.mark.parametrize("drop", ["evicted", "invalidated", "cleared"])
    def test_the_kept_table_leaves_with_its_entry(self, tpch_dataset, drop):
        """A sorted root's result table is sorted once and kept on its
        source's cache entry, its sorted arrays charged to the entry's
        bytes; table and arrays are gone as soon as the entry is evicted,
        invalidated or cleared, and the byte ledger is the live entries'."""
        engine = _session(tpch_dataset)
        cache = engine.executor.query_cache
        plan = build_query("Q5", tpch_dataset).plan
        for _ in range(3):  # cold, all hits (keeps the table), a replay
            result = engine.execute(plan, "hybrid")
        program = engine._plan_records(plan).modes[ExecutionMode.HYBRID].program
        key, tag = program.output
        entry = cache._entries[key]
        assert result.table is entry.kept[tag]
        sorted_ = list(result.table.arrays().values())
        assert not {id(values) for values in sorted_} & {
            id(values) for values in entry.value[0].values()}
        assert entry.nbytes == result_nbytes(entry.value) + sum(
            values.nbytes for values in sorted_)
        assert cache.bytes_used == sum(
            live.nbytes for live in cache._entries.values())
        kept = [weakref.ref(result.table), *map(weakref.ref, sorted_)]
        del result, entry, sorted_
        if drop == "evicted":  # down to a budget no entry with bytes fits
            engine.cache_budget_bytes = 1
        elif drop == "invalidated":
            engine.register_table(tpch_dataset.tables["region"], replace=True)
        else:
            engine.clear_query_cache()
        assert key not in cache
        assert all(ref() is None for ref in kept)
        assert cache.bytes_used == sum(
            live.nbytes for live in cache._entries.values())


# ----------------------------------------------------------------------
# Replay: an all-hit execution restores the timeline its program kept
# ----------------------------------------------------------------------
@pytest.fixture
def reserves(monkeypatch):
    """The clock of every ``SimClock.reserve`` call."""
    calls: list[SimClock] = []
    original = SimClock.reserve

    def counting(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SimClock, "reserve", counting)
    return calls


def _charged(calls: list, topology) -> int:
    """How many of ``calls`` reserved per-query clocks of ``topology``
    (not its occupancy board); clears ``calls``."""
    clocks = {id(clock) for clock in topology.timeline()}
    charged = sum(id(clock) in clocks for clock in calls)
    calls.clear()
    return charged


def _charging(session: HAPEEngine) -> HAPEEngine:
    """``session``, made to charge every execution: its executor finds
    no timeline to replay."""
    session.executor._replay = lambda program: None
    return session


def _executed(result) -> tuple:
    """What one execution reports, in plan order (node ids differ between
    plannings)."""
    report = [(op.label, op.estimated_rows, op.actual_rows, op.q_error)
              for op in result.cardinality.operators]
    return ([(name, result.table.array(name).tobytes())
             for name in result.table.column_names],
            repr(result.simulated_seconds), result.device_busy,
            result.link_bytes, report, result.cache,
            result.morsels_dispatched, result.peak_intermediate_bytes,
            None if result.trace is None else result.trace.to_jsonl())


def _left(session: HAPEEngine) -> tuple:
    """What an execution leaves behind: the per-query timeline and the
    cache's LRU order."""
    return (session.topology.timeline().records(),
            list(session.executor.query_cache._entries))


@pytest.mark.parametrize("tracing", [False, True], ids=["untraced", "traced"])
def test_a_replay_equals_a_charged_execution(sf001, reserves, tracing):
    """Every TPC-H (query, mode), three rounds on one session and on a twin
    that charges every execution: an execution runs kernels or charges
    all hits (keeping the timeline) until its program replays — by the
    third round every one does, and reserves no clock — and every
    execution reports and leaves behind what its charged twin does."""
    queries = all_queries(sf001)
    sessions = []
    for _ in range(2):
        session = HAPEEngine(default_server(), tracing=tracing)
        session.register_dataset(sf001.tables)
        sessions.append(session)
    replaying, charged = sessions[0], _charging(sessions[1])
    reserved = []
    for round_ in range(3):
        for name in ("Q1", "Q5", "Q6", "Q9"):
            for mode in MODES:
                plan = queries[name].plan
                result = replaying.execute(plan, mode)
                reserved.append(_charged(reserves, replaying.topology))
                twin = charged.execute(plan, mode)
                assert _charged(reserves, charged.topology) > 0
                assert _executed(result) == _executed(twin), (name, mode)
                assert _left(replaying) == _left(charged), (name, mode)
    assert reserved[0] > 0 and reserved[24:] == [0] * 12


@pytest.mark.parametrize("position", ["first", "middle", "last"])
def test_a_replay_missing_a_key_leaves_what_a_charged_one_does(sf001,
                                                               position):
    """One kept key of Q5's replay evicted, the kept table still cached:
    ``get_all`` counts nothing and the execution charges, and the result,
    the counters and the LRU order are a charging twin's wherever the key
    stood among the kept lookups — the keys before it, which ``get_all``
    moved on its one walk, the charged walk moves again in the same
    order."""
    queries = all_queries(sf001)
    plan = queries["Q5"].plan
    sessions = []
    for _ in range(2):
        session = HAPEEngine(default_server())
        session.register_dataset(sf001.tables)
        sessions.append(session)
    replaying, charged = sessions[0], _charging(sessions[1])
    for session in sessions:  # cold, then all hits: the timeline is kept
        for _ in range(2):
            for name in ("Q1", "Q5", "Q6", "Q9"):
                session.execute(queries[name].plan, "hybrid")
    program = replaying._prepared(plan, ExecutionMode.HYBRID,
                                  compiled=True).program
    lookups = [key for key in program.replay.lookups
               if key != program.output[0]]
    key = {"first": lookups[0], "middle": lookups[len(lookups) // 2],
           "last": lookups[-1]}[position]
    assert _left(replaying) == _left(charged)
    for session in sessions:
        cache = session.executor.query_cache
        cache._bytes_used -= cache._entries.pop(key).nbytes
    result = replaying.execute(plan, "hybrid")
    twin = charged.execute(plan, "hybrid")
    assert result.cache.misses > 0
    assert _executed(result) == _executed(twin)
    assert _left(replaying) == _left(charged)
    assert replaying.cache_stats == charged.cache_stats


@pytest.mark.parametrize("tracing", [False, True], ids=["untraced", "traced"])
def test_a_served_replay_equals_a_charged_one(sf001, reserves, tracing):
    """The same on a server's shared cache: two tenants submit every
    (query, mode) for three epochs; the last epoch's executions all replay,
    and tickets, tenant attribution, LRU order and the epoch trace are a
    charging twin server's."""
    queries = all_queries(sf001)
    servers = []
    for _ in range(2):
        server = QueryServer(default_server(), tracing=tracing)
        server.register_dataset(sf001.tables)
        for tenant in ("a", "b"):
            server.open_session(tenant)
        servers.append(server)
    replaying, charged = servers
    for tenant in charged.tenants:
        _charging(charged.session(tenant))
    for epoch in range(3):
        reports = []
        for server in servers:
            for tenant in server.tenants:
                for name in ("Q1", "Q5", "Q6", "Q9"):
                    for mode in MODES:
                        server.submit(tenant, queries[name].plan, mode,
                                      label=f"{name}/{mode}")
            reports.append(server.run())
            reserved = _charged(reserves, server.topology)
            assert (reserved == 0) == (server is replaying and epoch == 2)
        mine, twin = reports
        assert [(ticket.tenant, ticket.label, ticket.cache, ticket.finish_time,
                 _executed(ticket.result)) for ticket in mine.tickets] == [
            (ticket.tenant, ticket.label, ticket.cache, ticket.finish_time,
             _executed(ticket.result)) for ticket in twin.tickets]
        assert mine.makespan == twin.makespan
        assert (replaying.query_cache.tenant_counters()
                == charged.query_cache.tenant_counters())
        assert (list(replaying.query_cache._entries)
                == list(charged.query_cache._entries))
        assert (replaying.topology.timeline().records()
                == charged.topology.timeline().records())
        if tracing:
            assert (replaying.last_trace.to_jsonl()
                    == charged.last_trace.to_jsonl())


def test_a_replayed_trace_is_read_only(engine, q5, reserves):
    """The replays of a kept program hand out the trace of the execution
    that kept it, so none can change it for a later one: a span's fields
    and attrs, the trace's mode, link bytes and spans refuse mutation,
    and the next replay's JSONL is the kept one's."""
    engine.tracing = True
    engine.execute(q5, "hybrid")
    kept = engine.execute(q5, "hybrid")
    _charged(reserves, engine.topology)
    trace = engine.execute(q5, "hybrid").trace
    assert _charged(reserves, engine.topology) == 0
    expected = kept.trace.to_jsonl()
    span = next(span for span in trace.spans if span.attrs)
    link = next(iter(trace.link_bytes))
    for error, mutate in (
            (dataclasses.FrozenInstanceError,
             lambda: setattr(span, "end", -1.0)),
            (dataclasses.FrozenInstanceError,
             lambda: setattr(trace, "mode", "cpu")),
            (TypeError, lambda: operator.setitem(span.attrs, "mutated", 1)),
            (TypeError, lambda: operator.setitem(trace.link_bytes, link, -1)),
            (AttributeError, lambda: trace.spans.pop())):
        with pytest.raises(error):
            mutate()
    assert engine.execute(q5, "hybrid").trace.to_jsonl() == expected


def test_a_timeline_kept_untraced_is_not_replayed_traced(engine, q5,
                                                          reserves):
    """A caller that keeps a program itself has no stamp to drop it when
    it re-tunes ``tracing``: the first traced execution charges (and
    records spans), the next replays them."""
    executor = engine.executor
    physical = engine.plan(q5, "hybrid")
    program = executor.compile(physical)
    for _ in range(3):
        executor.execute(physical, program)
    executor.retune(tracing=True)
    _charged(reserves, engine.topology)
    traced = executor.execute(physical, program)
    assert _charged(reserves, engine.topology) > 0 and traced.trace.spans
    replayed = executor.execute(physical, program)
    assert _charged(reserves, engine.topology) == 0
    assert replayed.trace.to_jsonl() == traced.trace.to_jsonl()


def _spy(monkeypatch, owner, name: str, calls: list,
         label: str | None = None) -> None:
    """Record ``label`` (default ``name``) in ``calls`` on every call of
    ``owner.name``."""
    original = owner.__dict__[name]

    def spying(*args, **kwargs):
        calls.append(label or name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spying)


def _rows_in_walk_order(result) -> list:
    """``operator_rows`` by plan-walk position (node ids differ between
    plannings)."""
    return [result.operator_rows.get(node.node_id)
            for node in result.physical_plan.walk()]


@pytest.mark.parametrize("tracing", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("mode", MODES)
def test_a_replay_walks_no_driver(sf001, monkeypatch, reserves, mode,
                                  tracing):
    """Every TPC-H query, replayed: no chain is run, no capacity checked
    and no kernel memo asked — yet the cache counters, the LRU order, the
    rows, morsels, peak bytes and cardinality report are those of a twin
    session that charges the same executions."""
    queries = all_queries(sf001)
    sessions = []
    for _ in range(2):
        session = HAPEEngine(default_server(), tracing=tracing)
        session.register_dataset(sf001.tables)
        sessions.append(session)
    replaying, charged = sessions[0], _charging(sessions[1])
    for session in sessions:  # cold, then all hits: the timeline is kept
        for _ in range(2):
            for name in ("Q1", "Q5", "Q6", "Q9"):
                session.execute(queries[name].plan, mode)
    walked: list[str] = []
    _spy(monkeypatch, Executor, "_run", walked)
    _spy(monkeypatch, Executor, "_memoized_kernel", walked)
    for kind in {descriptions.Operator, *descriptions.OPERATORS.values()}:
        if "check" in kind.__dict__:
            _spy(monkeypatch, kind, "check", walked)
    _charged(reserves, replaying.topology)
    for name in ("Q1", "Q5", "Q6", "Q9"):
        plan = queries[name].plan
        result = replaying.execute(plan, mode)
        assert _charged(reserves, replaying.topology) == 0, name
        assert walked == [], (name, walked)
        twin = charged.execute(plan, mode)
        assert {"_run", "_memoized_kernel", "check"} <= set(walked)
        walked.clear()
        # Morsels, peak bytes and the cardinality report are in _executed.
        assert _executed(result) == _executed(twin), name
        assert _rows_in_walk_order(result) == _rows_in_walk_order(twin)
        assert _left(replaying) == _left(charged), name
        assert replaying.cache_stats == charged.cache_stats, name


@pytest.mark.parametrize("mode, algorithm, gpus, factor", [
    ("hybrid", JoinAlgorithm.COPROCESSED_RADIX, ("gpu0", "gpu1"), 1e-7),
    ("gpu", JoinAlgorithm.RADIX_GPU, ("gpu0",), 3e-4),
], ids=["coprocessed", "radix_gpu"])
def test_a_replay_hides_no_refusal(sf001, monkeypatch, reserves, mode,
                                   algorithm, gpus, factor):
    """Q5 with its joins forced to partition: a replay sizes no
    partitioned join against GPU memory, and once the memory shrinks
    below the join's need the next execution charges and is refused
    exactly as a fresh session under the shrink is."""
    def session() -> HAPEEngine:
        engine = HAPEEngine(default_server(), optimizer_options=(
            OptimizerOptions(small_build_rows=500)))
        engine.register_dataset(sf001.tables)
        return engine

    sized: list[str] = []
    for name in ("ensure_copartitions_fit", "ensure_gpu_join_fits"):
        _spy(monkeypatch, descriptions, name, sized)
    engine, plan = session(), build_query("Q5", sf001).plan
    assert algorithm in {node.algorithm for node in
                         engine.plan(plan, mode).walk()
                         if isinstance(node, PJoin)}
    for _ in range(2):  # cold, then all hits: the timeline is kept
        engine.execute(plan, mode)
    assert sized
    sized.clear()
    _charged(reserves, engine.topology)
    engine.execute(plan, mode)
    assert _charged(reserves, engine.topology) == 0 and sized == []
    fresh = session()
    for topology in (engine.topology, fresh.topology):
        for gpu in gpus:
            topology.shrink_device_memory(gpu, factor)
    with pytest.raises(OutOfDeviceMemoryError) as refused:
        engine.execute(plan, mode)
    assert sized and _charged(reserves, engine.topology) > 0
    with pytest.raises(OutOfDeviceMemoryError) as alone:
        fresh.execute(plan, mode)
    assert str(refused.value) == str(alone.value)


@pytest.mark.parametrize("tracing", [False, True], ids=["untraced", "traced"])
def test_a_replay_builds_nothing(sf001, monkeypatch, reserves, tracing):
    """Every TPC-H query in every mode, named or as a member, replayed:
    no result table or column is built, nothing sorted, no timeline
    gathered, no task record sorted, no span or trace made and no mode
    parsed by walking the members — the replay hands out the table kept
    on the cache entry and, traced, the kept execution's trace."""
    engine = HAPEEngine(default_server(), tracing=tracing)
    engine.register_dataset(sf001.tables)
    queries = all_queries(sf001)
    runs = [(queries[name].plan, mode) for name in ("Q1", "Q5", "Q6", "Q9")
            for mode in (*MODES, *ExecutionMode)]
    for _ in range(2):  # cold, then all hits: the timeline is kept
        kept = [engine.execute(plan, mode) for plan, mode in runs]
    built: list[str] = []
    from_arrays = Table.from_arrays.__func__

    def spying(cls, *args, **kwargs):
        built.append("from_arrays")
        return from_arrays(cls, *args, **kwargs)

    monkeypatch.setattr(Table, "from_arrays", classmethod(spying))
    _spy(monkeypatch, Column, "__init__", built)
    _spy(monkeypatch, descriptions.Sort, "run", built)
    _spy(monkeypatch, np, "lexsort", built)
    _spy(monkeypatch, Topology, "timeline", built)
    _spy(monkeypatch, Timeline, "records", built)
    _spy(monkeypatch, Span, "__init__", built, "Span")
    _spy(monkeypatch, QueryTrace, "__init__", built, "QueryTrace")
    members = type(ExecutionMode).__iter__

    def walking(cls):
        if cls is ExecutionMode:
            built.append("walk")
        return members(cls)

    monkeypatch.setattr(type(ExecutionMode), "__iter__", walking)
    # The spies see what a charged execution builds and a bad mode walks.
    uncached = HAPEEngine(default_server(), tracing=tracing,
                          cache_budget_bytes=0)
    uncached.register_dataset(sf001.tables)
    uncached.execute(queries["Q5"].plan, "hybrid")
    with pytest.raises(ValueError):
        ExecutionMode.parse("tpu")
    expected = {"from_arrays", "__init__", "run", "lexsort", "timeline",
                "walk"} | ({"records", "Span", "QueryTrace"} if tracing
                           else set())
    assert set(built) == expected
    _charged(reserves, engine.topology)
    for (plan, mode), done in zip(runs, kept):
        built.clear()  # _charged gathers the topology's clocks itself
        result = engine.execute(plan, mode)
        assert built == [] and _charged(reserves, engine.topology) == 0
        assert result.table is done.table and result.trace is done.trace


def test_two_roots_over_one_entry_keep_two_tables(tpch_dataset, reserves):
    """Two plans sorting one scan differently keep one table each on the
    scan's entry, under their roots' keys: each replay hands out its own
    order, equal to an uncached session's."""
    plans = [scan("nation").order_by(keys)
             for keys in (["n_name"], ["n_regionkey", "n_nationkey"])]
    engine, uncached = (_session(tpch_dataset, cache_budget_bytes=budget)
                        for budget in (None, 0))
    for _ in range(3):
        for plan in plans:
            result = engine.execute(plan, "cpu")
            assert _executed(result)[0] == _executed(
                uncached.execute(plan, "cpu"))[0]
    assert _charged(reserves, engine.topology) > 0
    tables = [engine.execute(plan, "cpu").table for plan in plans]
    assert _charged(reserves, engine.topology) == 0
    assert tables[0] is not tables[1]
    assert tables[0].array("n_name").tobytes() != tables[1].array(
        "n_name").tobytes()


def test_a_replay_hands_out_copies(engine, q5, reserves):
    """The figures and rows a result hands out are its own: mutating one
    replay's (or the charged execution's) changes no later replay.  The
    table is shared, and read-only."""
    engine.execute(q5, "hybrid")
    kept = engine.execute(q5, "hybrid")
    _charged(reserves, engine.topology)
    first = engine.execute(q5, "hybrid")
    assert _charged(reserves, engine.topology) == 0
    expected = copy.deepcopy((_executed(first), first.operator_rows))
    for result in (kept, first):
        for figures in (result.device_busy, result.link_bytes,
                        result.operator_rows):
            figures[next(iter(figures))] = -1
            figures["mutated"] = 1
    second = engine.execute(q5, "hybrid")
    assert (_executed(second), second.operator_rows) == expected
    assert second.table is first.table is kept.table
    for name in second.table.column_names:
        values = second.table.array(name)
        with pytest.raises(ValueError, match="read-only"):
            values[0] = values[0]


#: Holds Q5's entries (24 KB at SF 0.005) and Q1's filtered lineitem
#: (1.44 MB) but not both.
EVICTING_BUDGET = 1_450_000


def _session(dataset, **knobs) -> HAPEEngine:
    knobs.setdefault("cache_budget_bytes", EVICTING_BUDGET)
    engine = HAPEEngine(default_server(), tracing=True, **knobs)
    engine.register_dataset(dataset.tables)
    return engine


def _evict(engine, dataset):
    """Another query's entry pushes some of Q5's out; no option moves, so
    the program and its timeline stay.  (A fresh session has nothing to
    evict.)"""
    before = engine.cache_stats
    engine.execute(build_query("Q1", dataset).plan, "cpu")
    assert engine.cache_stats.evicted > before.evicted or not before.entries


def _drop_and_register(engine, dataset):
    engine.drop_table("region")
    engine.register_table(dataset.tables["region"])


def _fail_run_restore(engine, dataset):
    engine.topology.fail_device("gpu0")
    engine.execute(build_query("Q5", dataset).plan, "hybrid")
    engine.topology.restore_device("gpu0")


@pytest.mark.parametrize("change", [
    _evict,
    lambda engine, dataset: engine.clear_query_cache(),
    lambda engine, dataset: engine.register_table(
        dataset.tables["nation"], replace=True),
    _drop_and_register,
    _fail_run_restore,
    lambda engine, dataset: engine.topology.shrink_device_memory("gpu0",
                                                                 0.5),
    lambda engine, dataset: engine.topology.degrade_link("pcie0", 0.25),
    lambda engine, dataset: setattr(engine, "tracing", False),
    lambda engine, dataset: setattr(engine, "morsel_rows", 977),
    lambda engine, dataset: setattr(engine, "cache_budget_bytes", 1 << 20),
], ids=["evicted", "clear_query_cache", "register_replace",
        "drop", "fail_and_restore", "shrink_memory", "degrade_link",
        "tracing", "morsel_rows", "cache_budget_bytes"])
@pytest.mark.parametrize("mode", MODES)
def test_no_replay_after_a_change(tpch_dataset, reserves, change, mode):
    """After anything that drops a cached entry or the program, the next
    execution charges and equals a fresh session's under the change."""
    engine = _session(tpch_dataset)
    plan = build_query("Q5", tpch_dataset).plan
    for _ in range(3):
        engine.execute(plan, mode)
    assert _charged(reserves, engine.topology) > 0
    engine.execute(plan, mode)
    assert _charged(reserves, engine.topology) == 0  # it replays
    change(engine, tpch_dataset)
    _charged(reserves, engine.topology)
    after = engine.execute(plan, mode)
    assert _charged(reserves, engine.topology) > 0
    fresh = _session(tpch_dataset)
    change(fresh, tpch_dataset)
    alone = fresh.execute(plan, mode)
    assert _executed(after)[:5] == _executed(alone)[:5]
    assert (None if after.trace is None else after.trace.timing_jsonl()) \
        == (None if alone.trace is None else alone.trace.timing_jsonl())
    assert (engine.topology.timeline().records()
            == fresh.topology.timeline().records())


@pytest.mark.parametrize("morsel_rows", [1 << 40, 977],
                         ids=["whole", "morsels"])
def test_a_cache_off_session_never_replays(tpch_dataset, reserves,
                                           morsel_rows):
    """With the cache off every execution runs kernels — counted as no
    miss, whether each batch is one morsel or streams in several — so
    none keeps or replays a timeline."""
    engine = _session(tpch_dataset, cache_budget_bytes=0,
                      morsel_rows=morsel_rows)
    plan = build_query("Q5", tpch_dataset).plan
    results = []
    for _ in range(3):
        results.append(engine.execute(plan, "hybrid"))
        assert _charged(reserves, engine.topology) > 0
    assert not any(result.cache.lookups for result in results)
    program = engine._plan_records(plan).modes[ExecutionMode.HYBRID].program
    assert program.replay is None
    assert len({repr(_executed(result)) for result in results}) == 1


# ----------------------------------------------------------------------
# The per-query overlay holds repeated subplans only
# ----------------------------------------------------------------------
class _OverlayWrites(dict):
    """A per-query overlay that records every key written into it."""

    def __init__(self, written: list) -> None:
        super().__init__()
        self.written = written

    def setdefault(self, key, default=None):
        self.written.append(key)
        return super().setdefault(key, default)

    def __setitem__(self, key, value):
        self.written.append(key)
        super().__setitem__(key, value)


@pytest.fixture
def overlay_writes(monkeypatch):
    """Per execution, the plan's occurrences of the structural key of every
    key written into its overlay (counted afresh from the plan, not read
    from the program; a written key's value is its structural key and
    tuning)."""
    executions: list[list[int]] = []
    original = Executor.execute

    def spying(self, plan, program=None):
        written: list = []
        self._query_memo = _OverlayWrites(written)
        try:
            return original(self, plan, program)
        finally:
            keys: dict = {}
            versions = self.catalog.table_versions
            occurrences = Counter(
                structural_key(node, keys, table_versions=versions)
                for node in plan.walk())
            executions.append([occurrences[key.value[0]]
                               for key in written])

    monkeypatch.setattr(Executor, "execute", spying)
    return executions


class TestOverlay:
    @pytest.mark.parametrize("mode", MODES)
    def test_no_single_occurrence_key_is_written(self, sf001, mode,
                                                 overlay_writes):
        engine = HAPEEngine(default_server())
        engine.register_dataset(sf001.tables)
        for name, query in all_queries(sf001).items():
            cold = engine.execute(query.plan, mode)
            warm = engine.execute(query.plan, mode)
            assert cold.cache.misses and warm.cache.hits, name
        assert len(overlay_writes) == 2 * len(all_queries(sf001))
        assert [count for written in overlay_writes for count in written
                if count < 2] == []

    @pytest.mark.parametrize("morsel_rows", [1 << 40, 7],
                             ids=["whole", "morsels"])
    @pytest.mark.parametrize("budget", [0, None])
    def test_a_repeated_subplan_runs_once(self, tpch_dataset, budget,
                                          morsel_rows, overlay_writes):
        """Two identical filtered scans share one evaluation through the
        overlay, cold and warm, with and without the session cache,
        whole-column or streamed in morsels."""
        engine = HAPEEngine(default_server(), cache_budget_bytes=budget,
                            morsel_rows=morsel_rows)
        engine.register_dataset(tpch_dataset.tables)

        def side():
            return scan("supplier", ["s_suppkey", "s_nationkey"]).filter(
                col("s_nationkey") >= lit(0))

        plan = side().join(side(), ["s_suppkey"], ["s_suppkey"])
        counts, rows = [], set()
        for _ in ("cold", "warm"):
            reset_kernel_counts()
            rows.add(engine.execute(plan, "cpu").table.num_rows)
            counts.append(kernel_counts().get("filter_project", 0))
        # Cold evaluates once; warm evaluates once more only when there is
        # no session cache to serve it.
        assert counts == [1, 1 if budget == 0 else 0]
        assert rows == {tpch_dataset.tables["supplier"].num_rows}
        assert [sorted(set(written)) for written in overlay_writes] == [
            [2], [2]]


# ----------------------------------------------------------------------
# Canonical cache keys: made and hashed once, at compile
# ----------------------------------------------------------------------
def _chain_keys(program) -> list[CacheKey]:
    """The key of every memoized chain of ``program``, top-down."""
    keys, chains = [], [program.root]
    while chains:
        chain = chains.pop()
        keys += [] if chain.key is None else [chain.key]
        chains += [op.build for op in chain.ops if op.build is not None]
        chains += [] if chain.source is None else [chain.source]
    return keys


def _program(session: HAPEEngine, plan, mode: str):
    return session._prepared(plan, ExecutionMode(mode), compiled=True).program


def _assert_one_object_per_value(programs) -> None:
    """Equal keys among those the programs hold are one object."""
    canonical: dict[CacheKey, CacheKey] = {}
    for program in programs:
        for key in [*_chain_keys(program), *program.output]:
            assert isinstance(key, CacheKey)
            assert canonical.setdefault(key, key) is key, key


class TestCanonicalKeys:
    def test_the_modes_of_a_query_share_one_key_object(self, sf001):
        """The cpu, hybrid and gpu programs of each TPC-H query, compiled
        in one session: a subplan and tuning are one key object, and the
        three lowerings share every chain key."""
        engine = HAPEEngine(default_server())
        engine.register_dataset(sf001.tables)
        for name, query in all_queries(sf001).items():
            programs = [_program(engine, query.plan, mode) for mode in MODES]
            _assert_one_object_per_value(programs)
            cpu, hybrid, gpu = (set(map(id, _chain_keys(program)))
                                for program in programs)
            assert cpu and cpu == hybrid == gpu, name

    def test_tenant_sessions_share_one_key_object(self, sf001):
        """Two tenant sessions of one server compile their programs
        against its shared cache: each (query, mode) is two programs
        holding the same key objects."""
        server = QueryServer(default_server())
        server.register_dataset(sf001.tables)
        for tenant in ("a", "b"):
            server.open_session(tenant)
        a, b = map(server.session, ("a", "b"))
        for query in all_queries(sf001).values():
            for mode in MODES:
                mine, theirs = (_program(session, query.plan, mode)
                                for session in (a, b))
                assert mine is not theirs
                assert list(map(id, _chain_keys(mine))) == list(
                    map(id, _chain_keys(theirs)))
                assert list(map(id, mine.output)) == list(
                    map(id, theirs.output))

    def test_a_recompiled_program_meets_the_cached_key_objects(
            self, engine, q5):
        """A record dropped by a re-tune compiles again to the key objects
        its cache entries hold, and its execution hits every one."""
        engine.execute(q5, "hybrid")
        before = _program(engine, q5, "hybrid")
        engine.morsel_rows = 977
        after = _program(engine, q5, "hybrid")
        assert after is not before
        assert list(map(id, _chain_keys(after))) == list(
            map(id, _chain_keys(before)))
        assert {id(key) for key in engine.executor.query_cache._entries} \
            == set(map(id, _chain_keys(after)))
        assert engine.execute(q5, "hybrid").cache.misses == 0

    def test_a_replay_compares_and_derives_no_key(self, sf001, monkeypatch,
                                                  reserves):
        """Every (query, mode) replayed: ``get_all`` and ``kept`` hit on
        identity — no Python-level key comparison runs — and no
        structural key is built; a fresh key of an equal value, by
        contrast, is compared."""
        engine = HAPEEngine(default_server())
        engine.register_dataset(sf001.tables)
        queries = all_queries(sf001)
        for _ in range(2):  # cold, then all hits: the timelines are kept
            for query in queries.values():
                for mode in MODES:
                    engine.execute(query.plan, mode)
        calls: list[str] = []

        def comparing(key, other):
            calls.append("__eq__")
            return frozenset.__eq__(key, other)

        monkeypatch.setattr(CacheKey, "__eq__", comparing)
        for module in (executor_module, physical_module):
            _spy(monkeypatch, module, "structural_key", calls)
        _spy(monkeypatch, QueryCache, "get_all", calls)
        _spy(monkeypatch, QueryCache, "kept", calls)
        _charged(reserves, engine.topology)
        for name, query in queries.items():
            for mode in MODES:
                engine.execute(query.plan, mode)
                assert _charged(reserves, engine.topology) == 0, name
                assert calls == ["kept", "get_all"], (name, mode, calls)
                calls.clear()
        cache = engine.executor.query_cache
        key = next(iter(cache._entries))
        assert cache.get(CacheKey(key.value)) is not None
        assert "__eq__" in calls

    def test_a_replaced_table_gives_new_keys(self, tpch_dataset):
        """``register(replace=True)`` invalidates exactly the entries that
        read the table; the recompiled program holds new keys — unequal to
        the old ones — for the chains that read it and the old objects for
        the rest, and misses exactly the new ones."""
        engine = HAPEEngine(default_server())
        engine.register_dataset(tpch_dataset.tables)
        plan = build_query("Q5", tpch_dataset).plan
        for _ in range(2):
            engine.execute(plan, "hybrid")
        cache = engine.executor.query_cache
        old = _program(engine, plan, "hybrid")
        stale = [key for key, entry in cache._entries.items()
                 if "nation" in entry.tables]
        invalidated = cache.stats().invalidated
        engine.register_table(tpch_dataset.tables["nation"], replace=True)
        assert stale and cache.stats().invalidated == invalidated + len(stale)
        assert not set(stale) & set(cache._entries)
        new, fresh = _program(engine, plan, "hybrid"), 0
        old_keys, new_keys = _chain_keys(old), _chain_keys(new)
        assert len(old_keys) == len(new_keys)
        for before, after in zip(old_keys, new_keys):
            if before in stale:
                assert after != before and after not in old_keys
                fresh += 1
            else:
                assert after is before
        assert fresh == len(stale)
        assert engine.execute(plan, "hybrid").cache.misses == fresh

    def test_no_key_outlives_its_programs_and_entries(self, sf001):
        """The cache's table of keys holds none: once the plans (and with
        them their programs) and the entries are gone, so is every key."""
        engine = HAPEEngine(default_server())
        engine.register_dataset(sf001.tables)
        plans = [query.plan for query in all_queries(sf001).values()]
        for _ in range(3):  # cold, all hits, replays
            for plan in plans:
                for mode in MODES:
                    engine.execute(plan, mode)
        cache = engine.executor.query_cache
        keys = [weakref.ref(key) for key in cache._keys.values()]
        assert keys and len(keys) == len(cache._keys)
        engine.clear_query_cache()
        gc.collect()
        assert all(key() is not None for key in keys)  # the programs'
        del plans, plan
        gc.collect()
        assert [key() for key in keys if key() is not None] == []
        assert len(cache._keys) == 0


# ----------------------------------------------------------------------
# Bounded by live plans
# ----------------------------------------------------------------------
def test_records_are_bounded_by_live_plans():
    engine = HAPEEngine(default_server())
    engine.register_table(Table.from_arrays("t", {
        "k": np.arange(64, dtype=np.int64),
        "v": np.arange(64, dtype=np.float64)}))
    kept = scan("t").filter(col("k") > lit(-1))
    engine.execute(kept, "cpu")
    for cutoff in range(500):
        plan = (scan("t").filter(col("k") > lit(cutoff % 64))
                .aggregate([], [agg_sum(col("v"), "s")]))
        engine.execute(plan, "cpu")
        del plan
    gc.collect()
    _, records = engine._records
    assert list(records) == [id(kept)]
    assert engine.execute(kept, "cpu").table.num_rows == 64


# ----------------------------------------------------------------------
# The submit path reads the record
# ----------------------------------------------------------------------
@pytest.fixture
def estimator_calls(monkeypatch):
    """Every ``estimate_nodes`` / ``working_set`` call, by name."""
    calls: list[str] = []
    for name in ("estimate_nodes", "working_set"):
        original = getattr(CardinalityEstimator, name)

        def counting(self, *args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(CardinalityEstimator, name, counting)
    return calls


TENANTS = (("cpu-a", "cpu"), ("gpu-a", "gpu"), ("cpu-b", "cpu"),
           ("gpu-b", "gpu"))


def _served(tpch_dataset, tenants=TENANTS) -> QueryServer:
    server = QueryServer(default_server())
    server.register_dataset(tpch_dataset.tables)
    for tenant, _ in tenants:
        server.open_session(tenant, max_concurrency=1, max_queue_depth=64)
    return server


def test_admission_estimates_are_unchanged(tpch_dataset):
    """Admission charges what a fresh estimate per submit would, also
    after a replaced table (another row count) and a failed and restored
    GPU: the stamp drops the kept working set with the rest."""
    queries = all_queries(tpch_dataset)
    server = _served(tpch_dataset)
    orders = tpch_dataset.tables["orders"]
    changes = [
        lambda: None, lambda: None,
        lambda: server.register_table(
            orders.slice(0, orders.num_rows // 3), replace=True),
        lambda: server.topology.fail_device("gpu0"),
        lambda: server.topology.restore_device("gpu0"),
        lambda: server.register_table(orders, replace=True),
    ]
    for epoch, change in enumerate(changes):
        change()
        # What admission charged before records: a fresh estimate.
        estimator = CardinalityEstimator(server.catalog)
        expected = {}
        for name, query in queries.items():
            working_set = estimator.working_set(query.plan)
            assert working_set.backed
            expected[name] = working_set.total_bytes
        tickets = [server.submit(tenant, query.plan, mode,
                                 label=f"{name}/{mode}")
                   for _ in range(2) for tenant, mode in TENANTS
                   for name, query in queries.items()]
        server.run()
        for ticket in tickets:
            assert ticket.status == "completed"
            assert ticket.estimated_bytes == expected[
                ticket.label.split("/")[0]], (epoch, ticket.label)
        if epoch == 0:
            healthy = expected
        elif epoch == 2:  # the replaced table moved the working sets
            assert expected != healthy


def test_a_resubmitted_plan_is_neither_estimated_nor_folded(
        tpch_dataset, estimator_calls):
    queries = all_queries(tpch_dataset)
    server = _served(tpch_dataset)

    def epoch():
        for tenant, mode in TENANTS:
            for name, query in queries.items():
                server.submit(tenant, query.plan, mode, label=name)
        return server.run()

    epoch()
    assert estimator_calls
    estimator_calls.clear()
    assert epoch().completed == len(TENANTS) * len(queries)
    assert estimator_calls == []


class TestAutoReadsTheRecord:
    def test_a_repeated_auto_execute_estimates_nothing(
            self, sf001, estimator_calls):
        engine = HAPEEngine(default_server())
        engine.register_dataset(sf001.tables)
        queries = all_queries(sf001)
        for query in queries.values():
            engine.execute(query.plan, "auto")
        estimator_calls.clear()
        for query in queries.values():
            engine.execute(query.plan, "auto")
            engine.resolve_mode(query.plan, "auto")
        assert estimator_calls == []

    def test_a_repeated_auto_dispatch_estimates_nothing(
            self, tpch_dataset, estimator_calls):
        queries = all_queries(tpch_dataset)
        server = _served(tpch_dataset, (("auto", "auto"),))

        def epoch():
            tickets = [server.submit("auto", query.plan, "auto", label=name)
                       for name, query in queries.items()]
            server.run()
            return [ticket.final_mode for ticket in tickets]

        modes = epoch()
        estimator_calls.clear()
        assert epoch() == modes
        assert estimator_calls == []

    def test_the_chosen_modes_are_a_fresh_sessions(self, sf001):
        """The mode read from the record is the one a fresh session — and
        the optimizer over a fresh working set — picks."""
        kept = HAPEEngine(default_server())
        kept.register_dataset(sf001.tables)
        queries = all_queries(sf001)
        for query in queries.values():
            kept.execute(query.plan, "auto")
        for name in ("Q1", "Q5", "Q6", "Q9"):
            fresh = HAPEEngine(default_server())
            fresh.register_dataset(sf001.tables)
            plan = all_queries(sf001)[name].plan
            estimator = CardinalityEstimator(fresh.catalog)
            chosen = kept.resolve_mode(queries[name].plan, "auto")
            assert chosen is fresh.resolve_mode(plan, "auto")
            assert chosen is fresh.optimizer.choose_mode(
                plan, estimator.working_set(plan))


# ----------------------------------------------------------------------
# The health fingerprint
# ----------------------------------------------------------------------
class TestHealthFingerprint:
    @pytest.mark.parametrize("change, undo", [
        (lambda t: t.device("gpu1").fail(), lambda t: t.device("gpu1").restore()),
        (lambda t: t.device("gpu0").shrink_memory(0.5),
         lambda t: t.device("gpu0").restore_memory()),
        (lambda t: t.degrade_link("pcie1", 0.25),
         lambda t: t.restore_link("pcie1")),
    ], ids=["health", "memory", "bandwidth"])
    def test_read_from_the_devices_and_links(self, topology, change, undo):
        healthy = topology.health_fingerprint()
        change(topology)
        assert topology.health_fingerprint() != healthy
        undo(topology)
        assert topology.health_fingerprint() == healthy

    def test_a_route_follows_the_bandwidth(self):
        topology = default_server(num_cpus=2, num_gpus=1)
        topology.connect("cpu1", "gpu0", pcie3_x16("pcie9"))

        def hops():
            return [link.name for link in topology.route("cpu1",
                                                         "gpu0").links]

        assert hops() == ["pcie9"]
        topology.degrade_link("pcie9", 0.25)  # a detour is now cheaper
        assert hops() == ["qpi01", "pcie0"]
        topology.restore_link("pcie9")
        assert hops() == ["pcie9"]
