"""Tests for the executor internals, the engine facade and the OpCost type."""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from repro.engine import ExecutorOptions, HAPEEngine, OptimizerOptions
from repro.engine.session import SESSION_KNOBS
from repro.errors import CatalogError
from repro.hardware import DeviceKind, default_server
from repro.operators import OpCost
from repro.relational import agg_sum, col, lit, scan
from repro.storage import Table, generate_tpch
from repro.workloads import build_query


class TestOpCost:
    def test_add_and_merge(self):
        cost = OpCost().add("scan", 1.0).add("probe", 2.0)
        other = OpCost().add("scan", 0.5)
        cost.merge(other)
        assert cost.seconds == pytest.approx(3.5)
        assert cost.breakdown["scan"] == pytest.approx(1.5)

    def test_scaled(self):
        cost = OpCost().add("scan", 2.0).add("probe", 4.0)
        half = cost.scaled(0.5)
        assert half.seconds == pytest.approx(3.0)
        assert cost.seconds == pytest.approx(6.0)

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            OpCost().add("x", -1.0)
        with pytest.raises(ValueError):
            OpCost().scaled(-0.1)


#: knob -> (accepted values with the value read back, rejected values).
KNOBS = {
    # A non-integer morsel size used to pass construction and kill the
    # first execute with a bare TypeError; ``True`` ran one-row morsels.
    "morsel_rows": ([(123, 123), (1 << 40, 1 << 40)],
                    [0, 2.5, 1000.0, "7", True, None]),
    "cache_budget_bytes": ([(4096, 4096), (None, None), (0, 0)], [-1]),
    "tracing": ([(True, True)], [1]),
}


def _by_keyword(knob, value):
    return HAPEEngine(default_server(), **{knob: value})


def _by_options_record(knob, value):
    return HAPEEngine(default_server(),
                      executor_options=ExecutorOptions(**{knob: value}))


def _by_assignment(knob, value):
    engine = HAPEEngine(default_server())
    setattr(engine, knob, value)
    return engine


DOORS = [_by_keyword, _by_options_record, _by_assignment]


@pytest.mark.parametrize("door", DOORS, ids=lambda door: door.__name__)
@pytest.mark.parametrize("knob", KNOBS)
class TestKnobSurface:
    """Every knob behaves the same through every way of setting it."""

    def test_round_trips_with_derived_state_in_step(self, knob, door):
        for value, expected in KNOBS[knob][0]:
            engine = door(knob, value)
            executor = engine.executor
            assert getattr(engine, knob) == expected
            assert getattr(executor.options, knob) == expected
            assert (executor.query_cache.budget_bytes
                    == executor.options.cache_budget_bytes)

    def test_rejects_bad_value(self, knob, door):
        for bad in KNOBS[knob][1]:
            with pytest.raises(ValueError):
                door(knob, bad)


def _server(topology, **kwargs):
    from repro.server import QueryServer
    return QueryServer(topology, **kwargs)


#: The two constructors that keep a one-value ``workers`` keyword.
BUILDERS = [pytest.param(HAPEEngine, id="session"),
            pytest.param(_server, id="server")]


class TestKnobOwnership:
    def test_the_session_knobs_are_three(self):
        """Chains always fuse and a morsel is always a row count: there
        is no fusion knob and no unbatched ``morsel_rows``."""
        assert SESSION_KNOBS == ("morsel_rows", "cache_budget_bytes",
                                 "tracing")
        with pytest.raises(TypeError, match="pipeline_fusion"):
            HAPEEngine(default_server(), pipeline_fusion=True)
        session = HAPEEngine(default_server())
        with pytest.raises(ValueError, match="morsel_rows"):
            session.morsel_rows = None

    def test_workers_is_not_a_knob(self):
        """One thread drives a session or a server: ``workers`` is no
        session knob and no session attribute."""
        assert "workers" not in SESSION_KNOBS
        assert not hasattr(HAPEEngine(default_server(), workers=1), "workers")
        assert not hasattr(_server(default_server(), workers=1), "workers")

    @pytest.mark.parametrize("bad", [0, 2, -2, 4, 1.5, "auto", "1"],
                             ids=repr)
    @pytest.mark.parametrize("build", BUILDERS)
    def test_any_worker_count_but_one_is_refused(self, build, bad):
        with pytest.raises(ValueError, match="workers must be 1"):
            build(default_server(), workers=bad)

    @pytest.mark.parametrize("build", BUILDERS)
    def test_one_worker_is_the_default(self, build):
        """``workers=1`` builds the same serial session or server as no
        keyword: equal results and simulated seconds."""
        tiny_table = Table.from_arrays("tiny", {
            "k": np.arange(16, dtype=np.int64)})

        def run(**kwargs):
            built = build(default_server(), **kwargs)
            if isinstance(built, HAPEEngine):
                built.register_table(tiny_table)
                result = built.execute(scan("tiny"), "cpu")
                return result.table.num_rows, result.simulated_seconds
            built.register_dataset({"tiny": tiny_table})
            built.open_session("t")
            ticket = built.submit("t", scan("tiny"), "cpu")
            built.run()
            return ticket.result.table.num_rows, ticket.simulated_seconds

        assert run(workers=1) == run()

    def test_failed_assignment_keeps_the_value_in_force(self):
        engine = HAPEEngine(default_server(), morsel_rows=77)
        with pytest.raises(ValueError):
            engine.morsel_rows = -1
        assert engine.morsel_rows == 77

    @pytest.mark.parametrize("rows", [500, 7])
    def test_retuned_morsel_rows_drives_the_next_execute(self, tpch_dataset,
                                                         rows):
        plan = build_query("Q5", tpch_dataset).plan

        def session(**knobs):
            engine = HAPEEngine(default_server(), cache_budget_bytes=0,
                                **knobs)
            engine.register_dataset(tpch_dataset.tables)
            return engine

        live = session()
        before = live.execute(plan, "hybrid").morsels_dispatched
        live.executor.retune(morsel_rows=rows)
        after = live.execute(plan, "hybrid").morsels_dispatched
        fresh = session(morsel_rows=rows).execute(plan, "hybrid")
        assert after == fresh.morsels_dispatched != before

    def test_unknown_keyword_is_a_type_error(self):
        with pytest.raises(TypeError, match="hybrid_overhead"):
            HAPEEngine(default_server(), hybrid_overhead=0.5)
        # The hybrid overheads are constants of the cost model, not knobs:
        # every option left is a session knob.
        with pytest.raises(TypeError, match="hybrid_overhead"):
            ExecutorOptions(hybrid_overhead=0.5)
        assert {field.name for field in fields(ExecutorOptions)} == set(KNOBS)

    def test_shared_cache_tenant_cannot_tune_the_cache(self):
        from repro.server import QueryServer

        server = QueryServer(default_server())
        session = server.open_session("tenant")
        with pytest.raises(ValueError, match="server-owned"):
            session.cache_budget_bytes = 123
        with pytest.raises(ValueError, match="server-owned"):
            HAPEEngine(server.topology, catalog=server.catalog,
                       query_cache=server.query_cache, cache_budget_bytes=123)
        # The options mirror the server's cache, and other knobs stay free.
        assert session.cache_budget_bytes == server.query_cache.budget_bytes
        session.morsel_rows = 99
        assert session.morsel_rows == 99

    def test_bad_morsel_rows_cannot_reach_a_served_epoch(self, tpch_dataset):
        """A float morsel size used to be accepted, blow up inside the
        first kernel with a bare ``TypeError`` — which the serving loop
        does not catch — and abort the epoch for every tenant."""
        from repro.server import QueryServer

        server = QueryServer(default_server())
        server.register_dataset(tpch_dataset.tables)
        plan = build_query("Q6", tpch_dataset).plan
        session = server.open_session("a")
        with pytest.raises(ValueError, match="morsel_rows"):
            session.morsel_rows = 1000.0
        tickets = [server.submit(tenant, plan, "cpu") for tenant in "ab"]
        server.run()
        assert [ticket.status for ticket in tickets] == ["completed"] * 2


class TestExecutorBehaviour:
    def test_consecutive_queries_reset_the_timeline(self, engine, tpch_dataset):
        query = build_query("Q6", tpch_dataset)
        first = engine.execute(query.plan, "hybrid").simulated_seconds
        second = engine.execute(query.plan, "hybrid").simulated_seconds
        assert second == pytest.approx(first, rel=1e-6)

    def test_link_bytes_accounted_per_link(self, engine, tpch_dataset):
        result = engine.execute(build_query("Q1", tpch_dataset).plan, "gpu")
        assert result.link_bytes.get("pcie0", 0) > 0
        assert result.link_bytes.get("pcie1", 0) > 0

    def test_busy_fraction_bounded(self, engine, tpch_dataset):
        plan = build_query("Q5", tpch_dataset).plan
        # The session's result and the executor's own are one record.
        for result in (engine.execute(plan, "hybrid"),
                       engine.executor.execute(engine.plan(plan, "cpu"))):
            for resource in result.device_busy:
                assert 0.0 <= result.busy_fraction(resource) <= 1.0 + 1e-9


class TestEngineFacade:
    def test_register_table_and_replace(self):
        engine = HAPEEngine(default_server())
        table = Table.from_arrays("t", {"a": np.arange(5)})
        engine.register_table(table)
        with pytest.raises(Exception):
            engine.register_table(table)
        engine.register_table(table, replace=True)
        plan = scan("t").aggregate([], [agg_sum(col("a"), "s")])
        assert engine.execute(plan, "cpu").table.array("s")[0] == 10

    def test_default_topology_is_paper_testbed(self):
        engine = HAPEEngine()
        assert len(engine.topology.cpus()) == 2
        assert len(engine.topology.gpus()) == 2

    def test_plan_and_pipelines_exposed_in_result(self, engine, tpch_dataset):
        result = engine.execute(build_query("Q6", tpch_dataset).plan, "hybrid")
        assert result.physical_plan is not None
        assert len(result.pipelines) >= 2
        assert result.mode.value == "hybrid"


class TestUnregisteredTables:
    """A plan over a table nobody registered is the catalog's error —
    whatever its shape, mode or the optimizer's estimation source."""

    @pytest.mark.parametrize("mode", ["cpu", "gpu", "hybrid", "auto"])
    @pytest.mark.parametrize("use_statistics", [True, False])
    def test_scan_and_join_raise_catalog_error(self, tpch_dataset, mode,
                                               use_statistics):
        engine = HAPEEngine(default_server(), optimizer_options=
                            OptimizerOptions(use_statistics=use_statistics))
        engine.register_dataset(tpch_dataset.tables)
        lone = scan("nowhere")
        joined = scan("lineitem", ["l_orderkey"]).join(
            scan("nowhere"), ["l_orderkey"], ["k"])
        for plan in (lone, joined, joined.filter(col("k") > lit(1))):
            with pytest.raises(CatalogError, match="unknown table 'nowhere'"):
                engine.execute(plan, mode)


class TestOptimizerOptions:
    def test_estimate_rows_discounts_filters(self, engine):
        estimator = engine.optimizer.estimator
        base = estimator.estimate_rows(scan("lineitem"))
        filtered = estimator.estimate_rows(
            scan("lineitem").filter(col("l_quantity") < lit(10.0)))
        assert filtered < base

    def test_gpu_only_rejects_oversized_builds(self, tpch_dataset):
        from repro.errors import OptimizerError
        from repro.hardware import gtx_1080
        tiny_gpu = gtx_1080().with_memory_capacity(64 * 1024)
        topology = default_server(gpu_spec=tiny_gpu)
        engine = HAPEEngine(topology)
        engine.register_dataset(tpch_dataset.tables)
        plan = scan("orders").join(
            scan("lineitem", ["l_orderkey", "l_extendedprice"]),
            ["o_orderkey"], ["l_orderkey"]).aggregate(
                [], [agg_sum(col("l_extendedprice"), "s")])
        with pytest.raises(OptimizerError):
            engine.plan(plan, "gpu")
