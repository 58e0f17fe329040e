"""Tests for logical plans, the reference executor, traits and pipelines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codegen import break_into_pipelines, pipelines_per_device
from repro.errors import PlanError
from repro.hardware import DeviceKind
from repro.relational import (
    Traits,
    agg_count,
    agg_sum,
    col,
    count_operators,
    cpu_traits,
    execute_logical,
    gpu_traits,
    lit,
    scan,
)
from repro.storage import Catalog, Table


@pytest.fixture
def catalog():
    catalog = Catalog()
    catalog.register(Table.from_arrays("t", {
        "k": np.asarray([1, 2, 3, 4, 5, 6], dtype=np.int64),
        "g": np.asarray([0, 0, 1, 1, 2, 2], dtype=np.int64),
        "v": np.asarray([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
    }))
    catalog.register(Table.from_arrays("d", {
        "k": np.asarray([2, 4, 6], dtype=np.int64),
        "label": np.asarray([20, 40, 60], dtype=np.int64),
    }))
    return catalog


class TestLogicalPlansAndReference:
    def test_filter_project_aggregate(self, catalog):
        plan = (scan("t")
                .filter(col("v") > lit(1.0))
                .project({"g": col("g"), "v2": col("v") * lit(2.0)})
                .aggregate(["g"], [agg_sum(col("v2"), "s"), agg_count("n")]))
        result = execute_logical(plan, catalog)
        by_group = dict(zip(result.array("g").tolist(), result.array("s").tolist()))
        assert by_group == {0: 4.0, 1: 14.0, 2: 22.0}

    def test_join_and_order(self, catalog):
        plan = (scan("t").join(scan("d"), ["k"], ["k"])
                .project({"k": col("k"), "label": col("label")})
                .order_by(["k"]))
        result = execute_logical(plan, catalog)
        assert result.array("k").tolist() == [2, 4, 6]
        assert result.array("label").tolist() == [20, 40, 60]

    def test_plan_introspection(self):
        plan = scan("t").filter(col("v") > lit(0)).join(scan("d"), ["k"], ["k"])
        assert plan.referenced_tables() == {"t", "d"}
        assert "Join" in plan.pretty()
        assert len(list(plan.walk())) == 4

    def test_invalid_plans_rejected(self):
        with pytest.raises(PlanError):
            scan("t").join(scan("d"), [], [])
        with pytest.raises(PlanError):
            scan("t").aggregate(["g"], [])
        with pytest.raises(PlanError):
            scan("t").project({})


class TestTraits:
    def test_trait_converters(self):
        traits = cpu_traits(parallelism=2)
        assert traits.with_device(DeviceKind.GPU).device is DeviceKind.GPU
        assert traits.with_parallelism(4).parallelism == 4
        assert traits.with_locality("gpu1").locality == "gpu1"
        assert "dop=2" in traits.describe()

    def test_invalid_parallelism(self):
        with pytest.raises(ValueError):
            Traits(parallelism=0)

    def test_gpu_traits_helper(self):
        assert gpu_traits().device is DeviceKind.GPU


class TestPipelines:
    def test_fused_chain_is_one_pipeline(self, engine, tpch_dataset):
        from repro.workloads import tpch_q6
        physical = engine.plan(tpch_q6(tpch_dataset).plan, "cpu")
        pipelines = break_into_pipelines(physical)
        assert len(pipelines) >= 3  # scan, parallel pipeline, final aggregate
        histogram = pipelines_per_device(pipelines)
        assert DeviceKind.CPU in histogram

    def test_gpu_plan_has_gpu_pipelines(self, engine, tpch_dataset):
        from repro.workloads import tpch_q6
        physical = engine.plan(tpch_q6(tpch_dataset).plan, "gpu")
        histogram = pipelines_per_device(break_into_pipelines(physical))
        assert histogram.get(DeviceKind.GPU, 0) >= 1
        ops = count_operators(physical)
        assert ops.get("MemMove", 0) >= 1
        assert ops.get("DeviceCrossing", 0) >= 1

    def test_breakers_only_start_pipelines(self, engine, tpch_dataset):
        from repro.relational import PAggregate, PJoin, PSort
        from repro.workloads import build_query
        physical = engine.plan(build_query("Q5", tpch_dataset).plan, "cpu")
        pipelines = break_into_pipelines(physical)
        assert pipelines
        for pipeline in pipelines:
            # A breaker's output stream starts a pipeline; it never sits
            # downstream of the source inside one.
            assert not any(isinstance(op, (PAggregate, PJoin, PSort))
                           for op in pipeline.operators[1:])

    def test_streams_morsels_is_the_execution_split(self, engine,
                                                    tpch_dataset):
        """What the driver streams: filter/projects, exchanges and plain
        hash-join probes.  Sources and everything that needs its input
        whole — or emits build-major order — do not."""
        from repro.codegen import streams_morsels
        from repro.relational import (JoinAlgorithm, PAggregate,
                                      PFilterProject, PJoin, PScan)
        from repro.workloads import build_query
        ops = [op for query in ("Q5", "Q9")
               for op in engine.plan(build_query(query, tpch_dataset).plan,
                                     "hybrid").walk()]
        joins = [op for op in ops if isinstance(op, PJoin)]
        assert joins and any(op.is_exchange() for op in ops)
        for op in ops:
            if isinstance(op, PFilterProject) or op.is_exchange():
                assert streams_morsels(op)
            elif isinstance(op, (PScan, PAggregate)):
                assert not streams_morsels(op)
        for join in joins:
            assert streams_morsels(join) == (
                join.algorithm is JoinAlgorithm.NON_PARTITIONED
                and not join.swapped)
