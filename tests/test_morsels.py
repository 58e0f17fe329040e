"""Morsel-driven batched execution.

Three layers of guarantees:

* the storage primitives (:mod:`repro.storage.morsel`) carve zero-copy
  morsels and reassemble them — with no copy at all when a stream
  round-trips a resident batch;
* every operator kernel is morsel-transparent: outputs *and* stats are
  bit-identical for any ``morsel_rows``, including the edge cases (morsels
  larger than the input, exactly one row, a non-divisor of the row count,
  and empty inputs);
* the engine is morsel-invariant: for every morsel setting the results
  match the reference executor, simulated seconds are unchanged bit for
  bit, and the single-evaluation kernel memo keeps working across morsel
  boundaries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.codegen import break_into_pipelines, is_streaming_operator
from repro.engine import HAPEEngine, Session
from repro.hardware import default_server
from repro.operators import (
    AggregateMorselSink,
    HashJoinBuild,
    cpu_radix_join_kernel,
    filter_project_kernel,
    gpu_partitioned_join_kernel,
    hash_aggregate_kernel,
    hash_join_kernel,
    kernel_counts,
    reset_kernel_counts,
)
from repro.relational import (
    PFilterProject,
    PScan,
    agg_avg,
    agg_count,
    agg_sum,
    col,
    execute_logical,
    lit,
    scan,
)
from repro.storage import (
    DEFAULT_MORSEL_ROWS,
    MorselSink,
    concat_columns,
    iter_morsels,
    morsel_count,
)
from repro.workloads import build_query

#: The edge cases the morsel machinery must be transparent for: one row at
#: a time, a non-divisor of typical row counts, and larger than any input.
EDGE_MORSEL_ROWS = (1, 7, 977, 10**9)


def _random_columns(num_rows: int, seed: int = 0) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {
        "k": rng.integers(0, max(num_rows // 4, 1), num_rows, dtype=np.int64),
        "v": rng.normal(size=num_rows),
        "w": rng.integers(-5, 5, num_rows, dtype=np.int64),
    }


def _assert_columns_identical(got, expected):
    assert set(got) == set(expected)
    for name in expected:
        assert got[name].dtype == expected[name].dtype, name
        np.testing.assert_array_equal(got[name], expected[name])


# ----------------------------------------------------------------------
# Storage primitives
# ----------------------------------------------------------------------
class TestMorselPrimitives:
    def test_iter_morsels_covers_batch_with_views(self):
        columns = _random_columns(1000)
        morsels = list(iter_morsels(columns, 256))
        assert len(morsels) == morsel_count(1000, 256) == 4
        assert [m.num_rows for m in morsels] == [256, 256, 256, 232]
        assert morsels[0].is_first and morsels[-1].is_last
        for morsel in morsels:
            for name, values in morsel.columns.items():
                # Zero-copy: every morsel column is a view of the batch.
                assert np.shares_memory(values, columns[name])
        reassembled = concat_columns([m.columns for m in morsels])
        _assert_columns_identical(reassembled, columns)

    def test_empty_batch_yields_single_empty_morsel(self):
        columns = {"k": np.asarray([], dtype=np.int64)}
        morsels = list(iter_morsels(columns, 8))
        assert len(morsels) == 1
        assert morsels[0].num_rows == 0
        assert morsels[0].columns["k"].dtype == np.int64

    def test_morsel_count_edge_cases(self):
        assert morsel_count(0, 16) == 1
        assert morsel_count(16, 16) == 1
        assert morsel_count(17, 16) == 2
        assert morsel_count(5, None) == 1
        with pytest.raises(ValueError):
            morsel_count(5, 0)

    def test_sink_round_trip_is_zero_copy(self):
        columns = _random_columns(500)
        sink = MorselSink().extend(iter_morsels(columns, 64))
        finished = sink.finish()
        for name in columns:
            # The sink recognised the untouched carving of one batch and
            # handed the original arrays back — no concatenation copy.
            assert finished[name] is columns[name]

    def test_sink_concatenates_foreign_morsels(self):
        columns = _random_columns(100)
        morsels = list(iter_morsels(columns, 32))
        # Streams from two different carvings do not share a source.
        other = list(iter_morsels(columns, 32))
        sink = MorselSink().extend(morsels[:2]).extend(other[2:])
        finished = sink.finish()
        _assert_columns_identical(finished, columns)
        assert finished["k"] is not columns["k"]


# ----------------------------------------------------------------------
# Operator kernels: morsel transparency
# ----------------------------------------------------------------------
class TestKernelMorselTransparency:
    @pytest.mark.parametrize("num_rows", [0, 1, 100, 1000])
    @pytest.mark.parametrize("morsel_rows", EDGE_MORSEL_ROWS)
    def test_filter_project(self, num_rows, morsel_rows):
        columns = _random_columns(num_rows, seed=num_rows)
        predicate = (col("w") >= lit(0)) & (col("v") < lit(1.0))
        projections = {"k": col("k"), "scaled": col("v") * lit(2.5),
                       "flag": lit(7)}
        expected, expected_stats = filter_project_kernel(
            columns, predicate=predicate, projections=projections)
        got, stats = filter_project_kernel(
            columns, predicate=predicate, projections=projections,
            morsel_rows=morsel_rows)
        assert stats == expected_stats
        _assert_columns_identical(got, expected)

    def test_filter_project_removing_every_row(self):
        columns = _random_columns(64)
        predicate = col("w") > lit(10**6)
        expected, _ = filter_project_kernel(columns, predicate=predicate)
        got, _ = filter_project_kernel(columns, predicate=predicate,
                                       morsel_rows=7)
        assert next(iter(got.values())).shape == (0,)
        _assert_columns_identical(got, expected)

    @pytest.mark.parametrize("build_rows,probe_rows", [
        (0, 50), (50, 0), (40, 160), (128, 1000),
    ])
    @pytest.mark.parametrize("morsel_rows", EDGE_MORSEL_ROWS)
    def test_hash_join_duplicate_keys(self, build_rows, probe_rows,
                                      morsel_rows):
        rng = np.random.default_rng(build_rows + probe_rows)
        build = {"bk": rng.integers(0, 12, build_rows, dtype=np.int64),
                 "bp": rng.normal(size=build_rows)}
        probe = {"pk": rng.integers(0, 12, probe_rows, dtype=np.int64),
                 "pp": rng.integers(0, 99, probe_rows, dtype=np.int64)}
        expected, expected_stats = hash_join_kernel(
            build, probe, build_keys=["bk"], probe_keys=["pk"])
        got, stats = hash_join_kernel(
            build, probe, build_keys=["bk"], probe_keys=["pk"],
            morsel_rows=morsel_rows)
        assert stats == expected_stats
        _assert_columns_identical(got, expected)

    @pytest.mark.parametrize("morsel_rows", EDGE_MORSEL_ROWS)
    def test_hash_join_unique_keys_fast_path(self, morsel_rows):
        rng = np.random.default_rng(3)
        build = {"bk": rng.permutation(200).astype(np.int64)}
        probe = {"pk": rng.integers(0, 300, 700, dtype=np.int64)}
        expected, _ = hash_join_kernel(build, probe, build_keys=["bk"],
                                       probe_keys=["pk"])
        got, _ = hash_join_kernel(build, probe, build_keys=["bk"],
                                  probe_keys=["pk"], morsel_rows=morsel_rows)
        _assert_columns_identical(got, expected)

    @pytest.mark.parametrize("num_rows", [0, 1, 500])
    @pytest.mark.parametrize("morsel_rows", EDGE_MORSEL_ROWS)
    @pytest.mark.parametrize("phase", ["complete", "partial"])
    def test_hash_aggregate(self, num_rows, morsel_rows, phase):
        columns = _random_columns(num_rows, seed=17)
        aggregates = [agg_sum(col("v"), "total"), agg_count("cnt"),
                      agg_avg(col("v"), "mean")]
        expected, expected_stats = hash_aggregate_kernel(
            columns, group_by=["k"], aggregates=aggregates, phase=phase)
        got, stats = hash_aggregate_kernel(
            columns, group_by=["k"], aggregates=aggregates, phase=phase,
            morsel_rows=morsel_rows)
        assert stats == expected_stats
        _assert_columns_identical(got, expected)

    @pytest.mark.parametrize("morsel_rows", EDGE_MORSEL_ROWS)
    def test_radix_joins(self, cpu, gpu, morsel_rows):
        rng = np.random.default_rng(23)
        build = {"bk": rng.integers(0, 400, 2000, dtype=np.int64),
                 "bp": rng.integers(0, 9, 2000, dtype=np.int64)}
        probe = {"pk": rng.integers(0, 400, 3000, dtype=np.int64),
                 "pp": rng.normal(size=3000)}
        for kernel, spec in ((cpu_radix_join_kernel, cpu.spec),
                             (gpu_partitioned_join_kernel, gpu.spec)):
            expected, expected_stats = kernel(
                build, probe, build_keys=["bk"], probe_keys=["pk"], spec=spec)
            got, stats = kernel(
                build, probe, build_keys=["bk"], probe_keys=["pk"],
                spec=spec, morsel_rows=morsel_rows)
            assert stats == expected_stats
            _assert_columns_identical(got, expected)

    def test_hash_join_build_then_probe_streaming(self):
        """Per-morsel probing through HashJoinBuild equals one-shot join."""
        rng = np.random.default_rng(5)
        build = {"bk": rng.integers(0, 40, 300, dtype=np.int64)}
        probe = {"pk": rng.integers(0, 40, 900, dtype=np.int64)}
        builder = HashJoinBuild.from_morsels(iter_morsels(build, 64),
                                             build_keys=["bk"])
        streamed = concat_columns([
            builder.probe(morsel.columns, probe_keys=["pk"])
            for morsel in iter_morsels(probe, 100)
        ])
        expected, _ = hash_join_kernel(build, probe, build_keys=["bk"],
                                       probe_keys=["pk"])
        _assert_columns_identical(streamed, expected)

    def test_aggregate_sink_consumes_stream_then_finalizes(self):
        columns = _random_columns(400, seed=9)
        aggregates = [agg_sum(col("v"), "total"), agg_count("cnt")]
        sink = AggregateMorselSink(group_by=["k"], aggregates=aggregates)
        for morsel in iter_morsels(columns, 32):
            sink.consume(morsel)
        got, stats = sink.finish()
        expected, expected_stats = hash_aggregate_kernel(
            columns, group_by=["k"], aggregates=aggregates)
        assert stats == expected_stats
        _assert_columns_identical(got, expected)


# ----------------------------------------------------------------------
# Engine: morsel invariance end to end
# ----------------------------------------------------------------------
class TestEngineMorselInvariance:
    QUERIES = ("Q1", "Q5", "Q6")
    MODES = ("cpu", "gpu", "hybrid")

    def _engine(self, tpch_dataset, morsel_rows):
        engine = HAPEEngine(default_server(), morsel_rows=morsel_rows)
        engine.register_dataset(tpch_dataset.tables)
        return engine

    # The whole-suite TPC-H identity sweep (results + simulated seconds
    # bit-identical for every morsel setting) lives in the configuration
    # matrix of tests/test_invariants.py, which crosses morsel sizes with
    # pipeline fusion and cache warm/cold in one place.

    def test_single_row_morsels_on_small_tables(self, tpch_dataset):
        """morsel_rows=1 is viable (streams every row separately)."""
        engine = self._engine(tpch_dataset, 1)
        plan = (scan("supplier", ["s_suppkey", "s_nationkey"])
                .filter(col("s_nationkey") >= lit(10))
                .aggregate(["s_nationkey"], [agg_count("cnt")]))
        reference = execute_logical(plan, engine.catalog)
        baseline = self._engine(tpch_dataset, None).execute(plan, "cpu")
        result = engine.execute(plan, "cpu")
        assert result.table.equals(reference, check_order=False)
        assert result.simulated_seconds == baseline.simulated_seconds
        assert result.morsels_dispatched > baseline.morsels_dispatched

    @pytest.mark.parametrize("mode", MODES)
    def test_empty_input_with_morsels(self, tpch_dataset, mode):
        """A filter that removes every row, streamed in tiny morsels."""
        engine = self._engine(tpch_dataset, 8)
        plan = (scan("supplier", ["s_suppkey", "s_nationkey"])
                .filter(col("s_nationkey") < lit(-1))
                .aggregate(["s_nationkey"],
                           [agg_sum(col("s_suppkey"), "total"),
                            agg_count("cnt")]))
        reference = execute_logical(plan, engine.catalog)
        result = engine.execute(plan, mode)
        assert result.table.num_rows == 0
        assert result.table.equals(reference, check_order=False)

    def test_memo_survives_morsel_boundaries(self, tpch_dataset):
        """A repeated subplan is still evaluated once when streamed."""
        engine = self._engine(tpch_dataset, 16)
        side_a = scan("supplier", ["s_suppkey", "s_nationkey"]).filter(
            col("s_nationkey") >= lit(0))
        side_b = scan("supplier", ["s_suppkey", "s_nationkey"]).filter(
            col("s_nationkey") >= lit(0))
        plan = side_a.join(side_b, ["s_suppkey"], ["s_suppkey"])
        reset_kernel_counts()
        result = engine.execute(plan, "cpu")
        counts = kernel_counts()
        # Two identical PFilterProject nodes, one (morselized) evaluation.
        assert counts.get("filter_project", 0) == 1
        reference = execute_logical(plan, engine.catalog)
        assert result.table.num_rows == reference.num_rows

    def test_kernels_still_run_once_per_node(self, tpch_dataset):
        """Morsel streaming never multiplies kernel invocations."""
        engine = self._engine(tpch_dataset, 64)
        query = build_query("Q5", tpch_dataset)
        physical = engine.plan(query.plan, "hybrid")
        reset_kernel_counts()
        engine.executor.execute(physical)
        with_morsels = kernel_counts()
        engine.morsel_rows = None
        # Compare cold-vs-cold: without the reset the second run would be
        # served by the session's cross-query cache and run zero kernels.
        engine.clear_query_cache()
        reset_kernel_counts()
        engine.executor.execute(physical)
        assert kernel_counts() == with_morsels

    @pytest.mark.parametrize("bad", [0, -1])
    def test_invalid_morsel_rows_fails_at_construction(self, bad):
        with pytest.raises(ValueError):
            HAPEEngine(morsel_rows=bad)

    def test_default_session_has_morsels_enabled(self):
        assert Session().morsel_rows == DEFAULT_MORSEL_ROWS

    def test_morsel_accounting_scales_with_granularity(self, tpch_dataset):
        query = build_query("Q6", tpch_dataset)
        coarse = self._engine(tpch_dataset, 10**9).execute(query.plan, "cpu")
        fine = self._engine(tpch_dataset, 100).execute(query.plan, "cpu")
        assert fine.morsels_dispatched > coarse.morsels_dispatched
        assert fine.simulated_seconds == coarse.simulated_seconds


class TestPipelineMorselStages:
    def test_streaming_prefix_excludes_breaker_sink(self, engine,
                                                    tpch_dataset):
        from repro.relational import PAggregate, PJoin, PSort

        query = build_query("Q5", tpch_dataset)
        physical = engine.plan(query.plan, "cpu")
        pipelines = break_into_pipelines(physical)
        assert pipelines
        for pipeline in pipelines:
            # A breaker may only appear as the pipeline's *source* (its
            # output stream starts the pipeline); never downstream of the
            # source inside the streaming prefix.
            assert not any(isinstance(op, (PAggregate, PJoin, PSort))
                           for op in pipeline.streaming_prefix()[1:])

    def test_scan_and_filter_are_streaming(self, engine, tpch_dataset):
        query = build_query("Q6", tpch_dataset)
        physical = engine.plan(query.plan, "cpu")
        ops = list(physical.walk())
        assert any(is_streaming_operator(op) for op in ops)
        assert all(is_streaming_operator(op)
                   for op in ops if isinstance(op, (PScan, PFilterProject)))


# ----------------------------------------------------------------------
# Streamed operator descriptions vs. the whole-batch kernels
# ----------------------------------------------------------------------
class TestStreamedDescriptionsMatchKernels:
    """Every plan node — fusion on or off — streams through the operator
    descriptions' per-morsel accumulation, so nothing inside the engine
    runs ``filter_project_kernel`` / ``hash_join_kernel`` on these paths
    any more.  This is the independent cross-check: over real TPC-H
    columns, the streamed columns and the accumulated stats record equal
    the kernels' own, byte for byte."""

    MORSEL_ROWS = (None, 7, 4096)

    @staticmethod
    def _stream(node, catalog, morsel_rows):
        """Drive ``node``'s description as a one-stage chain."""
        from repro.engine import Executor, ExecutorOptions
        from repro.engine.descriptions import description

        executor = Executor(default_server(), catalog, ExecutorOptions(
            morsel_rows=morsel_rows, cache_budget_bytes=0))
        stage = description(node)(node, executor)  # runs a join's build
        source = executor._execute(node.children()[-1])
        columns, ((stats, nbytes, rows),) = executor._evaluate([stage],
                                                               source)
        assert nbytes == sum(v.nbytes for v in columns.values())
        assert rows == (len(next(iter(columns.values()))) if columns else 0)
        return stage, source, columns, stats

    @staticmethod
    def _assert_bytes_equal(got, expected):
        assert list(got) == list(expected)
        for name in expected:
            assert got[name].dtype == expected[name].dtype, name
            assert got[name].tobytes() == expected[name].tobytes(), name

    @pytest.mark.parametrize("morsel_rows", MORSEL_ROWS)
    @pytest.mark.parametrize("cutoff", [24, -1], ids=["rows", "empty"])
    def test_filter_project(self, engine, morsel_rows, cutoff):
        from repro.relational import cpu_traits

        predicate = col("l_quantity") < lit(cutoff)
        projections = {"revenue": col("l_extendedprice") * col("l_discount"),
                       "l_orderkey": col("l_orderkey")}
        lineitem = PScan(cpu_traits(), table="lineitem")
        # Two stages: the first feeds the second an *empty* input when the
        # cutoff keeps nothing.
        inner = PFilterProject(cpu_traits(), child=lineitem,
                               predicate=predicate)
        node = PFilterProject(cpu_traits(), child=inner,
                              projections=projections)
        _, source, columns, stats = self._stream(node, engine.catalog,
                                                 morsel_rows)
        if cutoff < 0:
            assert source.num_rows == 0
        expected, expected_stats = filter_project_kernel(
            source.columns, projections=projections, morsel_rows=morsel_rows)
        self._assert_bytes_equal(columns, expected)
        assert stats == expected_stats

    @pytest.mark.parametrize("morsel_rows", MORSEL_ROWS)
    @pytest.mark.parametrize("cutoff", [10**9, -1], ids=["rows", "empty"])
    def test_hash_join_probe(self, engine, morsel_rows, cutoff):
        from repro.relational import PJoin, cpu_traits

        orders = PScan(cpu_traits(), table="orders",
                       columns=("o_orderkey", "o_custkey"))
        lineitem = PFilterProject(
            cpu_traits(), predicate=col("l_orderkey") < lit(cutoff),
            child=PScan(cpu_traits(), table="lineitem",
                        columns=("l_orderkey", "l_quantity")))
        node = PJoin(cpu_traits(), build=orders, probe=lineitem,
                     build_keys=("o_orderkey",), probe_keys=("l_orderkey",))
        stage, source, columns, stats = self._stream(node, engine.catalog,
                                                     morsel_rows)
        expected, expected_stats = hash_join_kernel(
            stage.build.columns, source.columns,
            build_keys=node.build_keys, probe_keys=node.probe_keys,
            morsel_rows=morsel_rows)
        self._assert_bytes_equal(columns, expected)
        assert stats == expected_stats
