"""Morsel-driven batched execution.

Three layers of guarantees:

* the storage primitives (:mod:`repro.storage.morsel`) carve a batch into
  zero-copy slices that tile it in order, and reassemble per-morsel
  outputs;
* the driver is morsel-transparent: kernels take whole batches, the
  executor streams — and for every engine ``morsel_rows`` the columns
  *and* the stats record an operator description produces equal its
  whole-batch kernel's byte for byte, including the edge cases (a morsel
  boundary inside a run of duplicate keys, a morsel larger than the
  input, a filter that keeps nothing, and empty inputs);
* the engine is morsel-invariant: for every morsel setting the results
  match the reference executor, simulated seconds are unchanged bit for
  bit, the morsel accounting the server's preemption reads stays put, and
  the single-evaluation kernel memo keeps working across morsel
  boundaries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import Executor, ExecutorOptions, HAPEEngine, Session
from repro.engine.descriptions import description
from repro.hardware import default_server, gtx_1080
from repro.operators import (
    coprocessed_join_kernel,
    filter_project_kernel,
    hash_aggregate_kernel,
    hash_join_kernel,
    kernel_counts,
    merge_partials_kernel,
    partitioned_join_kernel,
    reset_kernel_counts,
)
from repro.relational import (
    JoinAlgorithm,
    PAggregate,
    PFilterProject,
    PJoin,
    PScan,
    agg_avg,
    agg_count,
    agg_sum,
    col,
    cpu_traits,
    execute_logical,
    lit,
    scan,
)
from repro.storage import (
    DEFAULT_MORSEL_ROWS,
    Catalog,
    Table,
    concat_columns,
    iter_morsels,
    morsel_count,
)
from repro.workloads import build_query

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
        assert [len(m["k"]) for m in morsels] == [256, 256, 256, 232]
        offset = 0
        for morsel in morsels:
            assert list(morsel) == list(columns)
            for name, values in morsel.items():
                # Zero-copy: every slice is a view of the batch, and the
                # slices tile it in row order.
                assert np.shares_memory(values, columns[name])
                np.testing.assert_array_equal(
                    values, columns[name][offset:offset + len(values)])
            offset += len(morsel["k"])
        assert offset == 1000
        _assert_columns_identical(concat_columns(morsels), columns)

    def test_empty_batch_yields_single_empty_morsel(self):
        columns = {"k": np.asarray([], dtype=np.int64),
                   "v": np.asarray([], dtype=np.float64)}
        morsels = list(iter_morsels(columns, 8))
        assert len(morsels) == 1
        # Consumers still see the schema: names, order and dtypes.
        assert list(morsels[0]) == ["k", "v"]
        assert morsels[0]["k"].shape == morsels[0]["v"].shape == (0,)
        assert morsels[0]["k"].dtype == np.int64
        assert morsels[0]["v"].dtype == np.float64

    @pytest.mark.parametrize("morsel_rows", [None, 500, 10**9])
    def test_batch_that_fits_one_morsel_is_yielded_itself(self, morsel_rows):
        columns = _random_columns(500)
        (morsel,) = iter_morsels(columns, morsel_rows)
        assert list(morsel) == list(columns)
        for name in columns:
            assert morsel[name] is columns[name]

    def test_morsel_count_edge_cases(self):
        assert morsel_count(0, 16) == 1
        assert morsel_count(16, 16) == 1
        assert morsel_count(17, 16) == 2
        assert morsel_count(5, None) == 1
        with pytest.raises(ValueError):
            morsel_count(5, 0)
        with pytest.raises(ValueError):
            list(iter_morsels(_random_columns(5), 0))


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

    #: ``morsels_dispatched`` of a cold run per (query, ``morsel_rows``),
    #: recorded at e9e02cf — when every breaker kernel still carved its own
    #: input — on this suite's dataset; the same in all three modes.  A
    #: breaker's grant is its yield grid: the server's preemption divides a
    #: running attempt's span by this count to place the kill, so a grant
    #: that moved would move served simulated seconds.
    PINNED_MORSELS = {
        ("Q1", DEFAULT_MORSEL_ROWS): 2, ("Q1", 4096): 16,
        ("Q5", DEFAULT_MORSEL_ROWS): 11, ("Q5", 4096): 19,
        ("Q6", DEFAULT_MORSEL_ROWS): 2, ("Q6", 4096): 9,
        ("Q9", DEFAULT_MORSEL_ROWS): 7, ("Q9", 4096): 22,
    }

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("query,morsel_rows", PINNED_MORSELS)
    def test_morsels_dispatched_is_pinned(self, tpch_dataset, query,
                                          morsel_rows, mode):
        engine = self._engine(tpch_dataset, morsel_rows)
        plan = build_query(query, tpch_dataset).plan
        cold = engine.execute(plan, mode)
        assert cold.morsels_dispatched == self.PINNED_MORSELS[
            query, morsel_rows]
        # Warm: every evaluation is a cache hit and grants nothing.
        assert engine.execute(plan, mode).morsels_dispatched == 0


# ----------------------------------------------------------------------
# Operator descriptions under the driver vs. the whole-batch kernels
# ----------------------------------------------------------------------
def _catalog(**tables) -> Catalog:
    catalog = Catalog()
    for name, columns in tables.items():
        catalog.register(Table.from_arrays(name, columns))
    return catalog


def _scan(table: str) -> PScan:
    return PScan(cpu_traits(), table=table)


class TestStreamedDescriptionsMatchKernels:
    """Kernels take whole batches; carving and streaming is the driver's
    job alone.  This is the cross-check between the two: for every engine
    ``morsel_rows`` — whole-column packets, a size that puts a morsel
    boundary inside runs of duplicate keys, and one larger than most
    inputs — the columns (names, order, dtypes, row order) and the stats
    record an operator description produces under the driver equal its
    whole-batch kernel's, byte for byte."""

    MORSEL_ROWS = (None, 7, 4096)

    @staticmethod
    def _stream(node, catalog, morsel_rows, topology=None):
        """Drive ``node``'s description as a one-stage chain, the way
        :meth:`Executor._execute` does: place, check, evaluate."""
        executor = Executor(topology or default_server(), catalog,
                            ExecutorOptions(morsel_rows=morsel_rows,
                                            cache_budget_bytes=0))
        stage = description(node)(node, executor)  # runs a join's build
        source = executor._execute(node.children()[-1])
        stage.devices = stage.place(source.devices)
        stage.kernel_tag = stage.tag(source.kernel_tag)
        stage.check(source)
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

    # -- filter/project ------------------------------------------------
    @pytest.mark.parametrize("morsel_rows", MORSEL_ROWS)
    @pytest.mark.parametrize("cutoff", [24, -1], ids=["rows", "empty"])
    def test_filter_project(self, engine, morsel_rows, cutoff):
        predicate = col("l_quantity") < lit(cutoff)
        projections = {"revenue": col("l_extendedprice") * col("l_discount"),
                       "l_orderkey": col("l_orderkey")}
        # Two stages: the first feeds the second an *empty* input when the
        # cutoff keeps nothing.
        inner = PFilterProject(cpu_traits(), child=_scan("lineitem"),
                               predicate=predicate)
        node = PFilterProject(cpu_traits(), child=inner,
                              projections=projections)
        _, source, columns, stats = self._stream(node, engine.catalog,
                                                 morsel_rows)
        if cutoff < 0:
            assert source.num_rows == 0
        expected, expected_stats = filter_project_kernel(
            source.columns, projections=projections)
        self._assert_bytes_equal(columns, expected)
        assert stats == expected_stats

    @pytest.mark.parametrize("morsel_rows", MORSEL_ROWS)
    @pytest.mark.parametrize("num_rows", [0, 1, 100, 1000])
    @pytest.mark.parametrize("keep", ["some", "none"])
    def test_filter_project_predicate_and_literal(self, num_rows, keep,
                                                  morsel_rows):
        """A predicate and projections in one stage — a literal column
        included — over inputs from empty to many morsels; ``none`` is the
        filter that removes every row of a non-empty input."""
        predicate = ((col("w") >= lit(0)) & (col("v") < lit(1.0))
                     if keep == "some" else col("w") > lit(10**6))
        projections = {"k": col("k"), "scaled": col("v") * lit(2.5),
                       "flag": lit(7)}
        node = PFilterProject(cpu_traits(), child=_scan("t"),
                              predicate=predicate, projections=projections)
        catalog = _catalog(t=_random_columns(num_rows, seed=num_rows))
        _, source, columns, stats = self._stream(node, catalog, morsel_rows)
        expected, expected_stats = filter_project_kernel(
            source.columns, predicate=predicate, projections=projections)
        if keep == "none":
            assert columns["flag"].shape == (0,)
        self._assert_bytes_equal(columns, expected)
        assert stats == expected_stats

    # -- joins ---------------------------------------------------------
    @staticmethod
    def _join_sides(shape: str):
        """Build / probe column maps of the removed kernel-level cases."""
        if shape == "unique":  # the index's unique-key fast path
            rng = np.random.default_rng(3)
            return ({"bk": rng.permutation(200).astype(np.int64)},
                    {"pk": rng.integers(0, 300, 700, dtype=np.int64)})
        # Few distinct keys: runs of duplicates on both sides, so 7-row
        # morsel boundaries fall inside them.  ``partitioned`` is large
        # enough that every partitioned join plans a real fan-out.
        build_rows, probe_rows, keys = {
            "empty-build": (0, 50, 12), "empty-probe": (50, 0, 12),
            "duplicates": (128, 1000, 12),
            "partitioned": (20_000, 30_000, 4_000)}[shape]
        rng = np.random.default_rng(build_rows + probe_rows)
        return ({"bk": rng.integers(0, keys, build_rows, dtype=np.int64),
                 "bp": rng.normal(size=build_rows)},
                {"pk": rng.integers(0, keys, probe_rows, dtype=np.int64),
                 "pp": rng.integers(0, 99, probe_rows, dtype=np.int64)})

    JOIN_SHAPES = ("unique", "duplicates", "empty-build", "empty-probe")
    PARTITIONED_SHAPES = JOIN_SHAPES + ("partitioned",)

    def _join(self, shape, morsel_rows, topology=None, **join):
        build, probe = self._join_sides(shape)
        node = PJoin(cpu_traits(), build=_scan("build"), probe=_scan("probe"),
                     build_keys=("bk",), probe_keys=("pk",), **join)
        stage, source, columns, stats = self._stream(
            node, _catalog(build=build, probe=probe), morsel_rows, topology)
        return stage, stage.build.columns, source.columns, columns, stats

    @pytest.mark.parametrize("morsel_rows", MORSEL_ROWS)
    @pytest.mark.parametrize("cutoff", [10**9, -1], ids=["rows", "empty"])
    def test_hash_join_probe(self, engine, morsel_rows, cutoff):
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
            build_keys=node.build_keys, probe_keys=node.probe_keys)
        self._assert_bytes_equal(columns, expected)
        assert stats == expected_stats

    @pytest.mark.parametrize("morsel_rows", MORSEL_ROWS)
    @pytest.mark.parametrize("swapped", [False, True],
                             ids=["streamed", "swapped"])
    @pytest.mark.parametrize("shape", JOIN_SHAPES)
    def test_hash_join(self, shape, swapped, morsel_rows):
        """The probe streams through ``HashJoinBuild.probe``; a swapped
        join (build-major output) runs whole.  Both equal the kernel."""
        _, build, probe, columns, stats = self._join(
            shape, morsel_rows, swapped=swapped)
        expected, expected_stats = hash_join_kernel(
            build, probe, build_keys=["bk"], probe_keys=["pk"],
            output_order="build" if swapped else "probe")
        self._assert_bytes_equal(columns, expected)
        assert stats == expected_stats

    @pytest.mark.parametrize("morsel_rows", MORSEL_ROWS)
    @pytest.mark.parametrize("algorithm", [JoinAlgorithm.RADIX_CPU,
                                           JoinAlgorithm.RADIX_GPU],
                             ids=["cpu", "gpu"])
    @pytest.mark.parametrize("shape", PARTITIONED_SHAPES)
    def test_radix_join(self, shape, algorithm, morsel_rows):
        stage, build, probe, columns, stats = self._join(
            shape, morsel_rows, algorithm=algorithm)
        expected, expected_stats = partitioned_join_kernel(
            build, probe, build_keys=["bk"], probe_keys=["pk"],
            spec=stage.devices[0].spec)
        if shape == "partitioned":
            assert stats.plan.total_fanout > 1
        self._assert_bytes_equal(columns, expected)
        assert stats == expected_stats

    @pytest.mark.parametrize("morsel_rows", MORSEL_ROWS)
    @pytest.mark.parametrize("shape", PARTITIONED_SHAPES)
    def test_coprocessed_join(self, shape, morsel_rows):
        # 256 KB GPUs: the large shape needs several co-partitions each.
        small_gpus = default_server(
            gpu_spec=gtx_1080().with_memory_capacity(256 << 10))
        stage, build, probe, columns, stats = self._join(
            shape, morsel_rows, small_gpus,
            algorithm=JoinAlgorithm.COPROCESSED_RADIX)
        expected, expected_stats = coprocessed_join_kernel(
            build, probe, build_keys=["bk"], probe_keys=["pk"],
            gpu_specs=[gpu.spec for gpu in stage.devices[1:]])
        if shape == "partitioned":
            assert len(stats.copartitions) > 2
        self._assert_bytes_equal(columns, expected)
        assert stats == expected_stats

    # -- aggregate -----------------------------------------------------
    @pytest.mark.parametrize("morsel_rows", MORSEL_ROWS)
    @pytest.mark.parametrize("num_rows", [0, 1, 500])
    @pytest.mark.parametrize("phase", ["complete", "partial", "final"])
    def test_aggregate(self, phase, num_rows, morsel_rows):
        aggregates = (agg_sum(col("v"), "total"), agg_count("cnt"),
                      agg_avg(col("v"), "mean"))
        child = _scan("t")
        if phase == "final":  # merges what a partial aggregate emitted
            child = PAggregate(cpu_traits(), child=child, group_by=("k",),
                               aggregates=aggregates, phase="partial")
        node = PAggregate(cpu_traits(), child=child, group_by=("k",),
                          aggregates=aggregates, phase=phase)
        catalog = _catalog(t=_random_columns(num_rows, seed=17))
        _, source, columns, stats = self._stream(node, catalog, morsel_rows)
        if phase == "final":
            expected, expected_stats = merge_partials_kernel(
                [source.columns], group_by=["k"], aggregates=aggregates)
        else:
            expected, expected_stats = hash_aggregate_kernel(
                source.columns, group_by=["k"], aggregates=aggregates,
                phase=phase)
        self._assert_bytes_equal(columns, expected)
        assert stats == expected_stats
