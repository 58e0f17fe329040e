"""Tests for the statistics subsystem (collection + cardinality estimation).

Covers the contracts of ``docs/STATISTICS.md``:

* histogram edge cases — constant columns (a single zero-width point-mass
  bin), empty/all-NaN columns (no histogram at all), NaN exclusion and
  infinity accounting keep every mass estimate in ``[0, 1]``;
* estimator rules — equality is ``1 / NDV`` (zero outside the column
  range), range selectivities are monotone in the literal, conjunctions
  damp at :data:`CONJUNCTION_FLOOR`, FK joins estimate the probe side's
  cardinality under containment;
* estimation quality — median q-error at most 4 on every evaluated TPC-H
  query at SF 0.05;
* lifecycle — statistics are collected at ``register()`` time, swapped
  atomically on ``register(replace=True)`` and retired by ``drop``;
* the refusal contract — GPU-only plans are refused at plan time only on
  statistics-backed estimates; guessed estimates defer to the executor's
  runtime memory enforcement (and the legacy ``use_statistics=False``
  heuristic keeps refusing at plan time, as before);
* session-level ``"auto"`` mode resolution from the working-set estimate.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.engine import HAPEEngine
from repro.engine.modes import ExecutionMode
from repro.engine.optimizer import OptimizerOptions
from repro.errors import CatalogError, OptimizerError, OutOfDeviceMemoryError
from repro.hardware import default_server, gtx_1080
from repro.relational import agg_count, agg_sum, col, lit, scan
from repro.relational.logical import Aggregate, OrderBy
from repro.relational.physical import PAggregate, structural_key
from repro.stats import (
    CONJUNCTION_FLOOR,
    CardinalityEstimator,
    Histogram,
    collect_table_statistics,
    q_error,
)
from repro.storage import Catalog, Table, generate_tpch
from repro.workloads.tpch_queries import all_queries


# ----------------------------------------------------------------------
# Histograms
# ----------------------------------------------------------------------
class TestHistogram:
    def test_cdf_linear_interpolation(self):
        h = Histogram(edges=(0.0, 10.0, 20.0), counts=(5, 5), total=10)
        assert h.cdf(-1.0) == 0.0
        assert h.cdf(0.0) == 0.0
        assert h.cdf(5.0) == pytest.approx(0.25)
        assert h.cdf(10.0) == pytest.approx(0.5)
        assert h.cdf(20.0) == 1.0
        assert h.cdf(25.0) == 1.0

    def test_mass_between_clamps_to_unit_interval(self):
        h = Histogram(edges=(0.0, 10.0, 20.0), counts=(5, 5), total=10)
        assert h.mass_between(5.0, 15.0) == pytest.approx(0.5)
        assert h.mass_between(None, None) == pytest.approx(1.0)
        assert h.mass_between(15.0, 5.0) == 0.0  # inverted bounds clamp
        assert h.mass_between(-10.0, 30.0) == pytest.approx(1.0)

    def test_point_mass_constant_column(self):
        h = Histogram(edges=(7.0, 7.0), counts=(4,), total=4)
        assert h.cdf(6.999) == 0.0
        assert h.cdf(7.0) == 1.0
        assert h.mass_between(7.0, 7.0) == 1.0
        assert h.mass_between(8.0, 9.0) == 0.0
        assert h.mass_between(None, 6.0) == 0.0

    def test_empty_histogram_answers_zero(self):
        h = Histogram(edges=(0.0, 0.0), counts=(0,), total=0)
        assert h.cdf(0.0) == 0.0
        assert h.mass_between(None, None) == 0.0


# ----------------------------------------------------------------------
# Collection edge cases
# ----------------------------------------------------------------------
class TestCollection:
    def test_constant_column_degenerates_to_zero_width_bin(self):
        table = Table.from_arrays("t", {
            "c": np.full(50, 3.5, dtype=np.float64)})
        stats = collect_table_statistics(table).column("c")
        assert stats.min_value == stats.max_value == 3.5
        assert stats.histogram is not None
        assert stats.histogram.edges == (3.5, 3.5)
        assert stats.histogram.counts == (50,)
        assert stats.ndv == 1

    def test_empty_table_has_counts_but_no_histogram(self):
        table = Table.from_arrays("e", {
            "x": np.array([], dtype=np.float64)})
        stats = collect_table_statistics(table).column("x")
        assert stats.num_rows == 0
        assert stats.ndv == 0
        assert stats.min_value is None
        assert stats.histogram is None

    def test_all_nan_column_has_no_range(self):
        table = Table.from_arrays("n", {
            "x": np.full(8, np.nan, dtype=np.float64)})
        stats = collect_table_statistics(table).column("x")
        assert stats.min_value is None
        assert stats.histogram is None

    def test_nans_excluded_from_range_and_mass(self):
        table = Table.from_arrays("m", {
            "x": np.array([1.0, 2.0, np.nan, np.nan])})
        stats = collect_table_statistics(table).column("x")
        assert (stats.min_value, stats.max_value) == (1.0, 2.0)
        assert stats.histogram.total == 2
        assert sum(stats.histogram.counts) == 2
        assert stats.histogram.mass_between(None, None) == pytest.approx(1.0)

    def test_infinities_count_toward_total_but_not_bins(self):
        table = Table.from_arrays("i", {
            "x": np.array([1.0, 2.0, np.inf])})
        stats = collect_table_statistics(table).column("x")
        assert (stats.min_value, stats.max_value) == (1.0, 2.0)
        assert stats.histogram.total == 3
        assert sum(stats.histogram.counts) == 2
        # The infinite value is "somewhere above every bin": range mass
        # over the finite span stays a fraction of all non-NaN values.
        assert stats.histogram.mass_between(None, None) == pytest.approx(2 / 3)

    def test_ndv_exact_below_sampling_threshold(self):
        table = Table.from_arrays("k", {
            "key": np.arange(1000, dtype=np.int64),
            "grp": np.repeat(np.arange(10, dtype=np.int64), 100)})
        stats = collect_table_statistics(table)
        assert stats.column("key").ndv == 1000
        assert stats.column("grp").ndv == 10

    def test_collection_is_deterministic(self):
        rng = np.random.default_rng(11)
        values = rng.integers(0, 500_000, 300_000, dtype=np.int64)
        table = Table.from_arrays("big", {"v": values})
        first = collect_table_statistics(table)
        second = collect_table_statistics(table)
        assert first.column("v").ndv == second.column("v").ndv
        assert first.column("v").histogram == second.column("v").histogram


# ----------------------------------------------------------------------
# Estimator rules
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def synthetic_catalog():
    catalog = Catalog()
    catalog.register(Table.from_arrays("t", {
        "x": np.arange(1000, dtype=np.int64),
        "y": np.repeat(np.arange(10, dtype=np.int64), 100)}))
    return catalog


@pytest.fixture(scope="module")
def estimator(synthetic_catalog):
    return CardinalityEstimator(synthetic_catalog)


class TestEstimatorRules:
    def test_equality_selects_one_over_ndv(self, estimator):
        assert estimator.estimate_rows(
            scan("t").filter(col("y") == lit(5))) == 100
        assert estimator.estimate_rows(
            scan("t").filter(col("x") == lit(17))) == 1

    def test_equality_outside_range_selects_nothing(self, estimator):
        assert estimator.estimate_rows(
            scan("t").filter(col("x") == lit(5000))) == 0

    def test_range_estimates_are_monotone_in_the_literal(self, estimator):
        estimates = [estimator.estimate_rows(
            scan("t").filter(col("x") < lit(k)))
            for k in range(0, 1100, 100)]
        assert estimates == sorted(estimates)
        assert estimates[0] == 0
        assert estimates[-1] == 1000
        # Uniform data: equi-width bins put the estimate within one bin
        # width of the truth.
        assert estimator.estimate_rows(
            scan("t").filter(col("x") < lit(250))) == pytest.approx(250, abs=16)

    def test_conjunctions_damp_at_the_floor(self, estimator):
        rel = estimator.table_estimate("t")
        predicate = col("y") == lit(5)
        for _ in range(9):
            predicate = predicate & (col("y") == lit(5))
        sel, backed = estimator.selectivity(predicate, rel)
        assert backed
        # Independence would say 0.1 ** 10 = 1e-10; the floor holds it up.
        assert sel == pytest.approx(CONJUNCTION_FLOOR)

    def test_zero_conjunct_still_zeroes_the_conjunction(self, estimator):
        rel = estimator.table_estimate("t")
        sel, backed = estimator.selectivity(
            (col("y") == lit(5)) & (col("x") == lit(5000)), rel)
        assert backed
        assert sel == 0.0

    def test_negation_complements(self, estimator):
        rel = estimator.table_estimate("t")
        sel, _ = estimator.selectivity(~(col("y") == lit(5)), rel)
        assert sel == pytest.approx(0.9)

    def test_unresolvable_predicate_is_not_backed(self, estimator):
        rel = estimator.table_estimate("t")
        _, backed = estimator.selectivity(
            (col("x") + lit(1)) > lit(0), rel)
        assert not backed
        estimate = estimator.estimate(
            scan("t").filter((col("x") + lit(1)) > lit(0)))
        assert not estimate.backed

    def test_unregistered_table_is_not_backed(self, estimator):
        estimate = estimator.estimate(scan("nowhere"))
        assert not estimate.backed

    def test_group_by_outputs_key_ndv(self, estimator):
        assert estimator.estimate_rows(
            scan("t").aggregate(["y"], [agg_count("c")])) == 10
        assert estimator.estimate_rows(
            scan("t").aggregate([], [agg_sum(col("x"), "s")])) == 1


class TestJoinEstimates:
    @pytest.fixture(scope="class")
    def tpch_estimator(self, tpch_dataset):
        catalog = Catalog()
        for table in tpch_dataset.tables.values():
            catalog.register(table)
        return CardinalityEstimator(catalog), tpch_dataset

    def test_fk_join_estimates_the_probe_side(self, tpch_estimator):
        estimator, dataset = tpch_estimator
        lineitem_rows = dataset.table("lineitem").num_rows
        plan = scan("orders", ["o_orderkey"]).join(
            scan("lineitem", ["l_orderkey", "l_extendedprice"]),
            ["o_orderkey"], ["l_orderkey"])
        # Containment: |O| * |L| / ndv(o_orderkey) = |L| exactly (NDV is
        # exact below the sampling threshold).
        assert estimator.estimate_rows(plan) == pytest.approx(
            lineitem_rows, rel=0.05)

    def test_selective_build_scales_the_join_down(self, tpch_estimator):
        estimator, dataset = tpch_estimator
        lineitem_rows = dataset.table("lineitem").num_rows
        full = scan("orders", ["o_orderkey"]).join(
            scan("lineitem", ["l_orderkey"]), ["o_orderkey"], ["l_orderkey"])
        half = scan("orders", ["o_orderkey"]).filter(
            col("o_orderkey") <= lit(3750)).join(
            scan("lineitem", ["l_orderkey"]), ["o_orderkey"], ["l_orderkey"])
        full_rows = estimator.estimate_rows(full)
        half_rows = estimator.estimate_rows(half)
        assert half_rows < full_rows
        assert half_rows == pytest.approx(lineitem_rows / 2, rel=0.2)

    def test_working_set_charges_builds_and_peak(self, tpch_estimator):
        estimator, _ = tpch_estimator
        plan = scan("orders", ["o_orderkey"]).join(
            scan("lineitem", ["l_orderkey", "l_extendedprice"]),
            ["o_orderkey"], ["l_orderkey"])
        ws = estimator.working_set(plan)
        assert ws.backed
        assert ws.build_bytes > 0
        assert ws.largest_build_bytes == ws.build_bytes
        assert ws.total_bytes == ws.peak_intermediate_bytes + ws.build_bytes
        selective = scan("orders", ["o_orderkey"]).filter(
            col("o_orderkey") == lit(1)).join(
            scan("lineitem", ["l_orderkey", "l_extendedprice"]),
            ["o_orderkey"], ["l_orderkey"])
        assert estimator.working_set(selective).total_bytes < ws.total_bytes


class TestQError:
    def test_q_error_is_symmetric_and_floored(self):
        assert q_error(10, 10) == 1.0
        assert q_error(100, 25) == 4.0
        assert q_error(25, 100) == 4.0
        assert q_error(0, 0) == 1.0  # both floored at one row
        assert q_error(0.2, 1) == 1.0


# ----------------------------------------------------------------------
# Estimation quality on TPC-H
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sf05_engine():
    dataset = generate_tpch(scale_factor=0.05, seed=2019)
    engine = HAPEEngine(default_server())
    engine.register_dataset(dataset.tables)
    return engine, dataset


class TestTPCHQuality:
    def test_median_q_error_at_most_four_on_every_query(self, sf05_engine):
        engine, dataset = sf05_engine
        for name, query in all_queries(dataset).items():
            result = engine.execute(query.plan, "hybrid")
            report = result.cardinality
            assert report.operators, f"{name} recorded no operators"
            assert report.median_q_error <= 4.0, (
                f"{name}: median q-error {report.median_q_error:.2f}\n"
                + report.describe())

    def test_estimates_never_change_results(self, sf05_engine):
        engine, dataset = sf05_engine
        legacy = HAPEEngine(
            default_server(),
            optimizer_options=OptimizerOptions(use_statistics=False))
        legacy.register_dataset(dataset.tables)
        for name, query in all_queries(dataset).items():
            stats_result = engine.execute(query.plan, "hybrid")
            legacy_result = legacy.execute(query.plan, "hybrid")
            for column in stats_result.table.column_names:
                assert (stats_result.table.array(column).tobytes()
                        == legacy_result.table.array(column).tobytes()), (
                    f"{name}: column {column} diverged with statistics on")


# ----------------------------------------------------------------------
# Lifecycle: statistics live and die with the table
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_register_collects_and_replace_swaps(self):
        catalog = Catalog()
        catalog.register(Table.from_arrays("t", {
            "v": np.repeat(np.arange(4, dtype=np.int64), 25)}))
        assert catalog.statistics("t").column("v").ndv == 4
        first_version = catalog.version("t")
        catalog.register(Table.from_arrays("t", {
            "v": np.arange(100, dtype=np.int64)}), replace=True)
        assert catalog.statistics("t").column("v").ndv == 100
        assert catalog.version("t") > first_version

    def test_drop_retires_statistics(self):
        catalog = Catalog()
        catalog.register(Table.from_arrays("t", {
            "v": np.arange(10, dtype=np.int64)}))
        catalog.drop("t")
        with pytest.raises(CatalogError):
            catalog.statistics("t")

    def test_replace_changes_the_estimate(self):
        catalog = Catalog()
        estimator = CardinalityEstimator(catalog)
        plan = scan("t").filter(col("v") == lit(1))
        catalog.register(Table.from_arrays("t", {
            "v": np.repeat(np.arange(2, dtype=np.int64), 50)}))
        assert estimator.estimate_rows(plan) == 50
        catalog.register(Table.from_arrays("t", {
            "v": np.arange(100, dtype=np.int64)}), replace=True)
        assert estimator.estimate_rows(plan) == 1


# ----------------------------------------------------------------------
# Refusal contract (the Q9 satellite): plan-time refusal needs backing
# ----------------------------------------------------------------------
class TestBackedRefusal:
    @pytest.fixture()
    def tiny_gpu_topology(self):
        return default_server(gpu_spec=gtx_1080().with_memory_capacity(
            64 * 1024))

    def test_backed_overflow_refused_at_plan_time(self, tiny_gpu_topology,
                                                  tpch_dataset):
        engine = HAPEEngine(tiny_gpu_topology)
        engine.register_dataset(tpch_dataset.tables)
        plan = scan("orders").join(
            scan("lineitem", ["l_orderkey", "l_extendedprice"]),
            ["o_orderkey"], ["l_orderkey"])
        with pytest.raises(OptimizerError, match="exceeds GPU memory"):
            engine.plan(plan, "gpu")

    def test_unbacked_overflow_defers_to_the_executor(self, tiny_gpu_topology,
                                                      tpch_dataset):
        engine = HAPEEngine(tiny_gpu_topology)
        engine.register_dataset(tpch_dataset.tables)
        # The computed LHS makes the filter unresolvable, so the build
        # estimate is a guess — not grounds for plan-time refusal.  The
        # true build overflows the 64 KB device at run time instead.
        plan = (scan("orders")
                .filter((col("o_orderkey") + lit(0)) >= lit(0))
                .join(scan("lineitem", ["l_orderkey", "l_extendedprice"]),
                      ["o_orderkey"], ["l_orderkey"]))
        physical = engine.plan(plan, "gpu")  # plan-time: accepted
        assert physical is not None
        with pytest.raises(OutOfDeviceMemoryError, match="gpu"):
            engine.execute(plan, "gpu")

    def test_legacy_heuristics_keep_refusing(self, tiny_gpu_topology,
                                             tpch_dataset):
        engine = HAPEEngine(
            tiny_gpu_topology,
            optimizer_options=OptimizerOptions(use_statistics=False))
        engine.register_dataset(tpch_dataset.tables)
        plan = (scan("orders")
                .filter((col("o_orderkey") + lit(0)) >= lit(0))
                .join(scan("lineitem", ["l_orderkey", "l_extendedprice"]),
                      ["o_orderkey"], ["l_orderkey"]))
        with pytest.raises(OptimizerError, match="exceeds GPU memory"):
            engine.plan(plan, "gpu")


# ----------------------------------------------------------------------
# Estimate once: one pass per plan, stamped onto the physical plan
# ----------------------------------------------------------------------
#: The five estimation rules; every one applies at a distinct kind of
#: logical node (``OrderBy`` passes its child's estimate through).
RULES = ("table_estimate", "_filtered", "_projected", "_joined",
         "_aggregated")

# Recorded at the parent commit (three walks, re-estimation per join side)
# on the suite's SF 0.005 dataset: the one pass must reproduce them bit
# for bit.
Q5_HYBRID_ESTIMATES = [
    ("scan(region)", "0x1.4000000000000p+2"),
    ("filter-project", "0x1.0000000000000p+0"),
    ("scan(nation)", "0x1.9000000000000p+4"),
    ("join[non-partitioned]", "0x1.4000000000000p+2"),
    ("scan(supplier)", "0x1.9000000000000p+5"),
    ("join[non-partitioned]", "0x1.7cf3cf3cf3cf4p+3"),
    ("scan(customer)", "0x1.7700000000000p+9"),
    ("scan(orders)", "0x1.d4c0000000000p+12"),
    ("filter-project", "0x1.2d5088510e3abp+11"),
    ("join[non-partitioned]", "0x1.2d5088510e3abp+11"),
    ("scan(lineitem)", "0x1.d4d8000000000p+14"),
    ("join[non-partitioned]", "0x1.3310d7fc7e1edp+13"),
    ("join[non-partitioned]", "0x1.7653ec7a815dap+6"),
    ("filter-project", "0x1.7653ec7a815dap+6"),
    ("aggregate-partial", "0x1.4000000000000p+2"),
    ("aggregate-final", "0x1.4000000000000p+2"),
    ("sort", "0x1.4000000000000p+2"),
]
Q9_HYBRID_ESTIMATES = [
    ("scan(nation)", "0x1.9000000000000p+4"),
    ("scan(supplier)", "0x1.9000000000000p+5"),
    ("join[non-partitioned]", "0x1.9000000000000p+5"),
    ("scan(orders)", "0x1.d4c0000000000p+12"),
    ("scan(partsupp)", "0x1.f400000000000p+11"),
    ("scan(lineitem)", "0x1.d4d8000000000p+14"),
    ("join[non-partitioned]", "0x1.d4d8000000000p+14"),
    ("join[non-partitioned]", "0x1.d4d8000000000p+14"),
    ("join[non-partitioned]", "0x1.d4d8000000000p+14"),
    ("filter-project", "0x1.d4d8000000000p+14"),
    ("aggregate-partial", "0x1.d4d8000000000p+14"),
    ("aggregate-final", "0x1.d4d8000000000p+14"),
    ("sort", "0x1.d4d8000000000p+14"),
]
#: (total, peak intermediate, build, largest build) bytes, backed.
WORKING_SETS = {
    "Q1": (1440288, 1440288, 0, 0, True),
    "Q5": (483203, 432349, 50855, 38568, True),
    "Q6": (55469, 55469, 0, 0, True),
    "Q9": (2465656, 2280456, 185200, 120000, True),
}
#: Build side = logical right: filtered orders under filtered lineitem.
SWAPPED_JOIN_ESTIMATES = [
    ("scan(orders)", "0x1.d4c0000000000p+12"),
    ("filter-project", "0x1.a132292f40cbfp+11"),
    ("scan(lineitem)", "0x1.d4d8000000000p+14"),
    ("filter-project", "0x1.4da00a07f0f41p+12"),
    ("join[non-partitioned]", "0x1.a132292f40cbfp+11"),
]
SWAPPED_JOIN_WORKING_SET = (120152, 66751, 53401, 53401, True)


def _swapped_join():
    return (scan("lineitem", ["l_orderkey", "l_quantity"])
            .filter(col("l_quantity") < lit(10.0))
            .join(scan("orders", ["o_orderkey", "o_orderdate"])
                  .filter(col("o_orderdate") >= lit(19950601)),
                  ["l_orderkey"], ["o_orderkey"]))


def _estimated(result) -> list[tuple[str, str]]:
    return [(op.label, float(op.estimated_rows).hex())
            for op in result.cardinality.operators]


def _rule_bearing_nodes(plan) -> int:
    return sum(1 for node in plan.walk() if not isinstance(node, OrderBy))


@pytest.fixture
def rule_calls(monkeypatch):
    """Every application of an estimation rule while the test runs."""
    calls: list[str] = []
    for name in RULES:
        def counted(self, *args, _rule=getattr(CardinalityEstimator, name),
                    _name=name, **kwargs):
            calls.append(_name)
            return _rule(self, *args, **kwargs)
        monkeypatch.setattr(CardinalityEstimator, name, counted)
    return calls


class TestEstimateOnce:
    @pytest.mark.parametrize("mode", ["cpu", "hybrid", "gpu"])
    @pytest.mark.parametrize("name, nodes", [("Q1", 4), ("Q5", 15),
                                             ("Q6", 4), ("Q9", 11)])
    def test_execute_applies_each_rule_once_per_node(
            self, engine, tpch_dataset, rule_calls, name, nodes, mode):
        plan = all_queries(tpch_dataset)[name].plan
        assert _rule_bearing_nodes(plan) == nodes
        engine.execute(plan, mode)
        assert len(rule_calls) == nodes, sorted(rule_calls)

    def test_served_ticket_estimates_at_submit_and_at_execute(
            self, tpch_dataset, rule_calls):
        from repro.server import QueryServer
        server = QueryServer(default_server())
        server.register_dataset(tpch_dataset.tables)
        plan = all_queries(tpch_dataset)["Q5"].plan
        ticket = server.submit("t", plan, "hybrid")
        assert len(rule_calls) == 15            # admission's working set
        server.run()
        assert ticket.status == "completed"
        assert len(rule_calls) == 30            # + the optimizer's pass

    def test_estimates_match_the_three_walk_estimator(self, engine,
                                                      tpch_dataset):
        queries = all_queries(tpch_dataset)
        assert _estimated(engine.execute(queries["Q5"].plan, "hybrid")) \
            == Q5_HYBRID_ESTIMATES
        assert _estimated(engine.execute(queries["Q9"].plan, "hybrid")) \
            == Q9_HYBRID_ESTIMATES
        estimator = engine.optimizer.estimator
        for name, expected in WORKING_SETS.items():
            assert dataclasses.astuple(
                estimator.working_set(queries[name].plan)) == expected, name

    def test_swapped_join_keeps_the_logical_estimate(self, engine):
        plan = _swapped_join()
        result = engine.execute(plan, "hybrid")
        assert result.physical_plan.swapped
        assert _estimated(result) == SWAPPED_JOIN_ESTIMATES
        assert dataclasses.astuple(engine.optimizer.estimator.working_set(
            plan)) == SWAPPED_JOIN_WORKING_SET

    def test_reads_agree_with_the_pass(self, engine, tpch_dataset):
        estimator = engine.optimizer.estimator
        plan = all_queries(tpch_dataset)["Q5"].plan
        nodes = estimator.estimate_nodes(plan)
        # Keyed by identity, one entry per node, recorded bottom-up.
        assert list(nodes) == [id(node) for node in plan.walk()]
        assert estimator.estimate(plan) == nodes[id(plan)]
        assert estimator.estimate_rows(plan) == nodes[id(plan)].num_rows
        for node in plan.walk():
            assert estimator.estimate(node) == nodes[id(node)]

    def test_stamps_are_not_part_of_the_structural_key(self, engine,
                                                       tpch_dataset):
        plan = all_queries(tpch_dataset)["Q5"].plan
        stamped = engine.plan(plan, "hybrid")
        bare = engine.plan(plan, "hybrid")
        for node in bare.walk():
            node.est_rows = None
        assert structural_key(stamped) == structural_key(bare)

    def test_both_aggregate_phases_carry_the_logical_estimate(
            self, engine, tpch_dataset):
        plan = all_queries(tpch_dataset)["Q1"].plan
        aggregate = next(node for node in plan.walk()
                         if isinstance(node, Aggregate))
        expected = engine.optimizer.estimator.estimate(aggregate).rows
        phases = {node.phase: node.est_rows
                  for node in engine.plan(plan, "hybrid").walk()
                  if isinstance(node, PAggregate)}
        assert phases == {"partial": expected, "final": expected}


# ----------------------------------------------------------------------
# Session-level auto mode
# ----------------------------------------------------------------------
class TestAutoMode:
    def test_small_queries_stay_on_cpus(self, engine):
        plan = scan("region").aggregate([], [agg_count("c")])
        assert engine.resolve_mode(plan, "auto") is ExecutionMode.CPU_ONLY

    def test_large_scans_offload_when_they_fit(self, engine, monkeypatch):
        # The SF 0.005 test dataset never clears the real 32 MB PCIe
        # amortization bar; lower it to observe the offload decision.
        monkeypatch.setattr("repro.engine.optimizer.GPU_OFFLOAD_MIN_BYTES",
                            1024)
        plan = (scan("lineitem", ["l_orderkey", "l_extendedprice"])
                .filter(col("l_orderkey") > lit(0))
                .aggregate([], [agg_sum(col("l_extendedprice"), "s")]))
        assert engine.resolve_mode(plan, "auto") is ExecutionMode.GPU_ONLY

    def test_oversized_working_sets_coprocess(self, tpch_dataset):
        tiny = default_server(gpu_spec=gtx_1080().with_memory_capacity(
            64 * 1024))
        engine = HAPEEngine(tiny)
        engine.register_dataset(tpch_dataset.tables)
        plan = scan("orders").join(
            scan("lineitem", ["l_orderkey", "l_extendedprice"]),
            ["o_orderkey"], ["l_orderkey"])
        assert engine.resolve_mode(plan, "auto") is ExecutionMode.HYBRID

    def test_unbacked_estimates_hedge_to_hybrid(self, engine):
        plan = (scan("lineitem", ["l_orderkey", "l_quantity"])
                .filter((col("l_quantity") + lit(0.0)) > lit(0.0))
                .aggregate([], [agg_count("c")]))
        assert engine.resolve_mode(plan, "auto") is ExecutionMode.HYBRID

    def test_auto_resolution_executes_end_to_end(self, engine):
        plan = scan("nation").aggregate([], [agg_count("c")])
        result = engine.execute(plan, "auto")
        assert result.mode is ExecutionMode.CPU_ONLY
        assert result.table.num_rows == 1
