"""Tests for the commercial-system baselines and the paper-scale models.

The paper-shape assertions the bench gates state (``fig5``-``fig9`` and
``claims`` in ``benchmarks/run_benchmarks.py``) are checked on the real
models by ``tests/test_bench_gates.py``; what is here is what no gate
states.
"""

from __future__ import annotations

import pytest

from repro.baselines import DBMSC, DBMSG
from repro.errors import UnsupportedQueryError
from repro.operators import (
    cpu_radix_join_kernel,
    gpu_partitioned_join_kernel,
    hash_join_kernel,
)
from repro.perf import (
    FIGURE8_SYSTEMS,
    JoinModels,
    TPCHModels,
    dense_hash_stats,
    dense_join_stats,
    format_headline_claims,
    format_series,
    headline_claims,
)
from repro.relational import execute_logical
from repro.storage import make_join_pair
from repro.workloads import build_query, run_all_variants


class TestDBMSC:
    def test_q1_matches_reference_and_costs_time(self, engine, tpch_dataset):
        query = build_query("Q1", tpch_dataset)
        baseline = DBMSC(engine.topology)
        result = baseline.execute(query.plan, engine.catalog)
        reference = execute_logical(query.plan, engine.catalog)
        assert result.table.equals(reference, check_order=False)
        assert result.simulated_seconds > 0

    def test_vector_at_a_time_penalizes_many_aggregates(self, engine, tpch_dataset):
        """Q1 (8 aggregates) is hit harder than Q6 (1 aggregate)."""
        baseline = DBMSC(engine.topology)
        q1 = baseline.execute(build_query("Q1", tpch_dataset).plan,
                              engine.catalog)
        q6 = baseline.execute(build_query("Q6", tpch_dataset).plan,
                              engine.catalog)
        assert q1.simulated_seconds > q6.simulated_seconds

    def test_join_seconds_scales_with_input(self):
        baseline = DBMSC()
        assert baseline.join_seconds(64_000_000) < baseline.join_seconds(256_000_000)


class TestDBMSG:
    def test_supports_only_star_like_queries(self, engine, tpch_dataset):
        baseline = DBMSG(engine.topology)
        q1 = build_query("Q1", tpch_dataset)
        result = baseline.execute(q1.plan, engine.catalog, query_name="Q1")
        reference = execute_logical(q1.plan, engine.catalog)
        assert result.table.equals(reference, check_order=False)
        for name in ("Q5", "Q6", "Q9"):
            with pytest.raises(UnsupportedQueryError):
                baseline.execute(build_query(name, tpch_dataset).plan,
                                 engine.catalog, query_name=name)

    def test_out_of_gpu_support_check(self):
        baseline = DBMSG()
        assert baseline.supports_out_of_gpu(64_000_000)
        assert not baseline.supports_out_of_gpu(2_000_000_000)

    def test_out_of_gpu_joins_are_interconnect_bound(self):
        baseline = DBMSG()
        n = 512_000_000
        assert baseline.join_seconds(n, data_on_gpu=False) \
            > 4 * baseline.join_seconds(min(n, 128_000_000), data_on_gpu=True)


class TestFigure5Model:
    def test_scratchpad_is_not_behind_the_combined_variant(self):
        series = JoinModels().figure5_series()
        for (_, sm), (_, both) in zip(series["SM"], series["SM+L1"]):
            assert sm <= both * 1.05

    def test_scratchpad_curve_is_flat(self):
        series = dict(JoinModels().figure5_series())["SM"]
        values = [seconds for _, seconds in series if _ >= 512]
        assert max(values) / min(values) < 2.0


class TestFigure6IsAReplay:
    """One derivation: the figure prices the record an executed join of
    the microbenchmark leaves, through the operators' own estimates."""

    TUPLES = 250_000

    def test_synthesized_stats_equal_the_kernels_records(self, cpu, gpu):
        workload = make_join_pair(self.TUPLES)
        sides = dict(build=workload.build.arrays(),
                     probe=workload.probe.arrays(),
                     build_keys=["key"], probe_keys=["key"])
        for kernel, spec in ((cpu_radix_join_kernel, cpu.spec),
                             (gpu_partitioned_join_kernel, gpu.spec)):
            _, stats = kernel(**sides, spec=spec)
            assert stats == dense_join_stats(self.TUPLES, spec)
            assert len(stats.build_run.calls) == stats.plan.num_passes
        _, stats = hash_join_kernel(**sides)
        assert stats == dense_hash_stats(self.TUPLES)

    def test_model_seconds_equal_executed_seconds_bit_for_bit(self):
        models = JoinModels()
        executed = {variant: run.simulated_seconds for variant, run
                    in run_all_variants(self.TUPLES).items()}
        sockets = models.num_cpus
        assert executed == {
            "Partitioned CPU":
                models.partitioned_cpu_seconds(self.TUPLES) * sockets,
            "Partitioned GPU": models.partitioned_gpu_seconds(self.TUPLES),
            "Non-partitioned CPU":
                models.non_partitioned_cpu_seconds(self.TUPLES) * sockets,
            "Non-partitioned GPU":
                models.non_partitioned_gpu_seconds(self.TUPLES),
        }


class TestFigure6Model:
    def test_gpu_radix_join_wins(self):
        models = JoinModels()
        n = 128_000_000
        gpu_radix = models.partitioned_gpu_seconds(n)
        assert models.partitioned_cpu_seconds(n) > 3 * gpu_radix
        assert models.non_partitioned_gpu_seconds(n) > 3 * gpu_radix
        assert models.dbms_c_seconds(n) > 3 * gpu_radix

    def test_partitioned_cpu_beats_non_partitioned_at_scale(self):
        models = JoinModels()
        for n in (32_000_000, 128_000_000):
            assert models.partitioned_cpu_seconds(n) \
                < models.non_partitioned_cpu_seconds(n)

    def test_gpu_variants_stop_at_memory_capacity(self):
        models = JoinModels()
        assert models.partitioned_gpu_seconds(512_000_000) is None
        series = models.figure6_series(sizes_mtuples=(128, 512))
        assert series["Partitioned GPU"][1].seconds is None
        assert not series["Partitioned GPU"][1].supported


class TestFigure7Model:
    def test_coprocessing_beats_both_baselines(self):
        models = JoinModels()
        for n in (256_000_000, 2_048_000_000):
            coproc = models.coprocessing_seconds(n, num_gpus=2)
            assert coproc < models.dbms_c_seconds(n)
            assert coproc < models.dbms_g_out_of_gpu_seconds(n)

    def test_second_gpu_almost_doubles_throughput(self):
        models = JoinModels()
        n = 2_048_000_000
        speedup = (models.coprocessing_seconds(n, num_gpus=1)
                   / models.coprocessing_seconds(n, num_gpus=2))
        assert 1.4 <= speedup <= 2.0

    def test_series_have_all_sizes(self):
        series = JoinModels().figure7_series()
        assert set(series) == {"1 GPU", "2 GPUs", "DBMS C", "DBMS G"}
        assert all(len(points) == 4 for points in series.values())


class TestFigure8And9Models:
    @pytest.fixture(scope="class")
    def figure8(self):
        return TPCHModels().figure8()

    def test_every_query_has_every_system(self, figure8):
        for query, estimates in figure8.items():
            assert [e.system for e in estimates] == list(FIGURE8_SYSTEMS)

    def test_scan_bound_queries_favor_cpu(self, figure8):
        for query in ("Q1", "Q6"):
            estimates = {e.system: e.seconds for e in figure8[query]}
            assert estimates["Proteus GPUs"] > 2.0 * estimates["Proteus CPUs"]

    def test_join_heavy_q5_favors_gpu(self, figure8):
        estimates = {e.system: e.seconds for e in figure8["Q5"]}
        assert estimates["Proteus GPUs"] < estimates["Proteus CPUs"]

    def test_q9_exceeds_gpu_memory(self, figure8):
        q9 = {e.system: e for e in figure8["Q9"]}
        assert not q9["Proteus GPUs"].supported
        assert not q9["DBMS G"].supported

    def test_headline_claims_listed_and_formatted(self):
        assert len(headline_claims()) >= 10
        text = format_headline_claims()
        assert "paper" in text and "measured" in text

    def test_format_series_helper(self):
        series = JoinModels().figure7_series(sizes_mtuples=(256,))
        text = format_series("Figure 7", series)
        assert "Figure 7" in text and "DBMS C" in text
