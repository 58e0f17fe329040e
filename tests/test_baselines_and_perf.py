"""Tests for the commercial-system baselines and the paper-scale models.

The paper-shape assertions the bench gates state (``fig5``-``fig9`` and
``claims`` in ``benchmarks/run_benchmarks.py``) are checked on the real
models by ``tests/test_bench_gates.py``; what is here is what no gate
states.
"""

from __future__ import annotations

import pytest

from repro.baselines import DBMSC, DBMSG
from repro.hardware import default_server
from repro.operators import (
    coprocessed_join_kernel,
    cpu_radix_join_kernel,
    gpu_partitioned_join_kernel,
    hash_join_kernel,
)
from repro.perf import (
    FIGURE8_SYSTEMS,
    JoinModels,
    TPCHModels,
    dense_coprocessed_stats,
    dense_hash_stats,
    dense_join_stats,
    format_headline_claims,
    format_series,
    headline_claims,
)
from repro.storage import make_join_pair
from repro.workloads import run_all_variants, run_coprocessed_join


class TestDBMSC:
    def test_vector_at_a_time_penalizes_many_aggregates(self):
        """Relative to CPU-only, Q1 (8 aggregate primitives) is hit harder
        than Q6 (4)."""
        baseline = DBMSC()
        assert baseline.query_seconds("Q1", 1.0) \
            > baseline.query_seconds("Q6", 1.0) > 1.0

    def test_join_seconds_scales_with_input(self):
        baseline = DBMSC()
        assert baseline.join_seconds(64_000_000) < baseline.join_seconds(256_000_000)


class TestDBMSG:
    def test_runs_only_q1_of_the_evaluated_queries(self):
        baseline = DBMSG()
        assert baseline.query_seconds("Q1", 1.0) > 1.0
        for name in ("Q5", "Q6", "Q9"):
            assert baseline.query_seconds(name, 1.0) is None

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


class TestFigure7IsAReplay:
    """One derivation: Figure 7 replays the record an executed co-processed
    join of the microbenchmark leaves through the operator's own
    timeline."""

    TUPLES = 300_000

    @pytest.mark.parametrize("num_gpus", [1, 2])
    def test_synthesized_stats_equal_the_kernels_record(self, num_gpus):
        specs = [gpu.spec for gpu in default_server().gpus()[:num_gpus]]
        workload = make_join_pair(self.TUPLES)
        _, stats = coprocessed_join_kernel(
            workload.build.arrays(), workload.probe.arrays(),
            build_keys=["key"], probe_keys=["key"], gpu_specs=specs)
        assert stats == dense_coprocessed_stats(self.TUPLES, specs)
        assert len(stats.copartitions) == num_gpus

    @pytest.mark.parametrize("num_gpus", [1, 2])
    def test_model_seconds_equal_executed_seconds_bit_for_bit(self,
                                                              num_gpus):
        executed = run_coprocessed_join(self.TUPLES, num_gpus=num_gpus)
        assert executed.simulated_seconds == JoinModels().coprocessing_seconds(
            self.TUPLES, num_gpus=num_gpus)


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

    def test_comparators_are_priced_from_the_proteus_bars(self, figure8):
        dbms_c, dbms_g = DBMSC(), DBMSG()
        for query, estimates in figure8.items():
            bars = {e.system: e.seconds for e in estimates}
            assert bars["DBMS C"] == dbms_c.query_seconds(
                query, bars["Proteus CPUs"])
            assert bars["DBMS G"] == dbms_g.query_seconds(
                query, bars["Proteus GPUs"])

    def test_q9_gpu_only_runs_once_its_join_state_fits(self):
        """A GPU large enough for Q9's orders hash table gets a GPU-only
        bar from the GPU join pipeline, not the CPU-only seconds."""
        big = default_server(
            gpu_spec=default_server().gpus()[0].spec.with_memory_capacity(
                64 * 1024 ** 3))
        cpu, _, gpu = TPCHModels(big).q9_seconds()
        assert gpu is not None and gpu != cpu

    def test_headline_claims_listed_and_formatted(self):
        assert len(headline_claims()) >= 10
        text = format_headline_claims()
        assert "paper" in text and "measured" in text

    def test_format_series_helper(self):
        series = JoinModels().figure7_series(sizes_mtuples=(256,))
        text = format_series("Figure 7", series)
        assert "Figure 7" in text and "DBMS C" in text


#: ``float.hex`` of every Fig. 8 bar (``FIGURE8_SYSTEMS`` order, ``None``
#: where the configuration cannot run the query), both Fig. 9
#: configurations and every headline claim on the default server.  The
#: models are closed forms, so a refactor of them must reproduce these to
#: the bit; a deliberate change of a model moves them in the same diff.
FIGURE8_HEX = {
    "Q1": ("0x1.061cfdf06d2d8p-1", "0x1.0b7666630c240p-2",
           "0x1.d4e4e6d63c222p-3", "0x1.0650ec3dac472p+0",
           "0x1.8979625c826abp+0"),
    "Q5": ("0x1.2070cf65cd03fp+0", "0x1.9c0edf23b72a4p-1",
           "0x1.0453ccbec4309p-1", "0x1.85945618fc32ep-1", None),
    "Q6": ("0x1.cf7eb027f5cc6p-3", "0x1.392c1628d6833p-3",
           "0x1.170cb4dcd259bp-3", "0x1.4ddbd53b588e3p-1", None),
    "Q9": ("0x1.3202a117334dcp+1", "0x1.d6c8f7d4ec77ap+0",
           "0x1.0add9421875f6p+0", None, None),
}
FIGURE9_HEX = {
    "GPU": {"Partitioned join": "0x1.85945618fc32ep-1",
            "Non partitioned join": "0x1.76fb80411919ap+0"},
    "Hybrid": {"Partitioned join": "0x1.0453ccbec4309p-1",
               "Non partitioned join": "0x1.59b908a21228fp-1"},
}
CLAIMS_HEX = {
    "GPU radix join vs best CPU join (128M tuples)": "0x1.801f8dc41ab5fp+2",
    "GPU radix join vs non-partitioned GPU join (128M tuples)":
        "0x1.72aba7d851bffp+2",
    "Co-processing vs DBMS G (512M tuples)": "0x1.40f22ee0e9b55p+3",
    "Co-processing vs DBMS C (2B tuples)": "0x1.e471b3dca41f2p+1",
    "2-GPU vs 1-GPU co-processing (2B tuples)": "0x1.a8fc3ad2adcabp+0",
    "TPC-H Q1: Proteus Hybrid vs DBMS C": "0x1.1e35a5359b68dp+1",
    "TPC-H Q5: Proteus Hybrid vs DBMS C": "0x1.1ba5606ab894cp+1",
    "TPC-H Q6: Proteus Hybrid vs DBMS C": "0x1.a935c0e5b497fp+0",
    "TPC-H Q9: Proteus Hybrid vs DBMS C": "0x1.258d0a14b427bp+1",
    "TPC-H Q9: Proteus Hybrid vs Proteus CPUs": "0x1.c39de81fda15ap+0",
    "Q5 GPU config: partitioned vs non-partitioned join":
        "0x1.ecd0e8f5a07acp+0",
    "Q5 hybrid config: partitioned vs non-partitioned join":
        "0x1.53f9d75b62680p+0",
}


def _hex(seconds: float | None) -> str | None:
    return None if seconds is None else seconds.hex()


class TestFiguresArePinned:
    def test_figure8_bars(self):
        assert {query: tuple(_hex(e.seconds) for e in estimates)
                for query, estimates in TPCHModels().figure8().items()} \
            == FIGURE8_HEX

    def test_figure9_configurations(self):
        assert {config: {variant: _hex(seconds)
                         for variant, seconds in variants.items()}
                for config, variants in TPCHModels().figure9().items()} \
            == FIGURE9_HEX

    def test_headline_claims(self):
        assert {claim.name: _hex(claim.measured)
                for claim in headline_claims()} == CLAIMS_HEX
