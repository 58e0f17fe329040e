"""Tests for the workload helpers, execution modes and error hierarchy."""

from __future__ import annotations

import pytest

from repro import errors
from repro.engine import ExecutionMode, HAPEEngine
from repro.hardware import default_server
from repro.storage import make_join_pair
from repro.workloads import (
    EVALUATED_QUERIES,
    FIGURE6_VARIANTS,
    all_queries,
    build_query,
    run_all_variants,
    run_coprocessed_join,
    run_join_variant,
)


class TestExecutionModes:
    def test_mode_capabilities(self):
        assert ExecutionMode.CPU_ONLY.uses_cpus
        assert not ExecutionMode.CPU_ONLY.uses_gpus
        assert ExecutionMode.GPU_ONLY.uses_gpus
        assert not ExecutionMode.GPU_ONLY.uses_cpus
        assert ExecutionMode.HYBRID.uses_cpus and ExecutionMode.HYBRID.uses_gpus

    def test_round_trip_string(self):
        for mode in ExecutionMode:
            assert ExecutionMode.parse(str(mode)) is mode

    @pytest.mark.parametrize("bad", ["tpu", "CPU", "auto", "", None, 3,
                                     ["cpu"], {"cpu": 1}])
    def test_a_bad_mode_names_the_three(self, bad, tpch_dataset):
        """Anything but a member or its exact value — an unhashable value
        too — is refused with one message, by the parser and by a
        session (which takes ``"auto"`` in any case)."""
        message = (f"unknown execution mode {bad!r}; expected one of "
                   "['cpu', 'gpu', 'hybrid']")
        with pytest.raises(ValueError) as refused:
            ExecutionMode.parse(bad)
        assert str(refused.value) == message
        engine = HAPEEngine(default_server())
        engine.register_dataset(tpch_dataset.tables)
        plan = build_query("Q6", tpch_dataset).plan
        if bad == "auto":
            assert engine.resolve_mode(plan, bad) in ExecutionMode
            assert engine.resolve_mode(plan, "AUTO") in ExecutionMode
            return
        with pytest.raises(ValueError) as refused:
            engine.resolve_mode(plan, bad)
        assert str(refused.value) == message


class TestTPCHQueryBuilders:
    def test_all_queries_built(self, tpch_dataset):
        queries = all_queries(tpch_dataset)
        assert set(queries) == set(EVALUATED_QUERIES)
        assert queries["Q1"].category == "scan-bound"
        assert queries["Q5"].category == "join-heavy"

    def test_query_lookup_is_case_insensitive(self, tpch_dataset):
        assert build_query("q6", tpch_dataset).name == "Q6"
        with pytest.raises(KeyError):
            build_query("Q3", tpch_dataset)

    def test_q9_drops_the_part_table(self, tpch_dataset):
        """The paper runs Q9 without the LIKE filter and the part join."""
        query = build_query("Q9", tpch_dataset)
        assert "part" not in query.plan.referenced_tables()
        assert "partsupp" in query.plan.referenced_tables()

    def test_q5_references_all_six_tables(self, tpch_dataset):
        query = build_query("Q5", tpch_dataset)
        assert query.plan.referenced_tables() == {
            "region", "nation", "supplier", "customer", "orders", "lineitem"}


class TestMicrobenchHelpers:
    def test_run_all_variants_agree_on_output(self):
        runs = run_all_variants(20_000, topology=default_server())
        assert set(runs) == set(FIGURE6_VARIANTS)
        assert len({run.output_rows for run in runs.values()}) == 1
        assert all(run.simulated_seconds > 0 for run in runs.values())
        assert all(run.throughput_mtuples_s > 0 for run in runs.values())

    def test_unknown_variant_rejected(self):
        workload = make_join_pair(1000)
        with pytest.raises(ValueError):
            run_join_variant("Sort-merge CPU", workload)

    def test_gpu_variant_needs_gpus(self):
        from repro.hardware import cpu_only_server
        workload = make_join_pair(1000)
        with pytest.raises(ValueError):
            run_join_variant("Partitioned GPU", workload, cpu_only_server())

    def test_coprocessed_run_uses_requested_gpu_count(self):
        topology = default_server()
        run = run_coprocessed_join(50_000, num_gpus=2, topology=topology)
        assert run.output_rows == 50_000
        assert "2" in run.variant


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in dir(errors):
            attr = getattr(errors, name)
            if isinstance(attr, type) and issubclass(attr, Exception) \
                    and attr.__module__ == "repro.errors":
                assert issubclass(attr, errors.ReproError)

    def test_out_of_memory_error_carries_context(self):
        error = errors.OutOfDeviceMemoryError("gpu0", 100, 10)
        assert error.device == "gpu0"
        assert error.requested == 100
        assert "gpu0" in str(error)
