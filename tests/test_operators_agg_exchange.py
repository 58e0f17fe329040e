"""Tests for aggregation and filter/project."""

from __future__ import annotations

import numpy as np
import pytest

from repro.operators import apply_filter_project, hash_aggregate, merge_partials
from repro.relational import agg_avg, agg_count, agg_sum, col, lit


@pytest.fixture
def columns():
    return {
        "group": np.asarray([0, 1, 0, 1, 2], dtype=np.int32),
        "value": np.asarray([1.0, 2.0, 3.0, 4.0, 5.0]),
    }


class TestFilterProject:
    def test_filter_and_project(self, columns, cpu):
        result = apply_filter_project(
            columns, cpu,
            predicate=col("value") > lit(2.0),
            projections={"double": col("value") * lit(2.0),
                         "group": col("group")})
        assert result.num_rows == 3
        assert result.columns["double"].tolist() == [6.0, 8.0, 10.0]
        assert result.cost.seconds > 0

    def test_projection_only(self, columns, cpu):
        result = apply_filter_project(columns, cpu,
                                      projections={"v": col("value")})
        assert result.num_rows == 5

    def test_empty_input(self, cpu):
        result = apply_filter_project({"x": np.asarray([])[:0]}, cpu,
                                      predicate=col("x") > lit(1))
        assert result.num_rows == 0

    def test_gpu_charges_kernel_launch(self, columns, gpu):
        result = apply_filter_project(columns, gpu,
                                      predicate=col("value") > lit(0.0))
        assert "kernel-launch" in result.cost.breakdown


class TestAggregation:
    def test_grouped_aggregate_matches_numpy(self, columns, cpu):
        result = hash_aggregate(
            columns, cpu, group_by=["group"],
            aggregates=[agg_sum(col("value"), "total"),
                        agg_count("n"),
                        agg_avg(col("value"), "mean")])
        by_group = dict(zip(result.columns["group"].tolist(),
                            result.columns["total"].tolist()))
        assert by_group == {0: 4.0, 1: 6.0, 2: 5.0}
        means = dict(zip(result.columns["group"].tolist(),
                         result.columns["mean"].tolist()))
        assert means[0] == pytest.approx(2.0)

    def test_grand_aggregate(self, columns, cpu):
        result = hash_aggregate(columns, cpu, group_by=[],
                                aggregates=[agg_sum(col("value"), "s")])
        assert result.columns["s"][0] == pytest.approx(15.0)

    def test_partial_then_merge_equals_complete(self, columns, cpu):
        aggregates = [agg_sum(col("value"), "total"),
                      agg_avg(col("value"), "mean"), agg_count("n")]
        first = {name: values[:3] for name, values in columns.items()}
        second = {name: values[3:] for name, values in columns.items()}
        partials = [
            hash_aggregate(first, cpu, group_by=["group"],
                           aggregates=aggregates, phase="partial").columns,
            hash_aggregate(second, cpu, group_by=["group"],
                           aggregates=aggregates, phase="partial").columns,
        ]
        merged = merge_partials(partials, cpu, group_by=["group"],
                                aggregates=aggregates)
        complete = hash_aggregate(columns, cpu, group_by=["group"],
                                  aggregates=aggregates, phase="complete")
        merged_sorted = {k: np.asarray(v)[np.argsort(merged.columns["group"])]
                         for k, v in merged.columns.items()}
        complete_sorted = {k: np.asarray(v)[np.argsort(complete.columns["group"])]
                           for k, v in complete.columns.items()}
        for key in ("total", "mean", "n"):
            np.testing.assert_allclose(merged_sorted[key], complete_sorted[key])

    def test_empty_aggregate(self, cpu):
        result = hash_aggregate({}, cpu, group_by=[],
                                aggregates=[agg_count("n")])
        assert result.num_rows in (0, 1)
