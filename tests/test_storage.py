"""Tests for the columnar storage layer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import CatalogError, SchemaError
from repro.storage import (
    Catalog,
    Column,
    Table,
    date_to_int,
    int_to_date,
    make_join_pair,
    make_join_relation,
    make_partial_match_pair,
    make_skewed_relation,
    year_of,
)


class TestDtypes:
    def test_date_round_trip(self):
        assert date_to_int("1998-09-02") == 19980902
        assert int_to_date(19980902) == "1998-09-02"

    def test_invalid_dates_rejected(self):
        with pytest.raises(ValueError):
            date_to_int("1998/09/02")
        with pytest.raises(ValueError):
            date_to_int("1998-13-02")

    def test_year_extraction(self):
        dates = np.asarray([19940101, 19951231], dtype=np.int32)
        assert list(year_of(dates)) == [1994, 1995]

    @given(st.integers(min_value=1992, max_value=2030),
           st.integers(min_value=1, max_value=12),
           st.integers(min_value=1, max_value=28))
    def test_date_round_trip_property(self, year, month, day):
        text = f"{year:04d}-{month:02d}-{day:02d}"
        assert int_to_date(date_to_int(text)) == text


class TestColumnAndTable:
    def test_column_basicas(self):
        column = Column("x", np.arange(10, dtype=np.int32))
        assert len(column) == 10
        assert column.nbytes == 40
        assert column.take(np.asarray([1, 3])).values.tolist() == [1, 3]

    @pytest.mark.parametrize("values, feed", [
        (["A", "N", "A", "R"], list),
        ([], list),
        (["b", "a", "c", "a"], lambda values: (v for v in values)),
        (["x"] * 5, list),
        (["é", "z", "ß", "日本", "a", "é"], list),
    ], ids=["flags", "empty", "generator", "repeated", "non-ascii"])
    def test_dictionary_column(self, values, feed):
        column = Column.from_strings("flag", feed(values))
        labels = sorted(set(values))
        assert list(column.dictionary.values) == labels
        assert all(type(label) is str for label in column.dictionary.values)
        assert column.values.tolist() == [labels.index(v) for v in values]
        assert column.decoded() == values
        assert column.values.dtype == np.int32

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(SchemaError):
            Table("t", [Column("a", np.arange(3)), Column("b", np.arange(4))])

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            Table("t", [Column("a", np.arange(3)), Column("a", np.arange(3))])

    def test_table_operations(self):
        table = Table.from_arrays("t", {"a": np.arange(6), "b": np.arange(6) * 2})
        assert table.num_rows == 6
        filtered = table.filter(table.array("a") % 2 == 0)
        assert filtered.num_rows == 3
        sliced = table.slice(1, 3)
        assert sliced.array("a").tolist() == [1, 2]
        with pytest.raises(SchemaError):
            table.column("missing")

    def test_table_equality_ignoring_order(self):
        table = Table.from_arrays("t", {"a": np.asarray([3, 1, 2])})
        shuffled = Table.from_arrays("t", {"a": np.asarray([1, 2, 3])})
        assert table.equals(shuffled, check_order=False)
        assert not table.equals(shuffled, check_order=True)


class TestCatalog:
    def test_register_and_lookup(self):
        catalog = Catalog()
        table = Table.from_arrays("t", {"a": np.arange(10)})
        catalog.register(table)
        assert "t" in catalog
        assert catalog.table("t") is table
        assert catalog.statistics("t").num_rows == 10
        assert catalog.statistics("t").nbytes == table.nbytes
        assert catalog.statistics("t").column("a").ndv == 10

    def test_duplicate_registration(self):
        catalog = Catalog()
        table = Table.from_arrays("t", {"a": np.arange(3)})
        catalog.register(table)
        with pytest.raises(CatalogError):
            catalog.register(table)
        catalog.register(table, replace=True)

    def test_unknown_table(self):
        with pytest.raises(CatalogError):
            Catalog().table("nope")

    def test_drop(self):
        catalog = Catalog()
        catalog.register(Table.from_arrays("t", {"a": np.arange(3)}))
        catalog.drop("t")
        assert "t" not in catalog

    def test_every_registration_gets_its_own_version(self):
        catalog = Catalog()
        for index in range(200):
            catalog.register(Table.from_arrays(f"t{index}",
                                               {"a": np.arange(3)}))
        versions = list(catalog.table_versions.values())
        assert len(versions) == len(set(versions)) == 200
        assert versions == sorted(versions)

    def test_versions_only_move_forward(self):
        """A subscriber sees each replacement once, with a newer version
        than the last; a drop and re-registration moves forward too."""
        catalog = Catalog()
        catalog.register(Table.from_arrays("t", {"a": np.arange(3)}))
        observed: list[int] = []
        catalog.subscribe(lambda name: observed.append(
            catalog.table_versions.get(name, -1)))
        history = [catalog.version("t")]
        for seed in range(100):
            catalog.register(Table.from_arrays("t", {"a": np.arange(seed)}),
                             replace=True)
            history.append(catalog.version("t"))
        assert history == sorted(set(history))
        assert observed == history[1:]
        catalog.drop("t")
        assert observed[-1] == -1  # delivered after the table is gone
        catalog.register(Table.from_arrays("t", {"a": np.arange(3)}))
        assert catalog.version("t") > history[-1]


class TestDataGenerators:
    def test_join_pair_has_identical_key_sets(self):
        workload = make_join_pair(1000, seed=1)
        assert set(workload.build.array("key")) == set(workload.probe.array("key"))
        assert workload.expected_matches == 1000

    def test_partial_match_pair(self):
        workload = make_partial_match_pair(500, 400, match_fraction=0.25, seed=2)
        build_keys = set(workload.build.array("key").tolist())
        matches = sum(1 for key in workload.probe.array("key")
                      if int(key) in build_keys)
        assert matches == workload.expected_matches == 100

    def test_skewed_relation(self):
        table = make_skewed_relation(10_000, zipf_s=1.3, seed=3)
        values, counts = np.unique(table.array("key"), return_counts=True)
        assert counts.max() > 10 * np.median(counts)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            make_join_relation(0)
        with pytest.raises(ValueError):
            make_join_relation(10, key_space=5)
        with pytest.raises(ValueError):
            make_partial_match_pair(10, 10, match_fraction=1.5)
        with pytest.raises(ValueError):
            make_skewed_relation(10, zipf_s=0.9)
