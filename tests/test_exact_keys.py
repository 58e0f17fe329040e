"""Exact keys: the key code is injective, the oracle shares none of it.

``repro.relational.keys.KeyDomain`` replaced a wrapping polynomial fold
(``acc * 1_000_003 + value``) that nothing verified and the reference
executor shared.  This module holds what that change is accepted on:

* the wrong answers of the fold, each through the kernel and through the
  engine, against expected values *and* the independent oracle;
* ``code(x) == code(y)`` iff the key tuples are equal, on every coding
  path and for probe tuples outside the build domain;
* the sorts the dense code makes unnecessary are not taken (and are still
  taken where they are needed).
"""

from __future__ import annotations

import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import HAPEEngine
from repro.hardware import default_server, gtx_1080
from repro.operators import (
    coprocessed_join_kernel,
    cpu_radix_join_kernel,
    gpu_partitioned_join_kernel,
    hash_aggregate_kernel,
    hash_join_kernel,
)
from repro.relational import (
    KeyDomain,
    agg_count,
    agg_sum,
    col,
    execute_logical,
    join_indices,
    join_indices_dict,
    scan,
)
from repro.operators import aggregate as aggregate_module
from repro.relational import keys as keys_module
from repro.relational.keys import group_ids
from repro.storage import Table, make_join_pair, make_skewed_relation
from repro.storage.column import Column
from repro.storage.dtypes import DataType
from repro.workloads import build_query

FOLD = 1_000_003   # the multiplier of the fold this suite saw off


# ----------------------------------------------------------------------
# The wrong answers of the wrapping fold
# ----------------------------------------------------------------------
def _aggregate_case(name, groups, expected_groups):
    """``(tables, plan, expected rows)``: group ``t`` on ``groups``."""
    columns = dict(groups)
    rows = len(next(iter(columns.values())))
    columns["v"] = np.arange(1.0, rows + 1)
    plan = scan(f"{name}_t").aggregate(
        list(groups), [agg_count("n"), agg_sum(col("v"), "s")])
    return [Table.from_arrays(f"{name}_t", columns)], plan, expected_groups


def _join_case(name, build, probe, expected_rows):
    """``(tables, plan, expected rows)``: ``b`` joined to ``p`` on all of
    ``build`` / ``probe`` (``p_``-prefixed), payloads riding along."""
    left = dict(build, bv=np.arange(len(next(iter(build.values())))) * 1.5)
    right = {f"p_{key}": values for key, values in probe.items()}
    right["pv"] = np.arange(len(next(iter(probe.values())))) * 2.5
    plan = scan(f"{name}_b").join(scan(f"{name}_p"), list(build),
                                  [f"p_{key}" for key in probe])
    return ([Table.from_arrays(f"{name}_b", left),
             Table.from_arrays(f"{name}_p", right)], plan, expected_rows)


_NAN = float("nan")

#: name -> (tables, logical plan, rows the right answer has).  The first
#: two collide under ``a * 1_000_003 + b``; the float columns were
#: truncated to int64 before folding.
REPRODUCTIONS = {
    "aggregate_collision": _aggregate_case(
        "agg2", {"a": np.asarray([0, 1, 0, 1]),
                 "b": np.asarray([FOLD, 0, FOLD, 0])}, 2),
    "join_collision": _join_case(
        "join2", {"a": np.asarray([0, 5]), "b": np.asarray([FOLD, 7])},
        {"a": np.asarray([1, 5, 0]), "b": np.asarray([0, 7, FOLD])}, 2),
    "float_group_by": _aggregate_case(
        "aggf", {"g": np.asarray([2.5, 2.25, 2.5, -0.5, _NAN, _NAN])}, 4),
    "float_join_key": _join_case(
        "joinf", {"k": np.asarray([1.5, 2.0, -3.25])},
        {"k": np.asarray([1.25, 1.5, 2.0, 2.75, -3.25])}, 3),
    "nan_join_key": _join_case(
        "joinn", {"k": np.asarray([_NAN, 4.0, _NAN])},
        {"k": np.asarray([_NAN, 4.0, 4.5])}, 1),
}


def _assert_same_cells(got: Table, expected: Table, context: str) -> None:
    assert set(got.column_names) == set(expected.column_names), context
    for name in expected.column_names:
        np.testing.assert_array_equal(   # NaN cells compare equal here
            got.array(name), expected.array(name),
            err_msg=f"{context}: column {name!r}")


@pytest.mark.parametrize("name", sorted(REPRODUCTIONS))
class TestFoldReproductions:
    def test_kernel(self, name):
        tables, plan, expected_rows = REPRODUCTIONS[name]
        arrays = [table.arrays() for table in tables]
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # the fold cast NaN with one
            if len(tables) == 1:
                columns, stats = hash_aggregate_kernel(
                    arrays[0], group_by=plan.group_by,
                    aggregates=plan.aggregates)
                assert stats.num_groups == expected_rows
                assert columns["n"].sum() == tables[0].num_rows
            else:
                columns, _ = hash_join_kernel(
                    *arrays, build_keys=plan.left_keys,
                    probe_keys=plan.right_keys)
                oracle = join_indices(
                    [arrays[0][key] for key in plan.left_keys],
                    [arrays[1][key] for key in plan.right_keys])
                np.testing.assert_array_equal(columns["bv"],
                                              arrays[0]["bv"][oracle[0]])
                np.testing.assert_array_equal(columns["pv"],
                                              arrays[1]["pv"][oracle[1]])
        assert len(next(iter(columns.values()))) == expected_rows

    @pytest.mark.parametrize("mode", ["cpu", "hybrid"])
    def test_engine(self, name, mode):
        tables, plan, expected_rows = REPRODUCTIONS[name]
        engine = HAPEEngine(default_server())
        for table in tables:
            engine.register_table(table)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = engine.execute(plan, mode)
        assert result.table.num_rows == expected_rows
        _assert_same_cells(result.table,
                           execute_logical(plan, engine.catalog),
                           f"{name}, mode={mode}")


def test_oracles_agree_on_the_reproductions():
    """The vectorised reference and its dictionary cross-check, which key
    on tuples of column values, give the same pairs."""
    for name, (tables, plan, expected_rows) in REPRODUCTIONS.items():
        if len(tables) == 2:
            sides = ([tables[0].array(key) for key in plan.left_keys],
                     [tables[1].array(key) for key in plan.right_keys])
            fast, slow = join_indices(*sides), join_indices_dict(*sides)
            assert len(fast[0]) == expected_rows, name
            np.testing.assert_array_equal(fast[0], slow[0], err_msg=name)
            np.testing.assert_array_equal(fast[1], slow[1], err_msg=name)


@pytest.mark.parametrize("order", ["probe", "build"])
def test_partitioned_joins_on_wide_two_column_keys(cpu, gpu, order):
    """Radix, GPU-partitioned and co-processed joins on ``(a, b)`` keys
    whose second column spans more than 2**20 (multiples of the old
    multiplier, so the fold collided) and a probe side holding tuples on
    every side of the build domain."""
    rng = np.random.default_rng(5)
    rows = 600
    build = {"a": rng.integers(-4, 5, rows),
             "b": rng.integers(0, 4, rows) * FOLD,
             "bv": rng.normal(size=rows)}
    probe = {"pa": rng.integers(-6, 7, 2 * rows),
             "pb": rng.integers(-1, 6, 2 * rows) * FOLD - rng.integers(
                 0, 2, 2 * rows) * rng.integers(0, 9, 2 * rows),
             "pv": rng.normal(size=2 * rows)}
    assert build["b"].max() - build["b"].min() > 2**20
    outside = ((probe["pa"] < -4) | (probe["pa"] > 4)
               | (probe["pb"] < 0) | (probe["pb"] > 3 * FOLD))
    assert outside.any() and not outside.all()
    build_idx, probe_idx = join_indices([build["a"], build["b"]],
                                        [probe["pa"], probe["pb"]])
    held = Counter(zip(build["a"].tolist(), build["b"].tolist()))
    assert 0 < len(build_idx) == sum(
        held[pair] for pair in zip(probe["pa"].tolist(),
                                   probe["pb"].tolist()))
    if order == "build":
        perm = np.lexsort((probe_idx, build_idx))
        build_idx, probe_idx = build_idx[perm], probe_idx[perm]
    small_gpus = [gtx_1080(f"gpu{index}").with_memory_capacity(16 << 10)
                  for index in range(2)]
    keys = {"build_keys": ["a", "b"], "probe_keys": ["pa", "pb"],
            "output_order": order}
    for label, kernel, tuning in (
            ("hash", hash_join_kernel, {}),
            ("radix", cpu_radix_join_kernel, {"spec": cpu.spec}),
            ("gpu", gpu_partitioned_join_kernel, {"spec": gpu.spec}),
            ("coprocessed", coprocessed_join_kernel,
             {"gpu_specs": small_gpus})):
        columns, stats = kernel(build, probe, **keys, **tuning)
        np.testing.assert_array_equal(columns["bv"], build["bv"][build_idx],
                                      err_msg=label)
        np.testing.assert_array_equal(columns["pv"], probe["pv"][probe_idx],
                                      err_msg=label)
        if label == "coprocessed":
            assert len(stats.copartitions) > len(small_gpus)


#: Storage infers ``int32`` for narrower integers; a column given this
#: type keeps its ``int8`` values as they are.
_INT8 = DataType("int8", np.dtype(np.int8))


def _int8_tables() -> list[Table]:
    """``n8_b``: every ``int8`` value once, shuffled; ``n8_p``: 600 draws
    over the whole range.  Both key columns are ``int8``."""
    rng = np.random.default_rng(8)
    every = np.arange(-128, 128, dtype=np.int8)
    probe = rng.choice(every, 600)
    probe[:2] = [-128, 127]
    return [Table("n8_b", [Column("k", rng.permutation(every), _INT8),
                           Column("bv", np.arange(256) * 1.5)]),
            Table("n8_p", [Column("p_k", probe, _INT8),
                           Column("pv", np.arange(600) * 2.5)])]


class TestNarrowSignedKeys:
    """An ``int8`` key is its own code at its own width, spanning
    -128..127: a slot taken as ``code - low`` at ``int8`` width wraps
    127 - (-128) to -1."""

    def test_kernels_join_and_group_like_the_oracle(self, cpu, gpu):
        build, probe = (table.arrays() for table in _int8_tables())
        assert build["k"].dtype == probe["p_k"].dtype == np.int8
        oracle = join_indices([build["k"]], [probe["p_k"]])
        small_gpus = [gtx_1080(f"gpu{index}").with_memory_capacity(16 << 10)
                      for index in range(2)]
        keys = {"build_keys": ["k"], "probe_keys": ["p_k"]}
        for label, kernel, tuning in (
                ("hash", hash_join_kernel, {}),
                ("radix", cpu_radix_join_kernel, {"spec": cpu.spec}),
                ("gpu", gpu_partitioned_join_kernel, {"spec": gpu.spec}),
                ("coprocessed", coprocessed_join_kernel,
                 {"gpu_specs": small_gpus})):
            columns, _ = kernel(build, probe, **keys, **tuning)
            np.testing.assert_array_equal(columns["bv"],
                                          build["bv"][oracle[0]], label)
            np.testing.assert_array_equal(columns["pv"],
                                          probe["pv"][oracle[1]], label)
        columns, stats = hash_aggregate_kernel(
            probe, group_by=["p_k"], aggregates=[agg_count("n")])
        values, counts = np.unique(probe["p_k"], return_counts=True)
        assert stats.num_groups == len(values)
        np.testing.assert_array_equal(columns["p_k"], values)
        assert columns["p_k"].dtype == np.int8
        np.testing.assert_array_equal(columns["n"], counts)

    @pytest.mark.parametrize("mode", ["cpu", "hybrid", "gpu"])
    def test_engine(self, mode):
        engine = HAPEEngine(default_server())
        for table in _int8_tables():
            engine.register_table(table)
        joined = scan("n8_b").join(scan("n8_p"), ["k"], ["p_k"])
        for plan in (joined,
                     joined.aggregate(["k"], [agg_count("n"),
                                              agg_sum(col("pv"), "s")]),
                     scan("n8_p").aggregate(["p_k"], [agg_count("n")])):
            _assert_same_cells(engine.execute(plan, mode).table,
                               execute_logical(plan, engine.catalog),
                               f"{plan!r}, mode={mode}")


# ----------------------------------------------------------------------
# Injectivity, on every coding path
# ----------------------------------------------------------------------
_WIDE = 2**41    # three such ranges cannot be one mixed-radix number
_HUGE = 2**62    # one such range leaves no room for a second digit

#: Coding path -> one value strategy per key column.
_PATHS = {
    "pass-through": [st.integers(-2**63, 2**63 - 1)],
    "mixed-radix": [st.integers(-3, 3), st.integers(0, 2**20 + 5),
                    st.integers(-40, -35)],
    "ranked": [st.sampled_from([-_WIDE, 0, 3, _WIDE]),
               st.sampled_from([-_WIDE, 1, _WIDE]),
               st.sampled_from([-_WIDE, 2, _WIDE])],
    "ranked-floats": [st.sampled_from([0.5, 1.0, 1.5, -0.0, 0.0, _NAN]),
                      st.integers(0, 3)],
    "prefix-re-ranked": [st.sampled_from([0, 5, _HUGE]),
                         st.sampled_from([-_HUGE, 1, _HUGE]),
                         st.integers(0, 3)],
}


def _columns(rows: list[tuple], width: int) -> dict[str, np.ndarray]:
    return {f"k{index}": np.asarray([row[index] for row in rows])
            if rows else np.asarray([], dtype=np.int64)
            for index in range(width)}


def _tuples(columns: dict[str, np.ndarray], *, nan_is_nan: bool) -> list:
    """Key tuples as Python values, compared as NumPy ``==`` compares the
    columns; ``nan_is_nan`` makes NaN equal itself (grouping)."""
    rows = zip(*(values.tolist() for values in columns.values()))
    return [tuple("nan" if nan_is_nan and value != value else value
                  for value in row) for row in rows]


@st.composite
def _sides(draw):
    path = draw(st.sampled_from(sorted(_PATHS)))
    row = st.tuples(*_PATHS[path])
    build = draw(st.lists(row, max_size=30))
    # The probe side: build tuples, fresh draws, and tuples that leave the
    # build domain in one column (both sides of it, and a non-integer).
    strays = [tuple(value + step if index == column else value
                    for index, value in enumerate(tuple_))
              for tuple_ in build for column in range(len(tuple_))
              for step in (-1, 1, 0.5, 2**30)
              if -2**63 <= tuple_[column] + step < 2**63]
    probe = draw(st.lists(
        st.one_of(row, *(st.sampled_from(pool)
                         for pool in (build, strays) if pool)), max_size=40))
    probe_range = path == "mixed-radix" and build and draw(st.sampled_from(
        ["all columns", "all but one"] * 2 + ["any"]))
    if probe_range in ("all columns", "all but one"):
        # Each column's value is one the build column holds, so every
        # probe column is in range (trusted); the tuples need not be build
        # tuples.  Or all but one: some strays leave the range in one
        # column.
        probe = draw(st.lists(st.tuples(*(
            st.sampled_from(column) for column in zip(*build))),
            min_size=1, max_size=40))
        if probe_range == "all but one":
            probe += draw(st.lists(st.sampled_from(strays), min_size=1,
                                   max_size=3))
    width = len(_PATHS[path])
    return path, _columns(build, width), _columns(probe, width)


class TestInjectivity:
    def test_codes_are_equal_iff_the_key_tuples_are(self):
        taken = Counter()

        @given(_sides())
        @settings(max_examples=500, deadline=None, derandomize=True)
        def check(sides):
            path, build, probe = sides
            names = list(build)
            with np.errstate(all="raise"), warnings.catch_warnings():
                warnings.simplefilter("error")
                domain = KeyDomain(build, names)
                probe_codes = domain.encode(probe, names).tolist()
            codes = domain.codes.tolist()
            assert domain.codes.dtype == np.int64
            grouped = _tuples(build, nan_is_nan=True)
            for i, left in enumerate(grouped):
                for j, right in enumerate(grouped):
                    assert (codes[i] == codes[j]) == (left == right), (
                        path, left, right)
            # Codes order as the tuples do: group output is lexicographic.
            np.testing.assert_array_equal(
                np.argsort(domain.codes, kind="stable"),
                np.lexsort(list(build.values())[::-1]))
            built = _tuples(build, nan_is_nan=False)
            for p, right in enumerate(_tuples(probe, nan_is_nan=False)):
                for i, left in enumerate(built):
                    assert (probe_codes[p] == codes[i]) == (left == right), (
                        path, left, right)
            steps = domain._steps
            in_range = [values.dtype.kind in "iu" and step[3] is None
                        and step[2] is not None
                        and step[1] <= values.min() <= values.max()
                        < step[1] + step[2]
                        for values, step in zip(probe.values(), steps)
                        if len(values)]
            if path == "mixed-radix" and any(in_range):
                # Every probe column trusted, or some trusted and one
                # straying, which alone is checked.
                taken["trusted" if all(in_range) else
                      "one column strays"] += 1
            if len(codes) > 1:
                taken[path] += (
                    steps[0][2] is None if path == "pass-through" else
                    all(step[3] is None for step in steps)
                    if path == "mixed-radix" else
                    any(step[0] is not None for step in steps)
                    if path == "prefix-re-ranked" else
                    any(step[3] is not None for step in steps)
                    and all(step[0] is None for step in steps))

        check()
        assert set(taken) == set(_PATHS) | {"trusted", "one column strays"}, (
            taken)
        assert min(taken.values()) > 20, taken

    def test_a_probe_miss_against_a_column_that_is_its_own_code(self):
        """A single integer column is passed through, so its miss code has
        to be found: any int64 may be a build key, all of 0..rows cannot."""
        info = np.iinfo(np.int64)
        build = {"k": np.asarray([info.min, 0, 1, info.max, 3])}
        domain = KeyDomain(build, ["k"])
        codes = domain.encode({"k": np.asarray([0.0, 0.5, 3.0, _NAN, 1e300])},
                              ["k"])
        assert codes[[0, 2]].tolist() == [0, 3]
        assert not np.isin(codes[[1, 3, 4]], build["k"]).any()
        unsigned = domain.encode(
            {"k": np.asarray([3, 2**64 - 1], dtype=np.uint64)}, ["k"])
        assert unsigned[0] == 3 and unsigned[1] not in build["k"]

    def test_an_empty_build_side_matches_nothing(self):
        for names in (["a"], ["a", "b"]):
            empty = {name: np.asarray([], dtype=np.int64) for name in names}
            probe = {name: np.arange(4) for name in names}
            domain = KeyDomain(empty, names)
            assert len(domain.codes) == 0
            assert (domain.encode(probe, names) < 0).all()


# ----------------------------------------------------------------------
# The sorts that went
# ----------------------------------------------------------------------
class _NumpySpy:
    """Stands in for ``np`` inside one module and counts the named calls."""

    def __init__(self, *watched: str) -> None:
        self.watched, self.calls = watched, Counter()

    def __getattr__(self, name: str):
        if name in self.watched:
            self.calls[name] += 1
        return getattr(np, name)


@pytest.fixture
def keys_spy(monkeypatch):
    spy = _NumpySpy("unique", "argsort")
    monkeypatch.setattr(keys_module, "np", spy)
    return spy


class TestNoSortWhereTheCodeIsDense:
    @pytest.mark.parametrize("query", ["Q1", "Q9"])
    @pytest.mark.parametrize("mode", ["cpu", "hybrid"])
    def test_tpch_aggregates_number_groups_by_counting(
            self, engine, tpch_dataset, keys_spy, monkeypatch, query, mode):
        """Their partial aggregates and the merge count slots: neither
        ``np.unique`` nor ``group_ids`` runs."""
        numbered = []
        monkeypatch.setattr(
            aggregate_module, "group_ids",
            lambda codes: numbered.append(len(codes)) or group_ids(codes))
        plan = build_query(query, tpch_dataset).plan
        result = engine.execute(plan, mode)
        assert keys_spy.calls["unique"] == 0 and not numbered
        assert result.table.equals(execute_logical(plan, engine.catalog))

    def test_sparse_group_keys_still_sort(self, keys_spy):
        columns = {"g": np.asarray([10**12, 5, 10**12, -7]),
                   "v": np.arange(4.0)}
        result, stats = hash_aggregate_kernel(
            columns, group_by=["g"], aggregates=[agg_sum(col("v"), "s")])
        assert keys_spy.calls["unique"] == 1
        assert result["g"].tolist() == [-7, 5, 10**12]
        assert result["s"].tolist() == [3.0, 1.0, 2.0]

    def test_dense_unique_builds_are_scattered_not_sorted(self, cpu, gpu,
                                                          keys_spy):
        """Shuffled dense unique keys — a primary-key build, and every
        co-partition of the Fig. 6 joins — order by one scatter."""
        workload = make_join_pair(20_000, seed=3)
        build, probe = workload.build.arrays(), workload.probe.arrays()
        keys = {"build_keys": ["key"], "probe_keys": ["key"]}
        expected, _ = hash_join_kernel(build, probe, **keys)
        assert keys_spy.calls["argsort"] == 0
        for kernel, spec in ((cpu_radix_join_kernel, cpu.spec),
                             (gpu_partitioned_join_kernel, gpu.spec)):
            columns, stats = kernel(build, probe, **keys, spec=spec)
            assert stats.plan.total_fanout > 1
            for name in expected:
                np.testing.assert_array_equal(columns[name], expected[name])
        assert keys_spy.calls["argsort"] == 0

    def test_duplicate_heavy_builds_still_sort(self, cpu, keys_spy):
        build = make_skewed_relation(5_000, zipf_s=1.2, key_space=1 << 10,
                                     seed=4, name="build").arrays()
        probe = make_join_pair(5_000, seed=6).probe.arrays()
        keys = {"build_keys": ["key"], "probe_keys": ["key"]}
        expected, _ = hash_join_kernel(build, probe, **keys)
        assert keys_spy.calls["argsort"] == 1
        columns, _ = cpu_radix_join_kernel(build, probe, **keys,
                                           spec=cpu.spec)
        assert keys_spy.calls["argsort"] > 1
        _, probe_idx = join_indices([build["key"]], [probe["key"]])
        assert (np.diff(probe_idx) == 0).any()   # duplicates fan out
        for got in (expected, columns):   # probe columns win name clashes
            for name in ("key", "payload"):
                np.testing.assert_array_equal(got[name],
                                              probe[name][probe_idx])
