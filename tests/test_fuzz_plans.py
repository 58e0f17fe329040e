"""Differential plan fuzzing: random logical plans vs the reference oracle.

A seeded generator builds random logical plans — filters, projections,
multi-way joins and aggregates over small generated tables (including
zero-row tables, predicates that remove every row, and join keys that are
dense, sparse, negative, unique, duplicate-heavy or clustered beside one
far outlier, so the join index's radix directory, its binary-search
fallback and the un-gathered probe pass-through all run; every integer
column stored as a signed type from ``int8`` to ``int64`` its values fit,
so narrow keys are coded at their own width; and a second key
column that is small, spans more than 2**20 or 2**40, or is a float
column, so two-column joins and group-bys reach every path of the exact
key code: mixed-radix, ranked, and float against integer; and constant
predicates that keep every row or none, projections repeating a subtree
of another projection, and ``sum`` + ``avg`` over one expression, so the
shared evaluation of repeated expressions runs) — and every plan is
executed across the full engine configuration grid:

    device mode ∈ {cpu, gpu, hybrid}
  × morsel_rows ∈ {1, 7, engine default}

with results compared *cell-exact and order-sensitive* (values, dtypes
and row order — the engine's canonical join output order makes every plan
row-for-row identical to the reference, so no canonical row sort is
needed and float sums over join outputs compare bit-exact) against
:func:`repro.relational.reference.execute_logical`.
A slice of the seeds additionally runs with an aggressive optimizer
configuration (``small_build_rows=2``) so the radix and co-processed join
paths — normally reserved for large builds — are exercised on tiny and
empty inputs too.  Every case also replays on a statistics-off engine
(``use_statistics=False``): heuristic estimates may choose different
plans — simulated seconds are exempt on that axis — but results must
stay cell-exact.

Every failure message prints the reproducing seed and the offending plan;
re-running a single case is ``pytest "tests/test_fuzz_plans.py::test_fuzzed_plan_matches_reference[<seed>]"``.
The case count is controlled by the ``FUZZ_PLAN_CASES`` environment
variable (default 200 in CI; ``make fuzz`` raises it).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.engine import HAPEEngine, OptimizerOptions
from repro.hardware import default_server
from repro.operators import HashJoinBuild
from repro.relational import (
    LogicalPlan,
    agg_avg,
    agg_count,
    agg_max,
    agg_min,
    agg_sum,
    col,
    execute_logical,
    lit,
    scan,
)
from repro.relational.expr import Expr
from repro.relational.keys import DIRECTORY_BUCKETS_PER_ROW, SLOT_SPAN_PER_ROW
from repro.storage import DEFAULT_MORSEL_ROWS, Table
from repro.storage.column import Column
from repro.storage.dtypes import DataType

#: Seeded cases run in CI; ``make fuzz`` raises this via the environment.
FUZZ_PLAN_CASES = int(os.environ.get("FUZZ_PLAN_CASES", "200"))
#: Base offset so case seeds do not collide with other suites' RNG seeds.
SEED_BASE = int(os.environ.get("FUZZ_PLAN_SEED_BASE", "20260700"))

MODES = ("cpu", "gpu", "hybrid")
MORSEL_SETTINGS = (1, 7, DEFAULT_MORSEL_ROWS)

#: Integer column types, narrowest first.  Storage infers ``int32`` for
#: the two narrowest; a column given its type keeps it.
_SIGNED = (np.int8, np.int16, np.int32, np.int64)
_NARROW = {np.dtype(dtype): DataType(np.dtype(dtype).name, np.dtype(dtype))
           for dtype in _SIGNED[:2]}

#: Every third seed runs with an optimizer that prefers partitioned /
#: co-processed joins even for tiny builds, covering the radix paths.
AGGRESSIVE_EVERY = 3


# ----------------------------------------------------------------------
# Random case generation
# ----------------------------------------------------------------------
class _Case:
    """One fuzzed case: generated tables plus a logical plan over them.

    ``sum``/``avg`` aggregates draw from *every* numeric column — the
    inexact normal-distributed ``_v`` columns included.  The engine's
    canonical join output order guarantees aggregation inputs arrive in
    exactly the reference's row order, so even order-sensitive float
    accumulations compare bit-exact.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = rng = np.random.default_rng(SEED_BASE + seed)
        # The ``_k`` join-key style, drawn once per case so that a case's
        # tables still share key values.  The engine's join index picks
        # its lookup path from the key shape: small non-negative codes,
        # sparse codes from a negative base (the radix directory with a
        # shift), and — independently — one far key in every table, which
        # clusters the rest into one bucket (the binary-search fallback).
        self.key_stride = (1, 1, 10**9 + 7)[int(rng.integers(0, 3))]
        # A quarter of the cases space their keys 8 apart instead, so a
        # unique key spans 4x to 32x its rows (the slot table).  Drawn from
        # a stream of its own: every seed keeps its plan.
        if np.random.default_rng([SEED_BASE + seed, 3]).integers(0, 4) == 0:
            self.key_stride = 8
        self.key_base = -3 * self.key_stride * int(rng.integers(0, 2))
        self.far_key = 2**40 if rng.integers(0, 4) == 0 else None
        # The ``_j`` column (second join key, second group-by column):
        # -3..3 times this factor; 0.5 makes it a float column.  Drawn from
        # a stream of its own, so the plans of every seed stay what they
        # were before the column had a style.
        self.j_factor = (1, 2**21, 2**41, 0.5)[int(np.random.default_rng(
            [SEED_BASE + seed, 1]).integers(0, 4))]
        #: Constant predicates and repeated expressions draw from a third
        #: stream, for the same reason.
        self.extra = np.random.default_rng([SEED_BASE + seed, 2])
        #: Integer column widths draw from a fourth.
        self.widths = np.random.default_rng([SEED_BASE + seed, 4])
        self.columns: dict[str, np.ndarray] = {}
        #: Key shapes this case's joins have (see ``KEY_SHAPES``).
        self.shapes: set[str] = set()
        self.tables: list[Table] = []
        self.plan, self.schema = self._build_plan()

    # -- tables ---------------------------------------------------------
    def _make_table(self, index: int) -> tuple[Table, list[str], list[str]]:
        rng = self.rng
        shape = rng.integers(0, 4)
        if shape == 0:
            rows = 0            # zero-row tables are first-class citizens
        elif shape == 1:
            rows = 1
        else:
            rows = int(rng.integers(2, 121))
        prefix = f"f{self.seed}_{index}"
        domain = int(rng.integers(1, max(rows // 2, 2) + 1))
        int_cols = [f"{prefix}_k", f"{prefix}_j"]
        num_cols = [f"{prefix}_v", f"{prefix}_w"]
        # A third of the tables carry unique keys (a primary-key side: a
        # probe over it matches every row at most once, and a smaller
        # unique table probing it passes its columns through un-gathered);
        # the rest are duplicate-heavy (domain <= rows / 2).
        codes = (rng.permutation(rows) if rng.integers(0, 3) == 0
                 else rng.integers(0, domain, rows))
        keys = self.key_base + self.key_stride * codes.astype(np.int64)
        if self.far_key is not None:
            keys[:1] = self.far_key
        arrays = {
            int_cols[0]: keys,
            int_cols[1]: (rng.integers(-3, 4, rows, dtype=np.int64)
                          * self.j_factor),
            num_cols[0]: rng.normal(size=rows),
            num_cols[1]: rng.integers(-50, 51, rows).astype(np.int64),
        }
        for name in (int_cols[0], int_cols[1], num_cols[1]):
            arrays[name] = self._narrowed(arrays[name])
        table = Table(f"tbl_{prefix}", [
            Column(name, values, _NARROW.get(values.dtype))
            for name, values in arrays.items()])
        self.tables.append(table)
        self.columns.update(arrays)
        return table, int_cols, int_cols + num_cols

    def _narrowed(self, values: np.ndarray) -> np.ndarray:
        """An integer column as a signed type drawn among those its values
        fit, ``int8`` to ``int64`` (a float column as it is)."""
        if values.dtype.kind != "i":
            return values
        fits = [dtype for dtype in _SIGNED if not len(values)
                or np.iinfo(dtype).min <= values.min()
                and values.max() <= np.iinfo(dtype).max]
        return values.astype(fits[int(self.widths.integers(0, len(fits)))])

    def _note_shapes(self, left_keys: list[str],
                     right_keys: list[str]) -> None:
        if len(left_keys) > 1:
            self.shapes.add("multi-column")
        for names in (left_keys, right_keys):   # either side may build
            # Two columns of one table, coded as a build over it would be.
            if len({name.rpartition("_")[0] for name in names}) == 1 < len(
                    names) and HashJoinBuild(
                        {name: self.columns[name] for name in names},
                        build_keys=names).bits is not None:
                self.shapes.add("two-column unique key, sparse last column")
        for position, names in enumerate(zip(left_keys, right_keys)):
            for values in map(self.columns.get, names):
                if values.dtype.kind == "f":
                    self.shapes.add("float")
                if values.dtype.kind == "i" and values.itemsize < 4:
                    self.shapes.add("narrow signed key")
                if not len(values):
                    continue
                if values.min() < 0:
                    self.shapes.add("negative")
                span = float(values.max()) - float(values.min())
                if (values.dtype.kind == "i"
                        and len(np.unique(values)) == len(values)
                        and DIRECTORY_BUCKETS_PER_ROW * len(values) <= span
                        < SLOT_SPAN_PER_ROW * len(values)):
                    self.shapes.add("unique, spanning 4x to 32x its rows")
                if position and span > 2**20:
                    self.shapes.add("second column past 2**40"
                                    if span > 2**40 else
                                    "second column past 2**20")

    # -- expressions ----------------------------------------------------
    def _predicate(self, columns: list[str]) -> Expr:
        rng = self.rng
        name = columns[int(rng.integers(0, len(columns)))]
        kind = rng.integers(0, 5)
        if kind == 0:       # removes every row sometimes
            pred: Expr = col(name) > lit(10**6)
        elif kind == 1:     # keeps every row sometimes
            pred = col(name) > lit(-(10**6))
        elif kind == 2:
            pred = col(name) >= lit(int(rng.integers(-2, 6)))
        elif kind == 3:
            pred = (col(name) < lit(float(rng.normal(scale=2.0))))
        else:
            other = columns[int(rng.integers(0, len(columns)))]
            pred = (col(name) >= lit(0)) & (col(other) < lit(25))
        if rng.integers(0, 4) == 0:
            pred = ~pred
        if self.extra.integers(0, 8) == 0:   # every row, or none
            pred = lit(1) == lit(int(self.extra.integers(1, 3)))
        return pred

    def _projection(self, schema: list[str],
                    keep: list[str]) -> dict[str, Expr]:
        """Identity-project the schema, plus a few computed columns.

        ``keep`` columns must survive (they are future join/group keys).
        """
        rng = self.rng
        projections: dict[str, Expr] = {}
        for name in schema:
            if name in keep or rng.integers(0, 5) > 0:
                projections[name] = col(name)
        if not projections:
            projections[schema[0]] = col(schema[0])
        extra = rng.integers(0, 3)
        source = [name for name in schema]
        for index in range(extra):
            name = source[int(rng.integers(0, len(source)))]
            alias = f"e{self.seed}_{len(projections)}_{index}"
            choice = rng.integers(0, 3)
            if choice == 0:
                projections[alias] = col(name) * lit(2.5)
            elif choice == 1:
                other = source[int(rng.integers(0, len(source)))]
                projections[alias] = col(name) + col(other)
            else:
                projections[alias] = col(name) - lit(int(rng.integers(0, 7)))
        if self.extra.integers(0, 2):
            # Two projections sharing a subtree (equal structure, distinct
            # objects): evaluated once, read twice.
            left, right = (source[int(self.extra.integers(0, len(source)))]
                           for _ in range(2))
            projections[f"r{self.seed}_0"] = col(left) - col(right)
            projections[f"r{self.seed}_1"] = ((col(left) - col(right))
                                              * lit(0.5) + col(right))
        return projections

    # -- the plan -------------------------------------------------------
    def _build_plan(self) -> tuple[LogicalPlan, list[str]]:
        rng = self.rng
        table, int_cols, schema = self._make_table(0)
        plan: LogicalPlan = scan(table.name)
        schema = list(schema)
        key_cols = list(int_cols)

        num_joins = int(rng.integers(0, 3))
        for join_index in range(num_joins):
            if rng.integers(0, 2):
                plan = plan.filter(self._predicate(schema))
            other, other_keys, other_schema = self._make_table(join_index + 1)
            other_plan: LogicalPlan = scan(other.name)
            if rng.integers(0, 2):
                other_plan = other_plan.filter(self._predicate(other_schema))
            num_keys = 1 if rng.integers(0, 3) else 2
            left_keys = [key_cols[int(rng.integers(0, len(key_cols)))]
                         for _ in range(num_keys)]
            right_keys = [other_keys[int(rng.integers(0, len(other_keys)))]
                          for _ in range(num_keys)]
            plan = plan.join(other_plan, left_keys, right_keys)
            self._note_shapes(left_keys, right_keys)
            schema = schema + list(other_schema)
            key_cols = key_cols + list(other_keys)

        if rng.integers(0, 2):
            plan = plan.filter(self._predicate(schema))
        if rng.integers(0, 2):
            projections = self._projection(schema, keep=key_cols)
            plan = plan.project(projections)
            schema = list(projections)
            if rng.integers(0, 2):
                # Filter *after* a projection, over the projected schema
                # (computed aliases included) — the reference applies the
                # projection first, so the engine must too.
                plan = plan.filter(self._predicate(schema))

        if rng.integers(0, 3) > 0:   # two thirds of the cases aggregate
            group_candidates = [name for name in key_cols if name in schema]
            if group_candidates and rng.integers(0, 4) > 0:
                count = min(len(group_candidates),
                            1 if rng.integers(0, 2) else 2)
                group_by = group_candidates[:count]
            else:
                group_by = []        # grand aggregates, empty input included
            numeric = [name for name in schema]
            specs = [agg_count(f"cnt{self.seed}")]
            for index in range(int(rng.integers(1, 4))):
                alias = f"a{self.seed}_{index}"
                func = (agg_sum, agg_avg, agg_min,
                        agg_max)[int(rng.integers(0, 4))]
                name = numeric[int(rng.integers(0, len(numeric)))]
                expr = (col(name) if rng.integers(0, 2)
                        else col(name) * lit(1.5))
                specs.append(func(expr, alias))
            if self.extra.integers(0, 2):   # sum + avg over one input
                name = numeric[int(self.extra.integers(0, len(numeric)))]
                specs += [agg_sum(col(name) * lit(1.5), f"s{self.seed}_sum"),
                          agg_avg(col(name) * lit(1.5), f"s{self.seed}_avg")]
            plan = plan.aggregate(group_by, specs)
            schema = list(group_by) + [spec.alias for spec in specs]
        elif schema and rng.integers(0, 2):
            keys = [name for name in schema
                    if rng.integers(0, 2)] or [schema[0]]
            plan = plan.order_by(keys)
        return plan, schema


#: Join-key shapes the exact key code is accepted on; the tier-1 seeds
#: must keep generating every one of them.
KEY_SHAPES = {"multi-column", "negative", "float",
              "second column past 2**20", "second column past 2**40",
              "unique, spanning 4x to 32x its rows", "narrow signed key",
              "two-column unique key, sparse last column"}


def test_default_seeds_cover_every_key_shape():
    """CI's ``fuzz`` job only adds seeds to the 200 tier-1 runs: if a
    generator change stopped those producing a shape, nothing would say."""
    seen: dict[str, int] = dict.fromkeys(sorted(KEY_SHAPES), 0)
    for seed in range(200):
        for shape in _Case(seed).shapes:
            seen[shape] += 1
    assert min(seen.values()) >= 3, seen


# ----------------------------------------------------------------------
# Engine grid (shared across cases: tables carry unique per-seed names)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def engine_grid():
    grid: dict[tuple, HAPEEngine] = {}
    for aggressive in (False, True):
        options = (OptimizerOptions(small_build_rows=2)
                   if aggressive else None)
        for morsel_rows in MORSEL_SETTINGS:
            grid[(aggressive, morsel_rows)] = HAPEEngine(
                default_server(), optimizer_options=options,
                morsel_rows=morsel_rows)
    return grid


@pytest.fixture(scope="module")
def stats_off_engines():
    """The statistics ablation axis: legacy heuristic row estimates.

    With ``use_statistics=False`` the optimizer may pick *different*
    plans (join build sides, algorithms) than the statistics-backed
    default, so simulated seconds are allowed to differ — but the chosen
    plan must still compute the identical result bytes.
    """
    return {
        aggressive: HAPEEngine(
            default_server(),
            optimizer_options=OptimizerOptions(
                use_statistics=False,
                **({"small_build_rows": 2} if aggressive else {})))
        for aggressive in (False, True)
    }


def _assert_cell_exact(result, reference, context: str) -> None:
    """Cell-exact AND order-sensitive: no canonical row sort.

    The engine's canonical join output order (documented in
    ``docs/ARCHITECTURE.md``) makes every engine result row-for-row
    identical to the reference executor's; only *column* order may differ
    (build side first vs. left side first), so columns are matched by
    name.
    """
    got = {name: np.asarray(result.array(name))
           for name in result.column_names}
    expected = {name: np.asarray(reference.array(name))
                for name in reference.column_names}
    assert set(got) == set(expected), (
        f"{context}: column sets differ: {sorted(got)} vs {sorted(expected)}")
    for name in expected:
        assert got[name].dtype == expected[name].dtype, (
            f"{context}: dtype drift on {name!r}: "
            f"{got[name].dtype} vs {expected[name].dtype}")
        np.testing.assert_array_equal(
            got[name], expected[name],
            err_msg=f"{context}: column {name!r} differs (row order is "
                    "part of the contract)")


def _assert_stamped(physical, estimated_rows: float, context: str) -> None:
    """Every relational node carries the optimizer's estimate (exchanges
    carry none), and the topmost one carries the logical plan's own."""
    relational = []
    for node in physical.walk():
        assert (node.est_rows is None) == node.is_exchange(), (
            f"{context}: {node.describe()} has est_rows={node.est_rows!r}")
        if not node.is_exchange():
            relational.append(node)
    assert relational[-1].est_rows == estimated_rows, (
        f"{context}: the plan's estimate is not the top operator's stamp")


class TestZeroRowEdges:
    """Regression pins for the zero-row edges the fuzzer exposed.

    The engine-level fixes: a grand aggregate over an empty input emits
    its single SQL row (count=0, sum=0, min=inf) like the reference; a
    filter above a projection stays its own operator (the fused
    filter/project kernel applies predicates *before* projections); empty
    build sides / empty morsel streams produce typed empty columns
    through fused chains instead of crashing or drifting dtypes; and a
    constant predicate keeps every row or none instead of indexing with a
    0-d mask.
    """

    def test_empty_build_side_probe_is_typed(self):
        from repro.operators import HashJoinBuild
        build = {"bk": np.asarray([], dtype=np.int64),
                 "bp": np.asarray([], dtype=np.float64)}
        probe = {"pk": np.asarray([1, 2, 3], dtype=np.int64)}
        out = HashJoinBuild(build, build_keys=["bk"]).probe(
            probe, probe_keys=["pk"])
        assert {name: values.dtype for name, values in out.items()} == {
            "bk": np.int64, "bp": np.float64, "pk": np.int64}
        assert all(len(values) == 0 for values in out.values())

    @pytest.mark.parametrize("build_rows,probe_rows",
                             [(0, 5), (5, 0), (0, 0)])
    def test_radix_buckets_with_empty_inputs_are_typed(self, cpu, gpu,
                                                       build_rows,
                                                       probe_rows):
        from repro.operators import (cpu_radix_join_kernel,
                                     gpu_partitioned_join_kernel)
        rng = np.random.default_rng(1)
        build = {"bk": rng.integers(0, 4, build_rows, dtype=np.int64),
                 "bv": rng.normal(size=build_rows)}
        probe = {"pk": rng.integers(0, 4, probe_rows, dtype=np.int64),
                 "pv": rng.normal(size=probe_rows)}
        for kernel, spec in ((cpu_radix_join_kernel, cpu.spec),
                             (gpu_partitioned_join_kernel, gpu.spec)):
            columns, _ = kernel(build, probe, build_keys=["bk"],
                                probe_keys=["pk"], spec=spec)
            assert columns["bk"].dtype == np.int64
            assert columns["bv"].dtype == np.float64
            assert columns["pk"].dtype == np.int64
            assert all(len(values) == 0 for values in columns.values())

    @pytest.mark.parametrize("morsel_rows", MORSEL_SETTINGS)
    @pytest.mark.parametrize("mode", MODES)
    def test_grand_aggregate_over_empty_input_matches_reference(
            self, mode, morsel_rows):
        engine = HAPEEngine(default_server(), morsel_rows=morsel_rows)
        table = Table.from_arrays("empty_grand", {
            "k": np.arange(16, dtype=np.int64),
            "v": np.arange(16, dtype=np.int64) * 3,
        })
        engine.register_table(table)
        plan = (scan("empty_grand").filter(col("k") > lit(10**6))
                .aggregate([], [agg_count("cnt"), agg_sum(col("v"), "s"),
                                agg_min(col("v"), "lo"),
                                agg_avg(col("v"), "m")]))
        reference = execute_logical(plan, engine.catalog)
        result = engine.execute(plan, mode)
        _assert_cell_exact(result.table, reference,
                           f"empty grand aggregate mode={mode} "
                           f"morsel_rows={morsel_rows}")
        assert result.table.num_rows == 1
        assert int(result.table.array("cnt")[0]) == 0

    def test_filter_after_projection_sees_computed_aliases(self):
        engine = HAPEEngine(default_server())
        table = Table.from_arrays("proj_filter", {
            "k": np.arange(20, dtype=np.int64),
        })
        engine.register_table(table)
        plan = (scan("proj_filter")
                .project({"k": col("k"), "doubled": col("k") * lit(2)})
                .filter(col("doubled") >= lit(20)))
        reference = execute_logical(plan, engine.catalog)
        result = engine.execute(plan, "cpu")
        _assert_cell_exact(result.table, reference, "filter after project")

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("keep", [True, False], ids=["all", "none"])
    def test_constant_predicate_keeps_all_rows_or_none(self, mode, keep):
        """A predicate over no column evaluates to one value; engine and
        reference both broadcast it to the rows."""
        engine = HAPEEngine(default_server())
        engine.register_table(Table.from_arrays("const_t", {
            "a": np.arange(40, dtype=np.int64),
            "b": np.arange(40, dtype=np.float64) * 0.5,
        }))
        filtered = scan("const_t", ["a", "b"]).filter(
            lit(1) == lit(1 if keep else 2))
        for plan in (filtered, filtered.aggregate(
                ["a"], [agg_sum(col("b"), "s"), agg_avg(col("b"), "m")])):
            reference = execute_logical(plan, engine.catalog)
            assert reference.num_rows == (40 if keep else 0)
            _assert_cell_exact(engine.execute(plan, mode).table, reference,
                               f"constant predicate mode={mode}")

    @pytest.mark.parametrize("mode", MODES)
    def test_empty_morsel_stream_through_fused_join_chain(self, mode):
        """A filter removing every row, streamed through a fused chain."""
        engine = HAPEEngine(default_server(), morsel_rows=3)
        rng = np.random.default_rng(9)
        left = Table.from_arrays("fused_left", {
            "lk": rng.integers(0, 5, 40, dtype=np.int64),
            "lv": rng.integers(0, 9, 40, dtype=np.int64),
        })
        right = Table.from_arrays("fused_right", {
            "rk": rng.integers(0, 5, 60, dtype=np.int64),
            "rv": rng.integers(0, 9, 60, dtype=np.int64),
        })
        engine.register_table(left)
        engine.register_table(right)
        plan = (scan("fused_right").filter(col("rv") > lit(10**6))
                .join(scan("fused_left"), ["rk"], ["lk"])
                .aggregate(["lv"], [agg_count("cnt"),
                                    agg_sum(col("rv"), "s")]))
        reference = execute_logical(plan, engine.catalog)
        result = engine.execute(plan, mode)
        assert result.table.num_rows == 0
        _assert_cell_exact(result.table, reference,
                           f"empty fused chain mode={mode}")


@pytest.mark.parametrize("seed", range(FUZZ_PLAN_CASES))
def test_fuzzed_plan_matches_reference(engine_grid, stats_off_engines, seed):
    case = _Case(seed)
    aggressive = seed % AGGRESSIVE_EVERY == 0
    engines = {key: engine for key, engine in engine_grid.items()
               if key[0] == aggressive}
    stats_off = stats_off_engines[aggressive]
    first = next(iter(engines.values()))
    for table in case.tables:
        for engine in engines.values():
            engine.register_table(table)
        stats_off.register_table(table)
    reference = execute_logical(case.plan, first.catalog)
    estimated_rows = first.optimizer.estimator.estimate(case.plan).rows
    context_base = (f"seed={seed} (aggressive={aggressive})\n"
                    f"plan:\n{case.plan.pretty()}")
    baseline_simulated: dict[str, float] = {}
    try:
        for (_, morsel_rows), engine in engines.items():
            for mode in MODES:
                result = engine.execute(case.plan, mode)
                context = (f"{context_base}\nmode={mode} "
                           f"morsel_rows={morsel_rows}")
                _assert_cell_exact(result.table, reference, context)
                _assert_stamped(result.physical_plan, estimated_rows, context)
                # Simulated seconds must agree across the whole grid too.
                simulated = baseline_simulated.setdefault(
                    mode, result.simulated_seconds)
                assert result.simulated_seconds == simulated, (
                    f"{context}: simulated seconds diverged across the "
                    f"configuration grid")
        # The statistics ablation axis: heuristic estimates may choose a
        # different plan (sims can differ) but never a different answer.
        for mode in MODES:
            result = stats_off.execute(case.plan, mode)
            _assert_cell_exact(result.table, reference,
                               f"{context_base}\nmode={mode} statistics=off")
    finally:
        for table in case.tables:
            for engine in engines.values():
                engine.catalog.drop(table.name)
            stats_off.catalog.drop(table.name)


# ----------------------------------------------------------------------
# Served fuzzing: the same plans through the open-loop server
# ----------------------------------------------------------------------
#: Every fifth fuzz seed replays through :class:`QueryServer` — arrival
#: pattern chosen by seed — and must stay cell-exact against the
#: reference and sim-exact against a solo engine.
SERVED_EVERY = 5
ARRIVAL_PATTERNS = ("drain", "poisson", "trace")


@pytest.mark.parametrize("seed", range(0, FUZZ_PLAN_CASES, SERVED_EVERY))
def test_fuzzed_plan_served_identically(seed):
    from repro.server import Arrival, QueryServer, trace_arrivals

    case = _Case(seed)
    pattern = ARRIVAL_PATTERNS[seed % len(ARRIVAL_PATTERNS)]
    arrival_seed = SEED_BASE + 1000 + seed
    solo = HAPEEngine(default_server(), cache_budget_bytes=0)
    for table in case.tables:
        solo.register_table(table)
    reference = execute_logical(case.plan, solo.catalog)
    solo_sims = {mode: solo.execute(case.plan, mode).simulated_seconds
                 for mode in MODES}
    tenants = ("inter", "norm", "batch")
    context_base = (f"seed={seed} arrivals={pattern} "
                    f"arrival_seed={arrival_seed}\n"
                    f"plan:\n{case.plan.pretty()}")
    server = QueryServer(default_server(), preemption=True,
                         aging_seconds=1e-4, cache_budget_bytes=0)
    server.register_dataset({table.name: table for table in case.tables})
    server.open_session("inter", priority="interactive")
    server.open_session("norm", priority="normal")
    server.open_session("batch", priority="batch")
    jobs = [(tenants[index], mode) for index, mode in enumerate(MODES)]
    if pattern == "drain":
        for tenant, mode in jobs:
            server.submit(tenant, case.plan, mode, label=f"m:{mode}")
    elif pattern == "poisson":
        rng = np.random.default_rng(arrival_seed)
        at = 0.0
        arrivals = []
        for tenant, mode in jobs:
            at += float(rng.exponential(2e-5))
            arrivals.append(Arrival(at=at, tenant=tenant, plan=case.plan,
                                    mode=mode, label=f"m:{mode}"))
        for index, arrival in enumerate(arrivals):
            server.add_arrivals([arrival], name=f"src{index}")
    else:
        for index, (tenant, mode) in enumerate(jobs):
            server.add_arrivals(trace_arrivals(
                tenant, [(index * 1e-5, case.plan, mode)]))
    report = server.run()
    assert report.completed == len(jobs), (
        f"{context_base}\nserved epoch did not complete every query")
    for ticket in report.tickets:
        context = f"{context_base}\nticket mode={ticket.mode}"
        _assert_cell_exact(ticket.result.table, reference, context)
        assert ticket.simulated_seconds == solo_sims[ticket.mode], (
            f"{context}: served simulated seconds diverged from the "
            f"solo engine run")
