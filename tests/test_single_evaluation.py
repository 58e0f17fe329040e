"""The single-evaluation operator contract, end to end.

Asserts the kernel/estimate split introduced by the single-evaluation
refactor: every operator's functional kernel runs exactly once per plan
node (even when a hybrid pipeline costs the work on several device kinds),
repeated subplans are evaluated once per query, and the engine's results
stay equal to the reference executor across every TPC-H workload query and
execution mode.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.engine import HAPEEngine, OptimizerOptions, descriptions
from repro.engine.executor import Executor
from repro.engine.descriptions import (
    CoprocessedJoin,
    HashJoin,
    Join,
    RadixJoin,
)
from repro.errors import OutOfDeviceMemoryError
from repro.hardware import default_server, gtx_1080
from repro.operators import (
    HashJoinBuild,
    JoinStats,
    Rows,
    charge_coprocessed_join,
    coprocessed_join_kernel,
    cpu_radix_join_kernel,
    estimate_cpu_radix_join,
    estimate_gpu_partitioned_join,
    gpu_partitioned_join_kernel,
    hash_join_kernel,
    kernel_counts,
    radix_partition_kernel,
    reset_kernel_counts,
)
from repro.operators import radix as radix_module
from repro.operators.coprocess import COPARTITION_MEMORY_SHARE
from repro.relational import (
    JoinAlgorithm,
    PAggregate,
    PFilterProject,
    PJoin,
    agg_count,
    agg_sum,
    col,
    execute_logical,
    KeyDomain,
    join_indices,
    join_indices_dict,
    lit,
    scan,
)
from repro.storage import generate_tpch
from repro.workloads import EVALUATED_QUERIES, build_query

MODES = ("cpu", "gpu", "hybrid")

#: Maps a PJoin algorithm to the kernel-counter key its execution bumps.
_JOIN_KERNELS = {
    JoinAlgorithm.NON_PARTITIONED: "hash_join",
    JoinAlgorithm.RADIX_CPU: "cpu_radix_join",
    JoinAlgorithm.RADIX_GPU: "gpu_partitioned_join",
    JoinAlgorithm.COPROCESSED_RADIX: "coprocessed_radix_join",
}


def _expected_kernel_counts(physical) -> dict[str, int]:
    """How often each kernel must run for a plan with distinct subtrees."""
    expected: dict[str, int] = {}

    def bump(name: str, by: int = 1) -> None:
        expected[name] = expected.get(name, 0) + by

    for node in physical.walk():
        if isinstance(node, PFilterProject):
            bump("filter_project")
        elif isinstance(node, PAggregate):
            bump("merge_partials" if node.phase == "final"
                 else "hash_aggregate")
        elif isinstance(node, PJoin):
            # A co-processed join's in-GPU joins are records, not kernels.
            bump(_JOIN_KERNELS[node.algorithm])
    return expected


_JOIN_AND_PARTITION_KERNELS = ("hash_join", "cpu_radix_join",
                               "gpu_partitioned_join",
                               "coprocessed_radix_join", "radix_partition")


@pytest.fixture(scope="module")
def tpch_sf001():
    return generate_tpch(scale_factor=0.01, seed=2019)


@pytest.fixture
def coprocessing_engine(tpch_dataset):
    """Hybrid Q5/Q9 plans of this engine contain co-processed joins."""
    engine = HAPEEngine(default_server(),
                        optimizer_options=OptimizerOptions(small_build_rows=10))
    engine.register_dataset(tpch_dataset.tables)
    return engine


def _coprocessed_plan(engine, tpch_dataset, query_name):
    query = build_query(query_name, tpch_dataset)
    physical = engine.plan(query.plan, "hybrid")
    assert any(isinstance(node, PJoin)
               and node.algorithm is JoinAlgorithm.COPROCESSED_RADIX
               for node in physical.walk())
    return query, physical


def _assert_counts_match_plan_nodes(engine, physical) -> None:
    expected = _expected_kernel_counts(physical)
    reset_kernel_counts()
    engine.executor.execute(physical)
    counts = kernel_counts()
    for kernel in ("filter_project", "hash_aggregate", "merge_partials",
                   "hash_join", "cpu_radix_join", "gpu_partitioned_join",
                   "coprocessed_radix_join"):
        assert counts.get(kernel, 0) == expected.get(kernel, 0), (
            f"kernel {kernel} ran {counts.get(kernel, 0)}x, expected "
            f"{expected.get(kernel, 0)}x")


class TestKernelRunsOncePerPlanNode:
    @pytest.mark.parametrize("query_name", EVALUATED_QUERIES)
    @pytest.mark.parametrize("mode", MODES)
    def test_tpch_counts_match_plan_nodes(self, engine, tpch_dataset,
                                          query_name, mode):
        query = build_query(query_name, tpch_dataset)
        _assert_counts_match_plan_nodes(engine,
                                        engine.plan(query.plan, mode))

    @pytest.mark.parametrize("query_name", ["Q5", "Q9"])
    def test_coprocessed_plan_counts_match_plan_nodes(
            self, coprocessing_engine, tpch_dataset, query_name):
        _, physical = _coprocessed_plan(coprocessing_engine, tpch_dataset,
                                        query_name)
        _assert_counts_match_plan_nodes(coprocessing_engine, physical)

    @pytest.mark.parametrize("query_name", ["Q5", "Q9"])
    def test_warm_coprocessed_plan_runs_no_join_kernel(
            self, coprocessing_engine, tpch_dataset, query_name):
        query, _ = _coprocessed_plan(coprocessing_engine, tpch_dataset,
                                     query_name)
        cold = coprocessing_engine.execute(query.plan, "hybrid")
        reset_kernel_counts()
        warm = coprocessing_engine.execute(query.plan, "hybrid")
        counts = kernel_counts()
        assert not any(counts.get(kernel, 0)
                       for kernel in _JOIN_AND_PARTITION_KERNELS), counts
        assert warm.simulated_seconds == cold.simulated_seconds
        assert warm.table.equals(cold.table)

    def test_shrunk_gpu_refuses_a_cached_coprocessed_join(
            self, coprocessing_engine, tpch_dataset):
        """The co-partition memory check is not part of the kernel, so a
        cached evaluation cannot carry a query past it."""
        engine = coprocessing_engine
        query, _ = _coprocessed_plan(engine, tpch_dataset, "Q9")
        cold = engine.execute(query.plan, "hybrid")
        for gpu in engine.topology.gpus():
            gpu.shrink_memory(1e-5)
        for _ in range(2):   # refused before evaluating, so never cached
            with pytest.raises(OutOfDeviceMemoryError, match="gpu"):
                engine.execute(query.plan, "hybrid")
        for gpu in engine.topology.gpus():
            gpu.restore_memory()
        reset_kernel_counts()
        warm = engine.execute(query.plan, "hybrid")
        assert not kernel_counts().get("coprocessed_radix_join", 0)
        assert warm.simulated_seconds == cold.simulated_seconds

    def test_hybrid_join_kernel_not_duplicated_per_kind(self, engine,
                                                        tpch_dataset):
        """A hybrid pipeline costs CPU+GPU kinds but evaluates once."""
        query = build_query("Q5", tpch_dataset)
        physical = engine.plan(query.plan, "hybrid")
        join_nodes = [node for node in physical.walk()
                      if isinstance(node, PJoin)
                      and node.algorithm is JoinAlgorithm.NON_PARTITIONED]
        reset_kernel_counts()
        result = engine.executor.execute(physical)
        assert kernel_counts().get("hash_join", 0) == len(join_nodes)
        assert result.simulated_seconds > 0.0

    def test_repeated_subplan_evaluated_once(self, engine):
        """Structurally identical subtrees share one kernel evaluation."""
        side_a = scan("supplier", ["s_suppkey", "s_nationkey"]).filter(
            col("s_nationkey") >= lit(0))
        side_b = scan("supplier", ["s_suppkey", "s_nationkey"]).filter(
            col("s_nationkey") >= lit(0))
        plan = side_a.join(side_b, ["s_suppkey"], ["s_suppkey"])
        reference = execute_logical(plan, engine.catalog)
        reset_kernel_counts()
        result = engine.execute(plan, "cpu")
        counts = kernel_counts()
        # Two identical PFilterProject nodes, one functional evaluation.
        assert counts.get("filter_project", 0) == 1
        assert result.table.num_rows == reference.num_rows

    def test_memoization_does_not_change_simulated_time(self, engine,
                                                        tpch_dataset):
        """Kernels are cached, costs are not: timings stay reproducible."""
        query = build_query("Q5", tpch_dataset)
        first = engine.execute(query.plan, "hybrid").simulated_seconds
        second = engine.execute(query.plan, "hybrid").simulated_seconds
        assert first == second


class TestCoprocessedJoinInTheEngine:
    def test_copartitioning_starts_once_its_inputs_exist(self, tpch_sf001,
                                                         monkeypatch):
        """Every slice of a join's CPU pass is charged no earlier than the
        join's span starts — the later of its two inputs' ready times."""
        passes = []
        real = descriptions.reserve_coprocessed_join

        def spy(steps, cpus, **kwargs):
            before = {task for cpu in cpus for task in cpu.clock.records}
            finished = real(steps, cpus, **kwargs)
            passes.append([task for cpu in cpus for task in cpu.clock.records
                           if task not in before
                           and task.label == "cpu-copartition"])
            return finished

        monkeypatch.setattr(descriptions, "reserve_coprocessed_join", spy)
        engine = HAPEEngine(default_server(), tracing=True,
                            optimizer_options=OptimizerOptions(
                                small_build_rows=10))
        engine.register_dataset(tpch_sf001.tables)
        result = engine.execute(build_query("Q9", tpch_sf001).plan, "hybrid")
        spans = [span for span in result.trace.spans
                 if span.op == "coprocessed-join"]
        assert len(spans) == len(passes) == 3
        for span, tasks in zip(spans, passes):
            assert tasks and all(task.start >= span.start for task in tasks)

    def test_memory_change_misses_only_the_join_record(self, tpch_sf001):
        """The GPUs' capacities set the co-partition fan-out the join's
        stats record is written with, so they are part of its memo tuning:
        after a shrink that still fits, the join is evaluated again (its
        inputs stay cached) and is priced as on a fresh session."""
        plan = scan("orders", ["o_orderkey", "o_orderdate"]).join(
            scan("lineitem", ["l_orderkey", "l_quantity"]),
            ["o_orderkey"], ["l_orderkey"])

        def session(topology):
            engine = HAPEEngine(topology, optimizer_options=OptimizerOptions(
                small_build_rows=10))
            engine.register_dataset(tpch_sf001.tables)
            return engine

        def shrunk(topology):
            for gpu in topology.gpus():
                topology.shrink_device_memory(gpu.name, 1 / 8192)
            return topology

        engine = session(default_server())
        assert any(getattr(node, "algorithm", None)
                   is JoinAlgorithm.COPROCESSED_RADIX
                   for node in engine.plan(plan, "hybrid").walk())
        engine.execute(plan, "hybrid")
        shrunk(engine.topology)
        second = engine.execute(plan, "hybrid")
        assert (second.cache.misses, second.cache.hits) == (1, 2)
        fresh = session(shrunk(default_server())).execute(plan, "hybrid")
        assert second.simulated_seconds == fresh.simulated_seconds

    def test_mean_copartition_pair_fits_the_budget(self, tpch_sf001,
                                                   monkeypatch):
        """The fan-out is sized at the columns' own widths — the bytes that
        cross PCIe — so the mean pair the kernel records is within the GPU
        memory share."""
        sized = []
        real_kernel = descriptions.coprocessed_join_kernel

        def spy_kernel(*args, **kwargs):
            columns, stats = real_kernel(*args, **kwargs)
            sized.append([nbytes for nbytes, _ in stats.copartitions])
            return columns, stats

        monkeypatch.setattr(descriptions, "coprocessed_join_kernel",
                            spy_kernel)
        capacity = 64 << 10
        engine = HAPEEngine(default_server(
            gpu_spec=gtx_1080().with_memory_capacity(capacity)))
        engine.register_dataset(tpch_sf001.tables)
        # Q9 does not finish on so small a GPU (a hash join's table does
        # not fit); every co-processed join is sized before that.
        with pytest.raises(OutOfDeviceMemoryError):
            engine.execute(build_query("Q9", tpch_sf001).plan, "hybrid")
        assert sized
        for pairs in sized:
            assert (sum(pairs) / len(pairs)
                    <= COPARTITION_MEMORY_SHARE * capacity)


    @staticmethod
    def _forced_session(dataset, shrink: float = 1.0) -> HAPEEngine:
        """A session whose hybrid Q5 co-processes a join, its GPUs' memory
        scaled by ``shrink``."""
        engine = HAPEEngine(default_server(), optimizer_options=(
            OptimizerOptions(small_build_rows=500)))
        engine.register_dataset(dataset.tables)
        for gpu in engine.topology.gpus():
            engine.topology.shrink_device_memory(gpu.name, shrink)
        return engine

    def test_a_warm_charged_join_builds_no_key_domain(self, tpch_sf001,
                                                      monkeypatch):
        """A cache hit is only read under the GPU capacities its miss was
        sized against (the join's tuning), so a warm execution that
        charges the join derives no co-partition from the columns: it
        builds no key domain at all."""
        engine = self._forced_session(tpch_sf001)
        plan = build_query("Q5", tpch_sf001).plan
        engine.execute(plan, "hybrid")  # cold: every kernel runs
        built, charged = [], []
        real_init, real_charge = KeyDomain.__init__, CoprocessedJoin.charge

        def spy_init(domain, *args, **kwargs):
            built.append(args)
            real_init(domain, *args, **kwargs)

        def spy_charge(op, *args):
            charged.append(op)
            return real_charge(op, *args)

        monkeypatch.setattr(KeyDomain, "__init__", spy_init)
        monkeypatch.setattr(CoprocessedJoin, "charge", spy_charge)
        warm = engine.execute(plan, "hybrid")
        assert warm.cache.misses == 0 and charged
        assert built == []

    def test_the_join_grants_its_build_and_probe(self, tpch_sf001,
                                                 monkeypatch):
        """The grant contract: a join's evaluation grants its build and its
        probe rows, so a co-processed join's inputs count into
        ``morsels_dispatched`` — the yield grid a preemption is placed
        on — as a radix or hash join's do."""
        granted, during = [], []
        real_run, real_grant = CoprocessedJoin.run, Executor.grant

        def spy_run(op, batch, build):
            before = len(granted)
            result = real_run(op, batch, build)
            during.append((granted[before:], [(build.rows, batch.rows)]))
            return result

        def spy_grant(executor, *batch_rows):
            granted.append(batch_rows)
            return real_grant(executor, *batch_rows)

        monkeypatch.setattr(CoprocessedJoin, "run", spy_run)
        monkeypatch.setattr(Executor, "grant", spy_grant)
        engine = self._forced_session(tpch_sf001)
        engine.execute(build_query("Q5", tpch_sf001).plan, "hybrid")
        assert during
        for grants, inputs in during:
            assert grants == inputs

    def test_a_refusal_caches_nothing(self, tpch_sf001, monkeypatch):
        """A co-processed join is sized from the record its kernel writes,
        before the memo keeps it: once the GPUs shrink below a co-partition
        the join's lookup misses and is counted, no entry is kept for it,
        and the refusal reads as a fresh session's under the shrink."""
        engine = self._forced_session(tpch_sf001)
        plan = build_query("Q5", tpch_sf001).plan
        for _ in range(2):  # cold, then all hits
            engine.execute(plan, "hybrid")
        for gpu in engine.topology.gpus():
            engine.topology.shrink_device_memory(gpu.name, 1e-7)
        executor = engine.executor
        lookups, get = [], type(executor.query_cache).get

        def looking_up(cache, key):
            lookups.append(key)
            return get(cache, key)

        # The executor holds no key past an execution: record its lookups.
        monkeypatch.setattr(type(executor.query_cache), "get", looking_up)
        with pytest.raises(OutOfDeviceMemoryError) as refused:
            engine.execute(plan, "hybrid")
        window = executor.cache_delta
        join_key = lookups[-1]  # the refusal came right after its lookup
        assert join_key.value[1][0][0] == "coprocessed"  # its tuning
        assert join_key not in executor.query_cache
        assert window.lookups == len(lookups) and window.misses >= 1
        with pytest.raises(OutOfDeviceMemoryError) as alone:
            self._forced_session(tpch_sf001, 1e-7).execute(plan, "hybrid")
        assert str(refused.value) == str(alone.value)


class TestBatchSizesComeFromRecords:
    @pytest.mark.parametrize("small_build_rows", [None, 500, 10])
    @pytest.mark.parametrize("mode", MODES)
    def test_every_batch_is_sized_by_its_record(self, tpch_sf001,
                                                monkeypatch, mode,
                                                small_build_rows):
        """Every materialized batch the driver hands up — cold and warm,
        hash, partitioned and co-processed plans — carries the bytes and
        rows its columns hold, written from the record it was charged
        from: the sizes capacity checks and grants read."""
        sized = []
        real_run = Executor._run

        def spy_run(executor, chain):
            batch = real_run(executor, chain)
            if batch.columns is not None:
                columns = Rows.of(batch.columns)
                assert batch.nbytes == columns.nbytes()
                assert batch.rows == columns.num_rows
                sized.append(batch)
            return batch

        monkeypatch.setattr(Executor, "_run", spy_run)
        options = (OptimizerOptions() if small_build_rows is None
                   else OptimizerOptions(small_build_rows=small_build_rows))
        engine = HAPEEngine(default_server(), optimizer_options=options)
        engine.register_dataset(tpch_sf001.tables)
        for query_name in EVALUATED_QUERIES:
            plan = build_query(query_name, tpch_sf001).plan
            for _ in range(2):  # cold, then warm: both charge
                engine.execute(plan, mode)
        assert sized and any(batch.rows for batch in sized)


class TestEngineMatchesReference:
    @pytest.mark.parametrize("query_name", EVALUATED_QUERIES)
    @pytest.mark.parametrize("mode", MODES)
    def test_all_queries_all_modes(self, engine, tpch_dataset,
                                   query_name, mode):
        query = build_query(query_name, tpch_dataset)
        reference = execute_logical(query.plan, engine.catalog)
        result = engine.execute(query.plan, mode)
        assert result.table.equals(reference, check_order=False)

    @pytest.mark.parametrize("small_build_rows", [500, 10, 2])
    @pytest.mark.parametrize("mode", MODES)
    def test_every_join_algorithm_matches_reference(self, tpch_sf001,
                                                    monkeypatch, mode,
                                                    small_build_rows):
        """With small builds pushed to the partitioned and co-processed
        joins, every query still equals the reference at SF 0.01 — where
        Q5's ``(s_suppkey, n_nationkey)`` build masks its last key column,
        so each join algorithm matches through the verified masked probe
        (``HashJoinBuild.match``), not the bare slot table."""
        masked = []
        real_init = HashJoinBuild.__init__

        def spy_init(builder, *args, **kwargs):
            real_init(builder, *args, **kwargs)
            masked.append(builder.bits is not None)

        monkeypatch.setattr(HashJoinBuild, "__init__", spy_init)
        engine = HAPEEngine(default_server(), optimizer_options=(
            OptimizerOptions(small_build_rows=small_build_rows)))
        engine.register_dataset(tpch_sf001.tables)
        for query_name in EVALUATED_QUERIES:
            plan = build_query(query_name, tpch_sf001).plan
            reference = execute_logical(plan, engine.catalog)
            result = engine.execute(plan, mode)
            assert result.table.equals(reference, check_order=False), (
                query_name)
        assert any(masked)

    @pytest.mark.parametrize("mode", MODES)
    def test_group_by_over_empty_input_matches_reference(self, engine, mode):
        """A filter that removes every row: dtypes must match the reference."""
        plan = (scan("supplier", ["s_suppkey", "s_nationkey"])
                .filter(col("s_nationkey") < lit(-1))
                .aggregate(["s_nationkey"],
                           [agg_sum(col("s_suppkey"), "total"),
                            agg_count("cnt")]))
        reference = execute_logical(plan, engine.catalog)
        result = engine.execute(plan, mode)
        assert result.table.num_rows == 0
        assert result.table.equals(reference, check_order=False)


class TestVectorizedReferenceJoin:
    def _random_keys(self, rng, size, domain):
        return rng.integers(0, domain, size=size, dtype=np.int64)

    @pytest.mark.parametrize("left_size,right_size,domain", [
        (0, 10, 5), (10, 0, 5), (1, 1, 1), (50, 80, 10),
        (200, 300, 40), (64, 64, 1_000_000),
    ])
    def test_matches_dict_oracle(self, left_size, right_size, domain):
        rng = np.random.default_rng(left_size * 1000 + right_size + domain)
        left = [self._random_keys(rng, left_size, domain)]
        right = [self._random_keys(rng, right_size, domain)]
        got = join_indices(left, right)
        oracle = join_indices_dict(left, right)
        np.testing.assert_array_equal(got[0], oracle[0])
        np.testing.assert_array_equal(got[1], oracle[1])

    def test_multi_key_matches_dict_oracle(self):
        rng = np.random.default_rng(11)
        left = [rng.integers(0, 6, 40, dtype=np.int64),
                rng.integers(0, 4, 40, dtype=np.int64)]
        right = [rng.integers(0, 6, 70, dtype=np.int64),
                 rng.integers(0, 4, 70, dtype=np.int64)]
        got = join_indices(left, right)
        oracle = join_indices_dict(left, right)
        np.testing.assert_array_equal(got[0], oracle[0])
        np.testing.assert_array_equal(got[1], oracle[1])

    def test_unique_key_fast_path_matches_duplicate_path(self):
        # Unique build keys take the single-searchsorted fast path; the
        # pair list must be identical to the general (duplicate) path.
        build = np.asarray([7, 3, 9, 1], dtype=np.int64)
        probe = np.asarray([9, 9, 2, 3, 1], dtype=np.int64)
        got = join_indices([build], [probe])
        oracle = join_indices_dict([build], [probe])
        np.testing.assert_array_equal(got[0], oracle[0])
        np.testing.assert_array_equal(got[1], oracle[1])


class TestSharedKeyFold:
    """The one key code every join and group-by shares is injective."""

    def test_operators_share_the_one_key_code(self):
        from repro.operators import HashJoinBuild
        from repro.operators.radix import JoinSides
        columns = {
            "a": np.asarray([1, 2, 3, 4], dtype=np.int64),
            "b": np.asarray([10, 20, 30, 40], dtype=np.int64),
        }
        codes = KeyDomain(columns, ["a", "b"]).codes
        assert len(set(codes.tolist())) == 4
        np.testing.assert_array_equal(
            HashJoinBuild(columns, build_keys=["a", "b"]).domain.codes, codes)
        sides = JoinSides(columns, columns, build_keys=["a", "b"],
                          probe_keys=["a", "b"], output_order="probe")
        np.testing.assert_array_equal(sides.build.domain.codes, codes)
        # The co-processed kernel's co-partitions split the probe's exact
        # codes, encoded in the build's domain.
        np.testing.assert_array_equal(
            sides.build.domain.encode(sides.probe, ["a", "b"]), codes)

    def test_single_key_is_identity(self):
        values = np.asarray([5, -3, 2**40], dtype=np.int64)
        domain = KeyDomain({"k": values}, ["k"])
        np.testing.assert_array_equal(domain.codes, values)
        # A signed column is coded as it is, at its width; unsigned and
        # bool columns are widened to int64.
        assert domain.codes is values
        narrow = np.asarray([5, -3, 7], dtype=np.int32)
        assert domain.encode({"k": narrow}, ["k"]) is narrow
        assert KeyDomain({"k": narrow}, ["k"]).codes is narrow
        for dtype in (np.uint16, np.bool_):
            column = np.asarray([1, 0, 1], dtype=dtype)
            codes = KeyDomain({"k": column}, ["k"]).codes
            assert codes.dtype == np.int64
            np.testing.assert_array_equal(codes, column)
            codes = domain.encode({"k": column}, ["k"])
            assert codes.dtype == np.int64
            np.testing.assert_array_equal(codes, column)

    def test_wide_columns_stay_injective_without_warning(self):
        """What the wrapping fold collapsed: two columns that each use 63
        bits cannot be a mixed-radix number, so they are ranked — still
        one code per distinct tuple, in tuple order."""
        huge = np.asarray([2**62, -(2**62), 2**63 - 1, 2**62],
                          dtype=np.int64)
        other = np.asarray([2**63 - 1, 2**62, -(2**62), 2**63 - 1],
                           dtype=np.int64)
        with np.errstate(all="raise"):
            domain = KeyDomain({"a": huge, "b": other}, ["a", "b"])
            swapped = domain.encode({"a": other, "b": huge}, ["a", "b"])
        assert domain.codes.tolist() == [5, 1, 6, 5]   # rank_a * 3 + rank_b
        # (b, a) tuples: none is an (a, b) tuple of the defining side.
        assert set(swapped.tolist()).isdisjoint(domain.codes.tolist())

    def test_no_key_columns_is_one_group(self):
        codes = KeyDomain({"v": np.arange(3.0)}, []).codes
        np.testing.assert_array_equal(codes, np.zeros(3, dtype=np.int64))
        assert len(KeyDomain({}, []).codes) == 0


class TestSingleGatherPartition:
    def test_partitions_match_boolean_mask_reference(self):
        rng = np.random.default_rng(5)
        columns = {
            "key": rng.integers(0, 1_000, 5_000, dtype=np.int64),
            "payload": rng.integers(0, 100, 5_000, dtype=np.int64),
        }
        fanout = 7
        partitions = radix_partition_kernel(columns, key="key", fanout=fanout)
        assert len(partitions) == fanout
        total = 0
        for index, part in enumerate(partitions):
            mask = columns["key"] % fanout == index
            # Same rows, same (stable) order as a boolean-mask scan.
            np.testing.assert_array_equal(part["key"], columns["key"][mask])
            np.testing.assert_array_equal(part["payload"],
                                          columns["payload"][mask])
            total += len(part["key"])
        assert total == len(columns["key"])


#: ``peak_intermediate_bytes`` of each query on the ``tpch_dataset``
#: fixture, every mode — recorded before the join pass-through existed.
_PEAK_INTERMEDIATE_BYTES = {"Q1": 1_440_288, "Q5": 23_640, "Q6": 5_016,
                            "Q9": 600_120}


def _nbytes(columns) -> int:
    return sum(np.asarray(values).nbytes for values in columns.values())


def _small_gpu_specs(memory_bytes: int, count: int = 2) -> list:
    """GPUs small enough that the co-processed join of a few thousand rows
    needs several co-partitions per GPU."""
    return [gtx_1080(f"gpu{index}").with_memory_capacity(memory_bytes)
            for index in range(count)]


def _clashing_inputs() -> dict:
    """``shape -> (build, probe)``: both sides call their columns ``key``
    and ``payload`` but disagree on the dtypes; probe columns win."""
    rng = np.random.default_rng(41)
    rows = 2_000

    def sides(build_keys, probe_keys):
        return ({"key": np.asarray(build_keys, dtype=np.int32),
                 "payload": rng.normal(size=len(build_keys)),
                 "extra": rng.integers(0, 5, len(build_keys), dtype=np.int8)},
                {"key": np.asarray(probe_keys, dtype=np.int64),
                 "payload": rng.integers(0, 9, len(probe_keys),
                                         dtype=np.int16)})

    return {
        "dense": sides(rng.permutation(rows), rng.permutation(rows)),
        "half-missing": sides(rng.permutation(rows),
                              rng.permutation(2 * rows)),
        "duplicate-heavy": sides(rng.integers(0, 40, rows),
                                 rng.integers(0, 40, rows // 10)),
    }


#: Summed column item sizes of :func:`_clashing_inputs`, per build tuple
#: (int32 ``key``, float64 ``payload``, int8 ``extra``) and per probe tuple
#: (int64 ``key``, int16 ``payload``); and one output row (probe's ``key``
#: and ``payload``, build's ``extra``).
_BUILD_TUPLE_BYTES, _PROBE_TUPLE_BYTES, _OUTPUT_ROW_BYTES = 13, 10, 11

#: Simulated seconds of the three partitioned joins on
#: :func:`_clashing_inputs`: ``shape -> (cpu radix, gpu partitioned,
#: co-processed cost, co-processed finish)``.  The co-processed pair was
#: re-recorded when it deliberately moved: the fan-out is sized at the
#: columns' own widths (fewer co-partitions) and the CPU pass is charged
#: per co-partition over both sockets, each transfer leaving when its
#: slice ends.
_PINNED_JOIN_SECONDS = {
    "dense": ("0x1.43565c86a1fe8p-18", "0x1.3a069263db900p-16",
              "0x1.043a95e68a734p-12", "0x1.7ec28d5d76814p-14"),
    "half-missing": ("0x1.b1be463331cd4p-18", "0x1.412eb6b4726c5p-16",
                     "0x1.710ab09125649p-12", "0x1.1d9c5a0c1eca2p-13"),
    "duplicate-heavy": ("0x1.3ae7c5f3dc4cep-18", "0x1.38972c0da1c84p-16",
                        "0x1.3af2df9d2768ep-13", "0x1.1c0ee4bcec7c4p-14"),
}


class TestChargedBytesEqualKernelBytes:
    """The bytes a join is *charged* for are the bytes its kernel touched.

    Spies on the join descriptions: what each kernel consumed and produced
    (pass-through probe columns included, which alias their input) is
    summed from the arrays themselves and compared with the stats record
    the cost model is handed.  The partitioned joins never build the
    per-pass copies they are charged for: their charges come from sizes —
    rows x item sizes — and must equal what the output arrays hold.
    """

    @staticmethod
    def _spy_on_joins(monkeypatch):
        """``(touched, charged)``: per join description, the bytes its
        kernel consumed and produced, and the stats it was charged from."""
        touched: dict = {}   # join description -> [probe bytes, output bytes]
        charged: list = []

        def spy_begin(real):
            def begin(op, build):
                transform = real(op, build)

                def spied(batch):
                    out, in_bytes = transform(batch)
                    sums = touched.setdefault(op, [0, 0])
                    sums[0] += _nbytes(batch)
                    sums[1] += _nbytes(out)
                    return out, in_bytes
                return spied
            return begin

        def spy_run(real):
            def run(op, batch, build):
                columns, stats = real(op, batch, build)
                touched[op] = [_nbytes(batch.columns), _nbytes(columns)]
                return columns, stats
            return run

        def spy_charge(real):
            def charge(op, batch, stats, build):
                charged.append((op, stats, build.columns))
                return real(op, batch, stats, build)
            return charge

        monkeypatch.setattr(HashJoin, "begin", spy_begin(HashJoin.begin))
        for join in (HashJoin, RadixJoin, CoprocessedJoin):
            monkeypatch.setattr(join, "run", spy_run(join.run))
        for join in (Join, CoprocessedJoin):
            monkeypatch.setattr(join, "charge", spy_charge(join.charge))
        return touched, charged

    @pytest.mark.parametrize("query_name", EVALUATED_QUERIES)
    @pytest.mark.parametrize("mode", MODES)
    def test_tpch_join_stats(self, engine, tpch_dataset, monkeypatch,
                             query_name, mode):
        touched, charged = self._spy_on_joins(monkeypatch)
        query = build_query(query_name, tpch_dataset)
        result = engine.execute(query.plan, mode)

        assert (result.peak_intermediate_bytes
                == _PEAK_INTERMEDIATE_BYTES[query_name])
        joins = [node for node in engine.plan(query.plan, mode).walk()
                 if isinstance(node, PJoin)]
        assert len(charged) == len(touched) == len(joins)
        for op, stats, build in charged:
            probe_nbytes, output_nbytes = touched[op]
            assert stats.output_nbytes == output_nbytes
            if isinstance(stats, JoinStats):
                assert stats.build_nbytes == _nbytes(build)
                assert stats.probe_nbytes == probe_nbytes

    @pytest.mark.parametrize("query_name", EVALUATED_QUERIES)
    @pytest.mark.parametrize("mode", MODES)
    def test_tpch_link_bytes_in_closed_form(self, tpch_sf001, monkeypatch,
                                            query_name, mode):
        """Every link carries, once, what the GPUs behind it consumed.

        The network volume is written down from the plan and the spans'
        ``devices`` / ``input_bytes`` alone: walking up a pipeline, a GPU
        that does not hold the batch yet is shipped ``int(bytes x share)``
        (its feed route's bottleneck against the other consumers' memory
        bandwidth) and holds it from then on; every GPU of a join also
        gets the whole build side, which comes off a CPU pipeline.  The
        bytes are summed over the hops of ``Topology.route``; nothing is
        imported from the code that charges them, so a (batch, GPU) pair
        that crossed twice breaks both the volumes and the transfer count.
        """
        _, charged = self._spy_on_joins(monkeypatch)
        topology = default_server()
        engine = HAPEEngine(topology, tracing=True)
        engine.register_dataset(tpch_sf001.tables)
        result = engine.execute(build_query(query_name, tpch_sf001).plan,
                                mode)
        builds = {op.node.node_id: stats.build_nbytes
                  for op, stats, _ in charged}
        spans = {span.node_id: span for span in result.trace.spans}
        slots = {node.node_id: slot
                 for slot, node in enumerate(result.physical_plan.walk())}
        volume = dict.fromkeys(result.link_bytes, 0)
        transfers = dict.fromkeys(result.link_bytes, 0)

        def ship(nbytes, source, gpu):
            for link in topology.route(source, gpu).links:
                volume[link.name] += nbytes
                transfers[link.name] += 1

        def holders(node) -> list[str]:
            """Ship what ``node`` consumes; who holds its output."""
            span = spans[slots[node.node_id]]
            if not node.children():
                return ["cpu0"]  # every TPC-H table is in host memory
            held = holders(node.children()[-1])
            if span.op in ("router", "device-crossing"):
                return held
            gpus = [name for name in span.devices
                    if topology.device(name).is_gpu]
            if isinstance(node, PJoin):
                assert holders(node.build) == ["cpu0"]
                for gpu in gpus:
                    ship(builds[node.node_id], "cpu0", gpu)
            fed = [gpu for gpu in gpus if gpu not in held]
            weights = {
                name: min(link.spec.bandwidth_gib_s for link in
                          topology.route(held[0], name).links)
                if name in fed
                else topology.device(name).spec.memory_bandwidth_gib_s
                for name in span.devices}
            for gpu in fed:
                ship(int(span.input_bytes
                         * (weights[gpu] / sum(weights.values()))),
                     held[0], gpu)
            memories = list(dict.fromkeys(
                name if name in gpus else "cpu0" for name in span.devices))
            return held if set(memories) == set(held) else memories

        assert holders(result.physical_plan) == ["cpu0"]
        assert result.link_bytes == volume
        assert {link: sum(task.resource == link
                          for task in result.trace.tasks)
                for link in transfers} == transfers
        assert any(volume.values()) == (mode != "cpu")

    @pytest.mark.parametrize("query_name", ["Q5", "Q9"])
    def test_coprocessed_join_stats(self, coprocessing_engine, tpch_dataset,
                                    monkeypatch, query_name):
        """Every input byte — rows x the columns' item sizes, nothing for
        the kernel's key codes — crosses PCIe once, in the co-partitions
        the kernel recorded, and the in-GPU joins are charged for exactly
        the output rows."""
        touched, charged = self._spy_on_joins(monkeypatch)
        query, _ = _coprocessed_plan(coprocessing_engine, tpch_dataset,
                                     query_name)
        coprocessing_engine.execute(query.plan, "hybrid")
        coprocessed = [(op, stats, build) for op, stats, build in charged
                       if isinstance(op, CoprocessedJoin)]
        assert coprocessed
        for op, stats, build in coprocessed:
            probe_nbytes, output_nbytes = touched[op]
            crossed = [nbytes for nbytes, _ in stats.copartitions]
            assert sum(crossed) == _nbytes(build) + probe_nbytes
            assert sum(join.output_nbytes
                       for _, join in stats.copartitions) == output_nbytes

    @pytest.mark.parametrize("shape", sorted(_PINNED_JOIN_SECONDS))
    def test_partitioned_join_charges_come_from_sizes(self, topology, shape):
        build, probe = _clashing_inputs()[shape]
        keys = {"build_keys": ["key"], "probe_keys": ["key"]}
        cpu, gpus = topology.cpus()[0], list(topology.gpus())
        expected, _ = hash_join_kernel(build, probe, **keys)
        matches = len(expected["key"])
        assert _nbytes(expected) == matches * _OUTPUT_ROW_BYTES

        def check_passes(stats, build_rows, probe_rows):
            """Every pass is charged once, rows x the columns' item sizes."""
            assert (stats.build_rows, stats.probe_rows) == (build_rows,
                                                            probe_rows)
            assert stats.build_run.tuple_bytes == _BUILD_TUPLE_BYTES
            assert stats.probe_run.tuple_bytes == _PROBE_TUPLE_BYTES
            fanouts = [fanout for _, fanout in stats.build_run.calls]
            assert stats.build_run.calls == tuple(
                (build_rows, fanout) for fanout in fanouts)
            assert stats.probe_run.calls == tuple(
                (probe_rows, fanout) for fanout in fanouts)

        seconds = []
        for kernel, estimate, device in (
                (cpu_radix_join_kernel, estimate_cpu_radix_join, cpu),
                (gpu_partitioned_join_kernel, estimate_gpu_partitioned_join,
                 gpus[0])):
            columns, stats = kernel(build, probe, spec=device.spec, **keys)
            assert [(name, values.dtype) for name, values in columns.items()] \
                == [(name, values.dtype) for name, values in expected.items()]
            check_passes(stats, len(build["key"]), len(probe["key"]))
            assert len(stats.build_run.calls) == stats.plan.num_passes
            assert stats.output_nbytes == _nbytes(columns) == _nbytes(expected)
            seconds.append(estimate(stats, device).seconds.hex())

        columns, stats = coprocessed_join_kernel(
            build, probe, gpu_specs=_small_gpu_specs(16 << 10), **keys)
        check_passes(stats, len(build["key"]), len(probe["key"]))
        fanout = stats.build_run.calls[0][1]
        assert len(stats.copartitions) == fanout > 2 * len(gpus)
        for (crossed, join), build_rows, probe_rows in zip(
                stats.copartitions,
                np.bincount(build["key"] % fanout, minlength=fanout).tolist(),
                np.bincount(probe["key"] % fanout, minlength=fanout).tolist()):
            check_passes(join, build_rows, probe_rows)
            assert crossed == (build_rows * _BUILD_TUPLE_BYTES
                               + probe_rows * _PROBE_TUPLE_BYTES)
            assert join.output_nbytes % _OUTPUT_ROW_BYTES == 0
        assert sum(join.output_nbytes for _, join in stats.copartitions) \
            == _nbytes(columns) == _nbytes(expected)
        cost, finished = charge_coprocessed_join(stats, topology,
                                                 topology.cpus(), gpus)
        seconds += [cost.seconds.hex(), finished.hex()]
        assert tuple(seconds) == _PINNED_JOIN_SECONDS[shape]

    def test_payload_is_gathered_once_per_partitioned_join(self, cpu, gpu,
                                                           monkeypatch):
        """Late materialisation: whatever the passes and the nesting, the
        payload columns are fetched through one ``Rows.joined`` view."""
        gathers = []

        def spy(build, probe, build_idx, probe_idx):
            gathers.append(len(build_idx))
            return real(build, probe, build_idx, probe_idx)

        real = radix_module.Rows.joined
        monkeypatch.setattr(radix_module.Rows, "joined", staticmethod(spy))
        build, probe = _clashing_inputs()["half-missing"]
        keys = {"build_keys": ["key"], "probe_keys": ["key"]}
        tiny_scratchpad = replace(gpu.spec, scratchpad=replace(
            gpu.spec.scratchpad, capacity_bytes=1 << 10))
        for kernel, tuning, shape in (
                (cpu_radix_join_kernel, {"spec": cpu.spec},
                 lambda stats: stats.plan.num_passes == 1),
                (gpu_partitioned_join_kernel, {"spec": tiny_scratchpad},
                 lambda stats: stats.plan.num_passes > 1),
                (coprocessed_join_kernel,
                 {"gpu_specs": _small_gpu_specs(16 << 10)},
                 lambda stats: len(stats.copartitions) > 4)):
            del gathers[:]
            columns, stats = kernel(build, probe, **keys, **tuning)
            assert shape(stats)
            assert gathers == [len(columns["key"])] == [len(build["key"])]

    def test_unmoved_probe_columns_alias_their_input(self, cpu, gpu):
        """Every probe row matching once, in order: no probe-side gather,
        and the charged output bytes are those of a gathered copy."""
        build = {"k": np.arange(50, dtype=np.int64),
                 "payload": np.arange(50, dtype=np.float64)}
        probe = {"fk": np.arange(50, dtype=np.int64) % 50,
                 "value": np.arange(50, dtype=np.int32)}
        columns, stats = hash_join_kernel(build, probe, build_keys=["k"],
                                          probe_keys=["fk"])
        assert columns["value"] is probe["value"]
        assert stats.output_nbytes == _nbytes(build) + _nbytes(probe)
        # The rule reaches the partitioned joins: a dense PK-FK join whose
        # foreign keys arrive shuffled still leaves every probe row where
        # it was, however many partitions its matches were found in.
        rows = 5_000
        rng = np.random.default_rng(2)
        build = {"k": rng.permutation(rows),
                 "payload": np.arange(rows, dtype=np.float64)}
        probe = {"fk": rng.permutation(rows),
                 "value": np.arange(rows, dtype=np.int32)}
        for kernel, tuning in (
                (cpu_radix_join_kernel, {"spec": cpu.spec}),
                (gpu_partitioned_join_kernel, {"spec": gpu.spec}),
                (coprocessed_join_kernel,
                 {"gpu_specs": _small_gpu_specs(64 << 10)})):
            columns, stats = kernel(build, probe, build_keys=["k"],
                                    probe_keys=["fk"], **tuning)
            assert columns["value"] is probe["value"]
            assert columns["fk"] is probe["fk"]
            np.testing.assert_array_equal(columns["k"], probe["fk"])
            assert not np.shares_memory(columns["payload"], build["payload"])
            charged = (stats.output_nbytes
                       if hasattr(stats, "output_nbytes") else
                       sum(join.output_nbytes
                           for _, join in stats.copartitions))
            assert charged == _nbytes(build) + _nbytes(probe)
        moved = dict(probe, fk=probe["fk"][::-1].copy())
        columns, stats = hash_join_kernel(build, moved, build_keys=["k"],
                                          probe_keys=["fk"],
                                          output_order="build")
        assert not np.shares_memory(columns["value"], moved["value"])
        assert stats.output_nbytes == _nbytes(build) + _nbytes(probe)
