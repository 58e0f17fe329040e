"""Tests for every join algorithm against the semantic reference."""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import ExecutionError
from repro.operators import (
    GpuJoinConfig,
    coprocessed_radix_join,
    cpu_radix_join,
    gpu_partitioned_join,
    max_fanout,
    non_partitioned_join,
    partitioned_join_kernel,
    plan_partition_passes,
    probe_phase_cost,
)
from repro.operators.radix import (
    _build_and_probe,
    estimate_radix_partition,
    partition_positions,
    partition_tuple_bytes,
    partitioned_join,
    radix_buckets,
    radix_partition_kernel,
    restore_canonical_order,
)
from repro.relational import JoinBuildIndex, join_indices
from repro.storage import (
    make_join_pair,
    make_partial_match_pair,
    make_skewed_relation,
)


def _sorted_pairs(build_idx, probe_idx):
    return sorted(zip(build_idx.tolist(), probe_idx.tolist()))


def join_match_indices(build_keys, probe_keys):
    return JoinBuildIndex(build_keys).probe(probe_keys)


class TestJoinMatchIndices:
    def test_matches_reference_on_duplicates(self):
        build = np.asarray([1, 2, 2, 3, 5])
        probe = np.asarray([2, 2, 3, 4, 1, 1])
        got = join_match_indices(build, probe)
        expected = join_indices([build], [probe])
        assert _sorted_pairs(*got) == _sorted_pairs(*expected)

    def test_empty_inputs(self):
        build_idx, probe_idx = join_match_indices(np.asarray([]), np.asarray([1, 2]))
        assert len(build_idx) == 0 and len(probe_idx) == 0

    @given(st.lists(st.integers(min_value=0, max_value=20), max_size=60),
           st.lists(st.integers(min_value=0, max_value=20), max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_matches_reference_property(self, build, probe):
        build = np.asarray(build, dtype=np.int64)
        probe = np.asarray(probe, dtype=np.int64)
        got = join_match_indices(build, probe)
        expected = join_indices([build], [probe])
        assert _sorted_pairs(*got) == _sorted_pairs(*expected)


_INT64 = np.iinfo(np.int64)

#: Key-shape families: (build-key values, minimum build rows).  Each is a
#: property the index picks its lookup path from.
_KEY_SHAPES = {
    "dense": (st.integers(100, 160), 0),
    "sparse": (st.integers(0, 10**10), 0),
    "negative": (st.integers(-10**6, 10), 0),
    "folded": (st.integers(_INT64.min, _INT64.max), 0),   # spans >= 2**63
    "extremes": (st.sampled_from([_INT64.min, _INT64.min + 1, -1, 0, 7,
                                  _INT64.max - 1, _INT64.max]), 0),
    "duplicates": (st.integers(0, 3), 0),
    "outlier": (st.integers(0, 30), 12),   # + one far key: the fallback
    "unique": (st.integers(100, 160), 0),  # shuffled, dense: the scatter
}


@st.composite
def _join_keys(draw):
    """``(build, probe)`` key columns of one shape family, any int dtype."""
    shape = draw(st.sampled_from(sorted(_KEY_SHAPES)))
    values, min_rows = _KEY_SHAPES[shape]
    build = draw(st.lists(values, min_size=min_rows, max_size=40,
                          unique=shape == "unique"))
    if shape == "outlier":
        build.insert(draw(st.integers(0, len(build))), 2**40)
    # Probe keys: hits, near misses between build keys, keys below and
    # above the build range, and fresh draws from the family.
    near = [key + step for key in build for step in (-1, 0, 1)]
    outside = [min(build, default=0) - 5, max(build, default=0) + 5,
               _INT64.min, _INT64.max]
    probe = draw(st.lists(
        st.one_of(st.sampled_from(near + outside), values), max_size=60))
    probe = [key for key in probe if _INT64.min <= key <= _INT64.max]

    def column(keys):
        narrow = all(abs(key) < 2**31 for key in keys)
        dtype = np.int32 if narrow and draw(st.booleans()) else np.int64
        return np.asarray(keys, dtype=dtype)

    return column(build), column(probe)


class TestJoinBuildIndex:
    def test_probe_matches_dictionary_oracle(self, monkeypatch):
        """Both lookup paths and both ways of ordering the build keys — the
        scatter for unique keys no denser than the buckets, the stable sort
        for the rest — return a dictionary lookup's pairs, in the
        documented order, whole-side or morsel by morsel."""
        directory_taken, sorted_when = set(), set()
        sorts = []
        monkeypatch.setattr(
            np, "argsort", lambda *args, _argsort=np.argsort, **kwargs:
            sorts.append(1) or _argsort(*args, **kwargs))

        @given(_join_keys(), st.integers(0, 60))
        @settings(max_examples=400, deadline=None, derandomize=True)
        def check(keys, cut):
            build, probe = keys
            positions: dict[int, list[int]] = {}
            for position, key in enumerate(build.tolist()):
                positions.setdefault(key, []).append(position)
            expected = [(b, p) for p, key in enumerate(probe.tolist())
                        for b in positions.get(key, [])]
            del sorts[:]
            index = JoinBuildIndex(build)
            sorted_when.add((bool(sorts), index.unique_keys))
            assert not sorts or index._depth != 1
            if len(build) and len(probe):   # empty sides search nothing
                directory_taken.add(index._depth > 0)
            build_idx, probe_idx = index.probe(probe)
            assert build_idx.dtype == probe_idx.dtype == np.int64
            assert list(zip(build_idx.tolist(),
                            probe_idx.tolist())) == expected
            head, tail = index.probe(probe[:cut]), index.probe(probe[cut:])
            assert np.array_equal(np.concatenate([head[0], tail[0]]),
                                  build_idx)
            assert np.array_equal(
                np.concatenate([head[1], tail[1] + len(probe[:cut])]),
                probe_idx)

        check()
        assert directory_taken == {True, False}
        # Duplicates always sort; unique keys sort only when clustered.
        assert sorted_when == {(True, False), (True, True), (False, True)}

    def test_non_integer_keys_keep_the_binary_search(self):
        index = JoinBuildIndex(np.asarray([2.5, 0.5, 2.5]))
        assert index._depth == 0
        build_idx, probe_idx = index.probe(np.asarray([2.5, 1.0, 0.5]))
        assert build_idx.tolist() == [0, 2, 1]
        assert probe_idx.tolist() == [0, 0, 2]
        # Integer build keys probed with non-integer keys fall back too.
        build_idx, probe_idx = JoinBuildIndex(np.asarray([3, 1])).probe(
            np.asarray([1.0, 1.5, 3.0]))
        assert (build_idx.tolist(), probe_idx.tolist()) == ([1, 0], [0, 2])

    def test_folded_span_arithmetic_does_not_warn(self):
        keys = np.asarray([_INT64.min, -3, _INT64.max])
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            index = JoinBuildIndex(keys)
            build_idx, probe_idx = index.probe(keys[::-1])
        assert index._depth > 0
        assert (build_idx.tolist(), probe_idx.tolist()) == ([2, 1, 0],
                                                            [0, 1, 2])


class TestPartitioning:
    def test_radix_partition_preserves_rows(self, cpu):
        columns = make_join_pair(3_000, seed=5).build.arrays()
        parts = radix_partition_kernel(columns, key="key", fanout=16)
        assert len(parts) == 16
        assert sum(len(part["key"]) for part in parts) == 3_000
        assert estimate_radix_partition(
            3_000, partition_tuple_bytes(columns), 16, cpu).seconds > 0
        # Every tuple landed in the partition its key maps to.
        for index, part in enumerate(parts):
            if len(part["key"]):
                assert set(np.asarray(part["key"]) % 16) == {index}

    def test_partition_plan_respects_device_limits(self, cpu, gpu):
        cpu_plan = plan_partition_passes(100_000_000, 16, cpu.spec)
        gpu_plan = plan_partition_passes(100_000_000, 16, gpu.spec)
        assert all(f <= max_fanout(cpu.spec) for f in cpu_plan.fanout_per_pass)
        assert all(f <= max_fanout(gpu.spec) for f in gpu_plan.fanout_per_pass)
        # The final partitions fit in the target memory of each device.
        assert cpu_plan.final_partition_tuples * 16 * 2 \
            <= cpu.spec.cache("L2").capacity_bytes * 1.01
        assert gpu_plan.final_partition_tuples * 16 * 2 \
            <= gpu.spec.scratchpad.capacity_bytes * 1.01

    def test_multi_pass_needed_for_large_inputs(self, cpu):
        small = plan_partition_passes(100_000, 16, cpu.spec)
        large = plan_partition_passes(1_000_000_000, 16, cpu.spec)
        assert large.num_passes >= small.num_passes
        assert large.num_passes >= 2

    def test_invalid_inputs(self, cpu):
        with pytest.raises(ValueError):
            plan_partition_passes(0, 16, cpu.spec)
        with pytest.raises(ValueError):
            radix_partition_kernel({"key": np.arange(5)}, key="key", fanout=0)

    @pytest.mark.parametrize("rows", [0, 5])
    def test_missing_key_column_raises_whatever_the_row_count(self, rows):
        with pytest.raises(KeyError):
            radix_partition_kernel({"payload": np.arange(rows)}, key="key",
                                   fanout=4)


def _awkward_keys(rows: int = 4_000) -> dict[str, np.ndarray]:
    """Key columns whose ``%`` is easy to get wrong: negative, and wide
    keys that use all 64 bits, both signs."""
    rng = np.random.default_rng(31)
    info = np.iinfo(np.int64)
    return {
        "negative": rng.integers(-10**9, 10**3, rows, dtype=np.int64),
        "folded": rng.integers(info.min, info.max, rows, dtype=np.int64,
                               endpoint=True),
    }


def _final_partitions(keys, fanouts) -> list[np.ndarray]:
    order, bounds, _ = partition_positions(keys, fanouts)
    return [order[low:high] for low, high in zip(bounds, bounds[1:])]


class TestPositionPasses:
    """:func:`partition_positions`, the one bucket-ordering implementation."""

    @pytest.mark.parametrize("shape", ["negative", "folded"])
    @pytest.mark.parametrize("fanout", [1, 7, 128, 70_000])
    def test_radix_buckets_divide_once(self, shape, fanout):
        keys = _awkward_keys()[shape]
        assert (keys < 0).any()
        buckets = radix_buckets(keys, fanout)
        assert buckets.min() >= 0 and buckets.max() < fanout
        np.testing.assert_array_equal(
            buckets, (keys % fanout + fanout) % fanout)

    @pytest.mark.parametrize("fanouts", [(128, 8), (64, 64), (4, 4, 4)])
    def test_every_pass_splits_on_its_own_digit(self, fanouts):
        """Fan-outs sharing factors used to re-bucket on the same digit:
        ``(128, 8)`` left 128 of 1,024 final partitions non-empty."""
        rows = 100_000
        keys = np.random.default_rng(3).permutation(rows)
        sizes = [len(part) for part in _final_partitions(keys, fanouts)]
        total = int(np.prod(fanouts))
        assert len(sizes) == total and sum(sizes) == rows
        assert min(sizes) > 0
        assert max(sizes) <= -(-rows // total)

    @pytest.mark.parametrize("shape", ["negative", "folded"])
    @pytest.mark.parametrize("fanouts,stride",
                             [((128, 8), 1), ((4, 4, 4), 1), ((6, 4), 10)])
    def test_equal_keys_meet_in_one_final_partition(self, shape, fanouts,
                                                    stride):
        build = _awkward_keys()[shape]
        probe = np.random.default_rng(5).permutation(
            np.concatenate([build[::3], build[::7] + 1]))
        home = {}
        # ``stride``: passes that follow others see the keys with the
        # earlier fan-outs divided out, as ``partitioned_join`` nests them.
        for index, part in enumerate(
                _final_partitions(build // stride, fanouts)):
            home.update(dict.fromkeys(build[part].tolist(), index))
        met = 0
        for index, part in enumerate(
                _final_partitions(probe // stride, fanouts)):
            for key in probe[part].tolist():
                met += key in home
                assert home.get(key, index) == index
        assert met >= len(build[::3])

    @pytest.mark.parametrize("shape", ["dense", "negative", "folded"])
    @pytest.mark.parametrize("fanouts", [(5,), (8, 4), (4, 4, 3), (3, 1, 5)])
    def test_passes_match_successive_single_pass_kernels(self, shape,
                                                         fanouts):
        """Oracle: ``radix_partition_kernel`` applied chunk by chunk, pass
        by pass, each pass on the key with the earlier fan-outs divided
        out.  Same final partitions row for row; ``calls`` holds one entry
        per pass, each moving every row."""
        keys = {"dense": np.random.default_rng(9).permutation(4_000),
                **_awkward_keys()}[shape]
        chunks = [{"key": keys, "position": np.arange(len(keys))}]
        stride = 1
        for fanout in fanouts:
            chunks = [part for chunk in chunks
                      for part in radix_partition_kernel(
                          dict(chunk, digit=chunk["key"] // stride),
                          key="digit", fanout=fanout)]
            stride *= fanout
        order, bounds, recorded = partition_positions(keys, fanouts)
        assert recorded == tuple((len(keys), fanout) for fanout in fanouts)
        assert len(chunks) == len(bounds) - 1
        np.testing.assert_array_equal(
            order, np.concatenate([chunk["position"] for chunk in chunks]))
        assert bounds == np.cumsum(
            [0] + [len(chunk["key"]) for chunk in chunks]).tolist()

    def test_wide_fanout_partitions_like_a_narrow_one(self):
        """Ids that do not fit 16 bits take the int64 path: same buckets,
        same order within a bucket."""
        keys = np.random.default_rng(17).integers(0, 60_000, 200)
        narrow = radix_partition_kernel({"key": keys}, key="key",
                                        fanout=60_000)
        wide = radix_partition_kernel({"key": keys}, key="key",
                                      fanout=70_000)
        assert len(narrow) == 60_000 and len(wide) == 70_000
        for low, high in zip(narrow, wide):
            np.testing.assert_array_equal(low["key"], high["key"])
        assert not any(len(part["key"]) for part in wide[60_000:])
        negative = radix_partition_kernel({"key": keys - 30_000}, key="key",
                                          fanout=70_000)
        for index in np.flatnonzero([len(p["key"]) for p in negative]):
            assert set(negative[index]["key"] % 70_000) == {index}

    def test_degenerate_passes_keep_their_calls_entries(self, cpu):
        """``fanout=1``, an empty side and a later pass that finds an empty
        chunk each record one entry per pass, ``(0, fanout)`` included."""
        empty = np.asarray([], dtype=np.int64)
        order, bounds, calls = partition_positions(empty, (4, 3))
        assert calls == ((0, 4), (0, 3))
        assert len(order) == 0 and bounds == 13 * [0]
        order, bounds, calls = partition_positions(np.arange(6)[::-1], (1,))
        assert calls == ((6, 1),)
        assert order.tolist() == list(range(6)) and bounds == [0, 6]
        evens = np.arange(0, 20, 2)
        _, bounds, calls = partition_positions(evens, (2, 3))
        assert calls == ((10, 2), (10, 3))
        assert np.diff(bounds).tolist() == [4, 3, 3, 0, 0, 0]
        from repro.operators import cpu_radix_join_kernel
        side = {"k": np.arange(50), "v": np.arange(50.0)}
        none = {"k": empty, "v": empty.astype(float)}
        _, stats = cpu_radix_join_kernel(none, side, build_keys=["k"],
                                         probe_keys=["k"], spec=cpu.spec)
        assert stats.build_run.calls == ((0, 1),)
        assert stats.probe_run.calls == ((50, 1),)

    def test_a_pass_is_priced_by_rows_and_fanout_alone(self, cpu, gpu):
        """Skewed and half-missing inputs record the passes a dense input
        of equal size does: one ``(rows, fanout)`` entry per pass."""
        rows = 20_000
        dense = make_join_pair(rows, seed=3)
        partial = make_partial_match_pair(rows, rows)
        shapes = {
            "dense": (dense.build, dense.probe),
            "skewed": (make_skewed_relation(rows, key_space=1 << 10),
                       dense.probe),
            "half-missing": (partial.build, partial.probe),
        }
        tiny_scratchpad = replace(gpu.spec, scratchpad=replace(
            gpu.spec.scratchpad, capacity_bytes=1 << 10))
        for spec in (cpu.spec, gpu.spec, tiny_scratchpad):
            recorded = {}
            for shape, (build, probe) in shapes.items():
                _, stats = partitioned_join_kernel(
                    build.arrays(), probe.arrays(), build_keys=["key"],
                    probe_keys=["key"], spec=spec)
                recorded[shape] = (stats.plan, stats.build_run,
                                   stats.probe_run)
            plan, build_run, probe_run = recorded["dense"]
            assert build_run.calls == probe_run.calls == tuple(
                (rows, fanout) for fanout in plan.fanout_per_pass)
            assert recorded["skewed"] == recorded["half-missing"] \
                == recorded["dense"]
        assert plan.num_passes > 1


class TestJoinAlgorithms:
    @pytest.fixture(scope="class")
    def workload(self):
        return make_join_pair(8_000, seed=13)

    def _reference_rows(self, workload):
        return workload.expected_matches

    def test_non_partitioned_join(self, workload, cpu):
        result = non_partitioned_join(workload.build.arrays(),
                                      workload.probe.arrays(), cpu,
                                      build_keys=["key"], probe_keys=["key"])
        assert result.num_rows == self._reference_rows(workload)
        assert result.cost.seconds > 0

    def test_cpu_radix_join_matches_non_partitioned(self, workload, cpu):
        radix = cpu_radix_join(workload.build.arrays(), workload.probe.arrays(),
                               cpu, build_keys=["key"], probe_keys=["key"])
        plain = non_partitioned_join(workload.build.arrays(),
                                     workload.probe.arrays(), cpu,
                                     build_keys=["key"], probe_keys=["key"])
        assert radix.num_rows == plain.num_rows
        assert (np.sort(radix.columns["payload"])
                == np.sort(plain.columns["payload"])).all()

    def test_gpu_partitioned_join(self, workload, gpu):
        result = gpu_partitioned_join(workload.build.arrays(),
                                      workload.probe.arrays(), gpu,
                                      build_keys=["key"], probe_keys=["key"])
        assert result.num_rows == self._reference_rows(workload)

    def test_join_algorithms_validate_device_kind(self, workload, cpu, gpu):
        with pytest.raises(ValueError):
            gpu_partitioned_join(workload.build.arrays(),
                                 workload.probe.arrays(), cpu,
                                 build_keys=["key"], probe_keys=["key"])
        with pytest.raises(ValueError):
            cpu_radix_join(workload.build.arrays(), workload.probe.arrays(),
                           gpu, build_keys=["key"], probe_keys=["key"])

    def test_gpu_join_memory_enforcement(self, workload, topology):
        gpu = topology.device("gpu0")
        gpu.allocate(gpu.memory.free_bytes - 1024)  # nearly fill the GPU
        with pytest.raises(ExecutionError):
            gpu_partitioned_join(workload.build.arrays(),
                                 workload.probe.arrays(), gpu,
                                 build_keys=["key"], probe_keys=["key"])

    def test_partial_match_join(self, cpu):
        workload = make_partial_match_pair(2_000, 1_500, match_fraction=0.4,
                                           seed=21)
        result = non_partitioned_join(workload.build.arrays(),
                                      workload.probe.arrays(), cpu,
                                      build_keys=["key"], probe_keys=["key"])
        assert result.num_rows == workload.expected_matches

    def test_coprocessed_join(self, workload, topology):
        result = coprocessed_radix_join(
            workload.build.arrays(), workload.probe.arrays(), topology,
            build_keys=["key"], probe_keys=["key"])
        assert result.num_rows == self._reference_rows(workload)
        # PCIe links were actually used.
        moved = sum(link.bytes_moved for link in topology.links)
        assert moved > 0

    def test_coprocessed_join_requires_gpu(self, workload):
        from repro.hardware import cpu_only_server
        with pytest.raises(ExecutionError):
            coprocessed_radix_join(
                workload.build.arrays(), workload.probe.arrays(),
                cpu_only_server(), build_keys=["key"], probe_keys=["key"])

    @given(st.integers(min_value=1, max_value=400),
           st.integers(min_value=1, max_value=400))
    @settings(max_examples=20, deadline=None)
    def test_all_algorithms_agree_property(self, build_rows, probe_rows):
        """Property: every join algorithm returns the same multiset of rows."""
        from repro.hardware import default_server
        topology = default_server()
        cpu, gpu = topology.device("cpu0"), topology.device("gpu0")
        workload = make_partial_match_pair(build_rows, probe_rows,
                                           match_fraction=0.5, seed=1)
        build, probe = workload.build.arrays(), workload.probe.arrays()
        keys = dict(build_keys=["key"], probe_keys=["key"])
        results = [
            non_partitioned_join(build, probe, cpu, **keys),
            cpu_radix_join(build, probe, cpu, **keys),
            gpu_partitioned_join(build, probe, gpu, **keys),
        ]
        row_counts = {result.num_rows for result in results}
        assert len(row_counts) == 1


class TestProbePhaseCost:
    def test_scratchpad_beats_l1(self, gpu):
        for partition in (512, 1024, 4096):
            sm = probe_phase_cost(gpu, 32_000_000, partition, variant="SM")
            l1 = probe_phase_cost(gpu, 32_000_000, partition, variant="L1")
            assert sm.seconds < l1.seconds

    def test_invalid_variant(self, gpu):
        with pytest.raises(ValueError):
            probe_phase_cost(gpu, 1000, 128, variant="L2")
        with pytest.raises(ValueError):
            GpuJoinConfig(probe_variant="bogus")

    def test_requires_gpu(self, cpu):
        with pytest.raises(ValueError):
            probe_phase_cost(cpu, 1000, 128, variant="SM")


class TestCanonicalJoinOutputOrder:
    """Every join kernel emits the documented canonical row order.

    ``output_order="probe"`` (the default) orders matches by probe
    position with ties by ascending build position — exactly the order of
    :func:`repro.relational.join_indices` — so the partitioned joins,
    whose passes shuffle rows bucket-major, must agree row for row with
    the non-partitioned hash join.  ``"build"`` is the mirrored order the
    executor requests when the optimizer made the logical *right* input
    the build side.
    """

    @staticmethod
    def _inputs(seed: int = 11, rows: int = 400):
        rng = np.random.default_rng(seed)
        build = {"bk": rng.integers(0, 40, rows, dtype=np.int64),
                 "bv": rng.normal(size=rows)}
        probe = {"pk": rng.integers(0, 40, rows + 77, dtype=np.int64),
                 "pv": rng.normal(size=rows + 77)}
        return build, probe

    def _expected(self, build, probe, *, order: str):
        build_idx, probe_idx = join_indices([build["bk"]], [probe["pk"]])
        if order == "build":
            perm = np.lexsort((probe_idx, build_idx))
            build_idx, probe_idx = build_idx[perm], probe_idx[perm]
        return {"bk": build["bk"][build_idx], "bv": build["bv"][build_idx],
                "pk": probe["pk"][probe_idx], "pv": probe["pv"][probe_idx]}

    @pytest.mark.parametrize("order", ["probe", "build"])
    def test_hash_join_kernel_orders(self, order):
        from repro.operators import hash_join_kernel
        build, probe = self._inputs()
        columns, stats = hash_join_kernel(
            build, probe, build_keys=["bk"], probe_keys=["pk"],
            output_order=order)
        expected = self._expected(build, probe, order=order)
        for name in expected:
            np.testing.assert_array_equal(columns[name], expected[name])
        assert stats.output_nbytes == sum(v.nbytes
                                          for v in expected.values())

    def test_rejected_output_order_is_not_counted(self):
        """A call the kernel refuses is not an evaluation: the counter the
        single-evaluation tests read moves only for work that ran."""
        from repro.operators import (hash_join_kernel, kernel_counts,
                                     reset_kernel_counts)
        build, probe = self._inputs()
        reset_kernel_counts()
        with pytest.raises(ValueError, match="output_order"):
            hash_join_kernel(build, probe, build_keys=["bk"],
                             probe_keys=["pk"], output_order="sideways")
        assert kernel_counts().get("hash_join", 0) == 0
        hash_join_kernel(build, probe, build_keys=["bk"], probe_keys=["pk"])
        assert kernel_counts()["hash_join"] == 1

    @classmethod
    def _input_shapes(cls) -> dict:
        rng = np.random.default_rng(23)
        rows = 400

        def side(prefix, keys):
            return {prefix + "k": np.asarray(keys, dtype=np.int64),
                    prefix + "v": rng.normal(size=len(keys))}

        dense = rng.permutation(rows)
        return {
            "dense": (side("b", dense), side("p", rng.permutation(rows))),
            # Every second probe key lies outside the build side's range.
            "half-missing": (side("b", dense),
                             side("p", rng.permutation(2 * rows))),
            "duplicate-heavy": cls._inputs(),
            "empty-build": (side("b", []), side("p", dense)),
            "empty-probe": (side("b", dense), side("p", [])),
        }

    @pytest.mark.parametrize("order", ["probe", "build"])
    def test_partitioned_kernels_match_reference_order(self, cpu, gpu,
                                                       order):
        """The three tunings of the partitioned-join skeleton agree with
        the hash join row for row, whatever the input looks like."""
        from repro.hardware import gtx_1080
        from repro.operators import (coprocessed_join_kernel,
                                     cpu_radix_join_kernel,
                                     gpu_partitioned_join_kernel,
                                     hash_join_kernel)
        # 8 KB GPUs: the co-processed join needs more than one
        # co-partition per GPU for the non-empty inputs.
        small_gpus = [gtx_1080(f"gpu{index}").with_memory_capacity(8 << 10)
                      for index in range(2)]
        kernels = {
            "cpu": (cpu_radix_join_kernel, {"spec": cpu.spec}),
            "gpu": (gpu_partitioned_join_kernel, {"spec": gpu.spec}),
            "coprocessed": (coprocessed_join_kernel,
                            {"gpu_specs": small_gpus}),
        }
        keys = {"build_keys": ["bk"], "probe_keys": ["pk"],
                "output_order": order}
        for shape, (build, probe) in self._input_shapes().items():
            expected, _ = hash_join_kernel(build, probe, **keys)
            for label, (kernel, tuning) in kernels.items():
                columns, stats = kernel(build, probe, **keys, **tuning)
                case = f"{label} join, {shape} input, order={order}"
                assert list(columns) == list(expected), case
                for name in expected:
                    assert columns[name].dtype == expected[name].dtype, case
                    np.testing.assert_array_equal(
                        columns[name], expected[name],
                        err_msg=f"{case}, column {name}")
                if label == "coprocessed" and "empty" not in shape:
                    assert len(stats.copartitions) > len(small_gpus), case

    @given(st.lists(st.integers(-6, 12), max_size=50),
           st.lists(st.integers(-6, 18), max_size=70),
           st.lists(st.integers(1, 5), min_size=1, max_size=3),
           st.lists(st.integers(1, 4), max_size=2))
    @example([0], [2], [2], [1])   # 0 and 2 share the digit the pass used
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_order_restoration_matches_a_lexsort_oracle(
            self, build, probe, fanouts, inner_fanouts):
        """Duplicate keys on both sides and rows without a partner, through
        one to three passes and — with ``inner_fanouts`` — through the
        co-processed nesting, the inner join handed the digits the outer
        passes left: counting (probe-major) and the single-key sort
        (build-major) order the matches exactly as sorting the position
        pairs on both keys would."""
        build = np.asarray(build, dtype=np.int64)
        probe = np.asarray(probe, dtype=np.int64)
        match = _build_and_probe
        if inner_fanouts:
            def match(build_part, probe_part):
                return partitioned_join(
                    build_part, probe_part, fanouts=inner_fanouts,
                    match=_build_and_probe)[:2]
        build_idx, probe_idx, _, _ = partitioned_join(
            build, probe, fanouts=fanouts, match=match)
        for order, sort_keys in (("build", (probe_idx, build_idx)),
                                 ("probe", (build_idx, probe_idx))):
            oracle = np.lexsort(sort_keys)
            restored = restore_canonical_order(
                build_idx, probe_idx, probe_rows=len(probe),
                output_order=order)
            np.testing.assert_array_equal(restored[0], build_idx[oracle])
            np.testing.assert_array_equal(restored[1], probe_idx[oracle])
        # Probe-major is the reference executor's order.
        for got, expected in zip(restored, join_indices([build], [probe])):
            np.testing.assert_array_equal(got, expected)

    def test_nested_join_restarts_at_the_first_unused_digit(self):
        """Named regression: ``partitioned_join`` hands a co-partition
        ``key // prod(fanouts)``, so a nested join starts over at digit 0
        of what it is handed.  Carrying the outer fan-out along as a
        stride (the interface this replaced) would divide twice: build
        ``[0]`` and probe ``[2]`` under ``fanouts=[2]`` become 0 and 1,
        and ``(0 // 2, 1 // 2)`` would match."""
        seen = []

        def inner(build_part, probe_part):
            seen.append((build_part.tolist(), probe_part.tolist()))
            return partitioned_join(build_part, probe_part, fanouts=[1],
                                    match=_build_and_probe)[:2]

        build_idx, probe_idx, _, _ = partitioned_join(
            np.asarray([0]), np.asarray([2]), fanouts=[2], match=inner)
        assert seen == [([0], [1]), ([], [])]
        assert len(build_idx) == len(probe_idx) == 0
        assert "stride" not in partitioned_join.__code__.co_varnames

    def test_coprocessed_join_matches_reference_order(self, topology):
        build, probe = self._inputs(rows=3000)
        expected = self._expected(build, probe, order="probe")
        output = coprocessed_radix_join(
            build, probe, topology, build_keys=["bk"], probe_keys=["pk"])
        for name in expected:
            np.testing.assert_array_equal(output.columns[name],
                                          expected[name])

    def test_order_never_changes_stats_or_costs(self, cpu):
        from repro.operators import cpu_radix_join_kernel
        build, probe = self._inputs()
        stats = {}
        for order in ("probe", "build", None):
            _, stats[order] = cpu_radix_join_kernel(
                build, probe, build_keys=["bk"], probe_keys=["pk"],
                spec=cpu.spec, output_order=order)
        assert stats["probe"] == stats["build"] == stats[None]

    def test_invalid_output_order_rejected(self, cpu):
        from repro.operators import cpu_radix_join_kernel, hash_join_kernel
        build, probe = self._inputs(rows=8)
        with pytest.raises(ValueError, match="output_order"):
            hash_join_kernel(build, probe, build_keys=["bk"],
                             probe_keys=["pk"], output_order="bucket")
        with pytest.raises(ValueError, match="output_order"):
            cpu_radix_join_kernel(build, probe, build_keys=["bk"],
                                  probe_keys=["pk"], spec=cpu.spec,
                                  output_order="bucket")

    def test_optimizer_sets_swapped_flag(self, tpch_dataset):
        """The smaller side builds; ``swapped`` marks a logical-right probe
        ... i.e. a logical-left probe (build = logical right)."""
        from repro.engine import HAPEEngine
        from repro.hardware import default_server
        from repro.relational import scan
        from repro.relational.physical import PJoin

        engine = HAPEEngine(default_server())
        engine.register_dataset(tpch_dataset.tables)
        small_left = scan("region").join(scan("nation"),
                                         ["r_regionkey"], ["n_regionkey"])
        big_left = scan("nation").join(scan("region"),
                                       ["n_regionkey"], ["r_regionkey"])
        for plan, swapped in ((small_left, False), (big_left, True)):
            physical = engine.plan(plan, "cpu")
            joins = [node for node in physical.walk()
                     if isinstance(node, PJoin)]
            assert len(joins) == 1
            assert joins[0].swapped is swapped
