"""Tests for every join algorithm against the semantic reference."""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import ExecutionError, OutOfDeviceMemoryError
from repro.operators import (
    HASH_ENTRY_BYTES,
    CoprocessedJoinStats,
    GpuJoinConfig,
    HashJoinBuild,
    PartitionedJoinStats,
    PartitionRunStats,
    coprocessed_radix_join,
    cpu_radix_join,
    gpu_partitioned_join,
    max_fanout,
    non_partitioned_join,
    partitioned_join_kernel,
    plan_coprocessing,
    plan_partition_passes,
    probe_phase_cost,
)
from repro.operators.radix import (
    estimate_radix_partition,
    partition_positions,
    partition_tuple_bytes,
    radix_buckets,
    radix_partition_kernel,
)
from repro.relational import JoinBuildIndex, join_indices, join_indices_dict
from repro.relational.keys import (
    DIRECTORY_BUCKETS_PER_ROW,
    DIRECTORY_MAX_DEPTH,
    SLOT_SPAN_PER_ROW,
)
from repro.storage import (
    generate_tpch,
    make_join_pair,
    make_partial_match_pair,
    make_skewed_relation,
)


def _sorted_pairs(build_idx, probe_idx):
    return sorted(zip(build_idx.tolist(), probe_idx.tolist()))


def join_match_indices(build_keys, probe_keys):
    return JoinBuildIndex(build_keys).probe(probe_keys)


def _expanded_probe(index: JoinBuildIndex, build: np.ndarray,
                    probe: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``index.probe(probe)`` with probe positions ``None`` expanded to
    every probe row.  ``None`` must appear exactly when every probe row
    matched once — unique build keys, every probe key among them."""
    build_idx, probe_idx = index.probe(probe)
    unique = len(build) > 0 and len(np.unique(build)) == len(build)
    assert (probe_idx is None) == (unique and len(build_idx) == len(probe))
    return build_idx, (np.arange(len(probe)) if probe_idx is None
                       else probe_idx)


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
        got = _expanded_probe(JoinBuildIndex(build), build, probe)
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
    "unique": (st.integers(100, 160), 0),  # shuffled, dense: the slots
}


def _int_column(draw, keys) -> np.ndarray:
    """``keys`` as ``int32`` when they fit and the draw says so, else
    ``int64``."""
    narrow = all(abs(key) < 2**31 for key in keys)
    dtype = np.int32 if narrow and draw(st.booleans()) else np.int64
    return np.asarray(keys, dtype=dtype)


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
    return _int_column(draw, build), _int_column(draw, probe)


@st.composite
def _slot_band_keys(draw):
    """``(build, probe, duplicates)``: integer build keys spanning 4x to
    32x their row count — unique, or with some keys repeated — anywhere in
    ``int64``, and probe keys half of which miss: between the build keys,
    below and above the span, and at the ``int64`` extremes."""
    rows = draw(st.integers(2, 40))
    repeats = draw(st.integers(0, rows)) if draw(st.booleans()) else 0
    total = rows + repeats
    span = draw(st.integers(DIRECTORY_BUCKETS_PER_ROW * total,
                            SLOT_SPAN_PER_ROW * total - 1))
    low = draw(st.one_of(st.integers(-10**6, 10**6),
                         st.sampled_from([_INT64.min, _INT64.max - span])))
    inner = draw(st.lists(st.integers(low + 1, low + span - 1),
                          min_size=rows - 2, max_size=rows - 2, unique=True))
    unique = [low, low + span, *inner]
    build = draw(st.permutations(
        unique + draw(st.lists(st.sampled_from(unique), min_size=repeats,
                               max_size=repeats))))
    outside = [key for key in (low - 5, low - 1, low + span + 1,
                               low + span + 9, _INT64.min, _INT64.max)
               if _INT64.min <= key <= _INT64.max and key not in unique]
    misses = st.integers(low, low + span).filter(lambda key: key not in
                                                 unique)
    probe = draw(st.lists(st.one_of(
        st.sampled_from(unique), st.one_of(misses, st.sampled_from(outside))),
        max_size=60))
    return _int_column(draw, build), _int_column(draw, probe), repeats > 0


def _check_dictionary_oracle(index: JoinBuildIndex, build: np.ndarray,
                             probe: np.ndarray, cut: int) -> None:
    """``index.probe`` returns a dictionary lookup's pairs, in the
    documented order, whole-side or split into morsels at ``cut``."""
    positions: dict[int, list[int]] = {}
    for position, key in enumerate(build.tolist()):
        positions.setdefault(key, []).append(position)
    expected = [(b, p) for p, key in enumerate(probe.tolist())
                for b in positions.get(key, [])]
    build_idx, probe_idx = _expanded_probe(index, build, probe)
    assert build_idx.dtype == probe_idx.dtype == np.int64
    assert list(zip(build_idx.tolist(), probe_idx.tolist())) == expected
    head = _expanded_probe(index, build, probe[:cut])
    tail = _expanded_probe(index, build, probe[cut:])
    assert np.array_equal(np.concatenate([head[0], tail[0]]), build_idx)
    assert np.array_equal(
        np.concatenate([head[1], tail[1] + len(probe[:cut])]), probe_idx)


class TestJoinBuildIndex:
    def test_probe_matches_dictionary_oracle(self, monkeypatch):
        """Every lookup path and every way of laying out the build keys —
        the slot table for unique keys spanning under
        ``SLOT_SPAN_PER_ROW`` values a row, the scatter for sparser unique
        keys no denser than the buckets, the stable sort for the rest —
        returns a dictionary lookup's pairs, in the documented order,
        whole-side or morsel by morsel."""
        directory_taken, sorted_when = set(), set()
        sorts = []
        monkeypatch.setattr(
            np, "argsort", lambda *args, _argsort=np.argsort, **kwargs:
            sorts.append(1) or _argsort(*args, **kwargs))

        @given(_join_keys(), st.integers(0, 60))
        @settings(max_examples=400, deadline=None, derandomize=True)
        def check(keys, cut):
            build, probe = keys
            del sorts[:]
            index = JoinBuildIndex(build)
            sorted_when.add((bool(sorts), index.unique_keys))
            assert not sorts or index._depth != 1
            if len(build) and len(probe):   # empty sides search nothing
                directory_taken.add(index._depth > 0)
            _check_dictionary_oracle(index, build, probe, cut)

        check()
        assert directory_taken == {True, False}
        # Duplicates always sort; unique keys sort only when clustered.
        assert sorted_when == {(True, False), (True, True), (False, True)}

    def test_exact_directory_matches_dictionary_oracle(self, monkeypatch):
        """Repeated keys spanning fewer values than the directory's
        buckets get an exact directory — each run's start and length, the
        rows ordered by one stable sort of the bucket ids, 16 bits wide up
        to a span of 2**16 values — and unique ones the slot table, nothing
        sorted; both probe like the dictionary loop, keys outside the span
        and of another dtype included."""
        sorted_dtypes = []
        monkeypatch.setattr(
            np, "argsort", lambda values, *args, _argsort=np.argsort,
            **kwargs: sorted_dtypes.append(values.dtype)
            or _argsort(values, *args, **kwargs))
        rng = np.random.default_rng(7)
        zipf = np.minimum(rng.zipf(1.3, 5_000), 500) - 250
        probe = np.concatenate([
            rng.permutation(np.arange(-260, 261)),
            [zipf.min() - 1, zipf.max() + 1, _INT64.min, _INT64.max]])
        floats = np.concatenate([probe[:-2] + 0.5, probe[:-2], [np.nan]])

        def spanning(values: int) -> np.ndarray:
            keys = rng.integers(0, values, 20_000)
            keys[:3] = [0, values - 1, values - 1]
            return keys - values // 2

        cases = {   # name: (build, probe, narrowed sort, duplicates)
            "zipf": (zipf, probe, np.uint16, True),
            "empty probe": (zipf, probe[:0], np.uint16, True),
            "float probe": (zipf, floats, np.uint16, True),
            "one-row build": (np.asarray([5]), np.asarray([4, 5, 6, 5]),
                              None, False),
            "span 2**16": (spanning(1 << 16), probe, np.uint16, True),
            "span 2**16 + 1": (spanning((1 << 16) + 1), probe, np.int64,
                               True),
        }
        for name, (build, keys, sort_dtype, duplicates) in cases.items():
            del sorted_dtypes[:]
            index = JoinBuildIndex(build)
            # Duplicates get the exact directory, a unique key the slots.
            assert (index._counts if duplicates else index._slots) \
                is not None, name
            assert index.unique_keys is not duplicates, name
            assert sorted_dtypes == ([sort_dtype] if sort_dtype else []), name
            got = index.probe(keys)
            expected = join_indices_dict([build], [keys])
            for got_idx, expected_idx in zip(got, expected):
                assert got_idx.dtype == np.int64, name
                np.testing.assert_array_equal(got_idx, expected_idx,
                                              err_msg=name)
        # Runs longer than a stepping directory would walk.
        assert JoinBuildIndex(zipf)._depth > DIRECTORY_MAX_DEPTH

    def test_slot_table_matches_dictionary_oracle(self):
        """Unique integer keys spanning 4x to 32x their row count — where
        the directory would step — take the slot table, ``int32`` or
        ``int64``, wherever in ``int64`` the span sits; the same band
        with a key repeated keeps the stepping directory (or the binary
        search).  Both return the dictionary lookup's pairs."""
        taken = set()

        @given(_slot_band_keys(), st.integers(0, 60))
        @settings(max_examples=300, deadline=None, derandomize=True)
        def check(keys, cut):
            build, probe, duplicates = keys
            index = JoinBuildIndex(build)
            assert (index._slots is None) is duplicates
            assert index._counts is None   # the band is no exact directory
            taken.add((duplicates, build.dtype.name))
            _check_dictionary_oracle(index, build, probe, cut)

        check()
        assert taken == {(duplicates, dtype) for duplicates in (False, True)
                         for dtype in ("int32", "int64")}

    def test_dense_band_with_one_repeated_key_takes_the_directory(self):
        """Keys spanning ``rows - 1`` to ``32 * rows - 1`` values are not
        pigeonholed, so the build scatters them into a slot table first;
        one repeated key leaves fewer occupied slots than rows, and the
        build counts its keys into a directory instead."""
        rng = np.random.default_rng(11)
        rows = 200
        for span in (rows - 1, rows, 2 * rows, 4 * rows - 1, 4 * rows,
                     SLOT_SPAN_PER_ROW * rows - 1):
            unique = np.concatenate([
                [0, span], rng.choice(np.arange(1, span), rows - 3,
                                      replace=False)]) - span // 2
            build = rng.permutation(np.append(unique, unique[2]))
            index = JoinBuildIndex(build)
            assert index._slots is None, span
            assert index._counts is not None or index._depth > 0, span
            assert not index.unique_keys, span
            probe = np.concatenate([build, np.arange(-span, span, 7)])
            _check_dictionary_oracle(index, build, probe, rows // 3)

    def test_a_pigeonholed_build_never_builds_a_slot_table(self,
                                                           monkeypatch):
        """More rows than the keys span values must repeat a key: such a
        build goes straight to the counts, with no slot table scattered
        (no ``-1``-filled array allocated)."""
        fills = []
        monkeypatch.setattr(
            np, "full", lambda shape, fill, *args, _full=np.full, **kwargs:
            fills.append(fill) or _full(shape, fill, *args, **kwargs))
        rng = np.random.default_rng(12)
        for rows, span in ((2, 0), (100, 98), (5_000, 64), (5_000, 4_998)):
            build = rng.integers(0, span + 1, rows) - 7
            build[:2] = [-7, span - 7]
            del fills[:]
            index = JoinBuildIndex(build)
            assert -1 not in fills, (rows, span)
            assert index._slots is None and index._counts is not None
            probe = np.arange(-10, span)
            _check_dictionary_oracle(index, build, probe, len(probe) // 2)

    def test_probing_changes_nothing_in_the_index(self):
        """The index is read-only after construction: a probe that has to
        search a sorted copy (keys that are not integers) leaves no state
        behind on any path, and repeated probes of one index with
        interleaved key kinds all get the dictionary's pairs."""
        rng = np.random.default_rng(5)
        builds = {
            "slots": rng.permutation(np.arange(0, 16_000, 8)),
            "exact": rng.integers(0, 500, 2_000),
            "stepping": rng.integers(0, 10**7, 2_000),
            "scatter": rng.permutation(np.arange(0, 2_000_000, 1_000)),
            "binary search": rng.integers(0, 60, 2_000).astype(float),
        }
        floats = np.concatenate([rng.integers(-10, 16_010, 3_000) + 0.0,
                                 [0.5, np.nan, -np.inf]])
        ints = rng.integers(-10, 16_010, 3_000)

        def path(index):
            if index._slots is not None:
                return "slots"
            if index._counts is not None:
                return "exact"
            return {0: "binary search", 1: "scatter"}.get(index._depth,
                                                          "stepping")

        for name, build in builds.items():
            index = JoinBuildIndex(build)
            assert path(index) == name
            state = {slot: getattr(index, slot, None)
                     for slot in JoinBuildIndex.__slots__}
            copies = {slot: value.copy() for slot, value in state.items()
                      if isinstance(value, np.ndarray)}
            index.probe(floats)
            for slot, value in state.items():
                assert getattr(index, slot, None) is value, (name, slot)
            for slot, value in copies.items():
                np.testing.assert_array_equal(getattr(index, slot), value,
                                              err_msg=f"{name} {slot}")
            for keys in (ints, floats) * 3:
                expected = join_indices_dict([build], [keys])
                for got_idx, expected_idx in zip(index.probe(keys), expected):
                    np.testing.assert_array_equal(got_idx, expected_idx,
                                                  err_msg=name)

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
        # Unique keys, every probe key hit: the probe rows as they are.
        assert build_idx.tolist() == [2, 1, 0] and probe_idx is None

    def test_every_probe_path_returns_int64_build_positions(self):
        """A slot table narrower than ``int64`` hands out no narrow
        positions: every lookup path returns ``int64`` build (and probe)
        positions, a float probe of a slot table included."""
        rng = np.random.default_rng(13)
        slots = rng.permutation(np.arange(0, 3_000, 3))   # 1,000 rows
        cases = {   # name: (build, probe, path check)
            "slots, every key hit": (slots, rng.permutation(slots),
                                     lambda index: index._slots is not None),
            "slots with misses": (slots, np.arange(-5, 3_005),
                                  lambda index: index._slots is not None),
            "float probe of slots": (slots, np.arange(-5, 3_005) + 0.0,
                                     lambda index: index._slots is not None),
            "exact directory": (rng.integers(0, 500, 2_000),
                                np.arange(-5, 505),
                                lambda index: index._counts is not None),
            "stepping directory": (
                rng.integers(0, 10**7, 2_000), rng.integers(0, 10**7, 500),
                lambda index: index._counts is None and index._depth > 1),
            "binary search": (rng.integers(0, 60, 2_000).astype(float),
                              np.arange(-5.0, 65.0, 0.5),
                              lambda index: index._depth == 0),
        }
        for name, (build, probe, taken) in cases.items():
            index = JoinBuildIndex(build)
            assert taken(index), name
            if index._slots is not None:
                assert index._slots.dtype == np.int16, name
            build_idx, probe_idx = index.probe(probe)
            assert build_idx.dtype == np.int64, name
            assert probe_idx is None or probe_idx.dtype == np.int64, name
            expected = join_indices_dict([build], [probe])
            np.testing.assert_array_equal(build_idx, expected[0],
                                          err_msg=name)

    @pytest.mark.parametrize("rows", [127, 128, 129, 32_767, 32_768, 32_769])
    def test_slot_table_width_boundaries(self, rows):
        """The slot table holds ``np.min_scalar_type(-rows)``: ``int8`` up
        to 128 rows, ``int16`` up to 32,768, ``int32`` beyond.  On either
        side of each width the probe returns the dictionary's pairs, every
        key hit or half of them missing, keys at both ends of the span
        included, whole-side or morsel by morsel."""
        rng = np.random.default_rng(rows)
        low = -rows   # every other value of the span: half the probes miss
        build = rng.permutation(np.arange(low, low + 2 * rows, 2))
        index = JoinBuildIndex(build)
        assert index._slots is not None
        assert index._slots.dtype == np.min_scalar_type(-rows)
        high = low + 2 * rows - 2
        ends = np.asarray([low - 1, low, low + 1, high - 1, high, high + 1])
        for probe in (rng.permutation(build),
                      np.concatenate([ends, rng.permutation(
                          np.arange(low - 3, high + 4))])):
            _check_dictionary_oracle(index, build, probe, len(probe) // 3)

    def test_join_micro_dense_build_fits_a_4_byte_slot_table(self):
        """The benchmark's 250k-row dense build takes the slot table with
        4-byte entries: 1 MB, inside a 2 MiB L2, where ``int64`` slots
        took 2 MB."""
        build = make_join_pair(250_000, seed=2019).build.arrays()["key"]
        index = JoinBuildIndex(build)
        assert index._slots is not None
        assert index._slots.itemsize == 4
        assert index._slots.nbytes == 4 * (250_000 + 2) < 1 << 20


def _tuple_pairs(build, build_keys, probe, probe_keys) -> list:
    """A dictionary lookup's ``(build, probe)`` pairs over key tuples,
    probe-major with ties build-ascending (``2 == 2.0``; NaN finds
    nothing)."""
    positions: dict[tuple, list[int]] = {}
    for position, key in enumerate(zip(*(build[name].tolist()
                                         for name in build_keys))):
        positions.setdefault(key, []).append(position)
    return [(b, p) for p, key in enumerate(zip(*(probe[name].tolist()
                                                  for name in probe_keys)))
            for b in positions.get(key, [])]


def _pairs(build_idx, probe_idx, rows: int) -> list:
    assert build_idx.dtype == np.int64
    assert probe_idx is None or probe_idx.dtype == np.int64
    return list(zip(build_idx.tolist(), (range(rows) if probe_idx is None
                                         else probe_idx.tolist())))


def _check_composite_match(build: dict, probe: dict, bits: int | None, *,
                           cut: int = 7) -> HashJoinBuild:
    """``HashJoinBuild.match`` over the columns' composite key returns the
    dictionary's pairs and equals the exact path's result bit for bit
    (probe positions ``None`` included), whole-side or split at ``cut``;
    the build masks ``bits`` low bits of its last column (``None``: the
    exact path)."""
    build_keys, probe_keys = list(build), list(probe)
    builder = HashJoinBuild(build, build_keys=build_keys)
    assert builder.bits == bits
    if bits is not None:   # the masked code is unique: a slot table
        assert builder.index._slots is not None
    rows = len(probe[probe_keys[0]])
    build_idx, probe_idx = builder.match(probe, probe_keys)
    assert _pairs(build_idx, probe_idx, rows) == _tuple_pairs(
        build, build_keys, probe, probe_keys)
    exact = JoinBuildIndex(builder.domain.codes).probe(
        builder.domain.encode(probe, probe_keys))
    assert (probe_idx is None) == (exact[1] is None)
    for got, want in zip((build_idx, probe_idx), exact):
        if want is not None:
            assert got.dtype == want.dtype and np.array_equal(got, want)
    head = _pairs(*builder.match({name: values[:cut] for name, values
                                  in probe.items()}, probe_keys),
                  min(cut, rows))
    tail = _pairs(*builder.match({name: values[cut:] for name, values
                                  in probe.items()}, probe_keys),
                  max(rows - cut, 0))
    assert head + [(b, p + cut) for b, p in tail] == _pairs(
        build_idx, probe_idx, rows)
    return builder


def _two_per_lead(leads: int, low: int, high: int,
                  first: tuple[int, int] | None = None) -> dict:
    """Leading keys ``0 .. leads - 1``, each with the last keys ``low``
    and ``high`` — lead 0 with ``first`` (default ``high`` and
    ``2 * high - low``)."""
    lead = np.repeat(np.arange(leads, dtype=np.int64), 2)
    last = np.tile(np.asarray([low, high], dtype=np.int64), leads)
    last[:2] = first or (high, 2 * high - low)
    return {"a": lead, "b": last}


class TestMaskedCompositeKey:
    """A unique composite key too sparse for the exact slot table is
    indexed on its leading columns' code and the last column's low bits,
    and a hit stands only where the whole last column is equal."""

    @pytest.mark.parametrize("build, bits", [
        # One row per leading key: the leading code alone (K = 1).
        ({"a": np.arange(100, dtype=np.int64),
          "b": np.arange(100, dtype=np.int64) * 7_919_000}, 0),
        # Two rows per leading key, odd and even last keys (K = 2).
        (_two_per_lead(50, 0, 1_001), 1),
        # Last keys 0 and 32 (lead 0: 32 and 64) part only at bit 5, and
        # 64 is the last power of two below the span 0 .. 64 (K = 64).
        (_two_per_lead(20, 0, 32), 6),
        # 0 and 64 share every bit below the span: no mask holds them
        # apart, so the exact path indexes the key.
        (_two_per_lead(20, 0, 32, first=(0, 64)), None),
    ], ids=["K=1", "K=2", "K=64", "exact"])
    def test_mask_bits_at_their_bounds(self, build, bits):
        rng = np.random.default_rng(5)
        order = rng.permutation(len(build["a"]))
        build = {name: values[order] for name, values in build.items()}
        probe = {"x": np.concatenate([build["a"], build["a"][:9]]),
                 "y": np.concatenate([build["b"], build["b"][:9] + 1])}
        _check_composite_match(build, probe, bits)
        # Every build tuple once, shuffled: every probe row hits.
        hits = rng.permutation(len(build["a"]))
        _check_composite_match(
            build, {"x": build["a"][hits], "y": build["b"][hits]}, bits)

    def test_a_duplicate_tuple_takes_the_exact_path(self):
        build = {"a": np.asarray([3, 1, 3, 2, 3], dtype=np.int64),
                 "b": np.asarray([10**9, 5, 7 * 10**8, 6, 10**9],
                                 dtype=np.int64)}
        probe = {"x": np.asarray([3, 1, 2, 3, 4], dtype=np.int64),
                 "y": np.asarray([10**9, 5, 7, 7 * 10**8, 5],
                                 dtype=np.int64)}
        assert len(_tuple_pairs(build, "ab", probe, "xy")) == 4
        _check_composite_match(build, probe, None)

    @pytest.mark.parametrize("probe_type", [np.int8, np.int16, np.int64])
    def test_negative_and_narrow_keys(self, probe_type):
        """Negative leading and last keys in ``int8`` and ``int16`` build
        columns, probed at each width: the ``int16`` build's 9-bit mask is
        wider than an ``int8`` probe column."""
        rng = np.random.default_rng(7)
        # 20 leads, two last keys each, an odd distance apart: K = 2.
        narrow = (np.repeat(np.arange(-60, -40), 2),
                  np.tile([-128, -27], 20) + np.repeat(np.arange(20), 2))
        # Two leads of 20 last keys: 0 and 256 part only at bit 8, and the
        # span -300 .. 400 is past 32 slots a row: K = 512.
        group = np.concatenate([[0, 256], np.arange(1, 19)])
        wide = (np.repeat([-3, -2], 20),
                np.concatenate([group, group[:-1], [700]]) - 300)
        info = np.iinfo(probe_type)
        for (lead, last), build_type, bits in ((narrow, np.int8, 1),
                                               (wide, np.int16, 9)):
            build = {"a": lead.astype(build_type),
                     "b": last.astype(build_type)}
            x = rng.integers(lead.min() - 2, lead.max() + 3, 300)
            y = np.where(rng.integers(0, 2, 300) == 0,
                         last[rng.integers(0, len(last), 300)],
                         rng.integers(-400, 400, 300))
            x, y = (np.clip(values, info.min, info.max).astype(probe_type)
                    for values in (x, y))
            _check_composite_match(build, {"x": x, "y": y}, bits)

    def test_leading_keys_off_the_build_range_miss(self):
        """A leading key below or above the build's range — or a middle
        column past its span, which a fold would carry into the column
        before it — reads an empty slot, though its last key is a build
        row's; a float last key matches only at integral values."""
        build = _two_per_lead(50, 0, 1_001)
        probe = {"x": np.asarray([-1, 50, 51, -2**62, 2**62, 0, 49, 7]),
                 "y": build["b"][[2, 2, 3, 2, 3, 0, 99, 15]]}
        _check_composite_match(build, probe, 1)
        three = {"a": np.repeat(np.arange(10), 4),
                 "c": np.tile(np.arange(4), 10),
                 "b": np.arange(40, dtype=np.int64) * 10**6}
        # (0, 4, .) folds onto (1, 0, .) and (1, -1, .) onto (0, 3, .).
        carried = {"x": np.asarray([0, 1, 1, 0, 9, 10]),
                   "z": np.asarray([4, -1, 0, 3, 3, 0]),
                   "y": three["b"][[4, 3, 4, 3, 39, 39]]}
        _check_composite_match(three, carried, 0)
        floats = {"x": build["a"][:6],
                  "y": build["b"][:6] + np.asarray([0, 0.5, 0, -0.25,
                                                    np.nan, np.inf])}
        _check_composite_match(build, floats, 1)

    def test_a_hit_on_the_low_bits_alone_is_rejected(self):
        """A probe with a build row's leading key and low bits but another
        last key reads that row's slot; verification drops the hit."""
        build = _two_per_lead(20, 0, 32)   # K = 64
        probe = {"x": build["a"].copy(),
                 "y": build["b"] + np.tile([64, 0, -64, 128], 10)}
        builder = _check_composite_match(build, probe, 6)
        build_idx, probe_idx = builder.match(probe, ["x", "y"])
        assert probe_idx.tolist() == list(range(1, 40, 4))
        # Every probe row reaches a build row through the slot table.
        masked = (builder.domain.encode(probe, ["x"]) << 6) | (
            probe["y"] & 63)
        assert (builder.index.probe(masked)[1] is None)

    def test_empty_sides(self):
        build = _two_per_lead(50, 0, 1_001)
        empty_probe = {"x": np.empty(0, np.int64), "y": np.empty(0, np.int64)}
        _check_composite_match(build, empty_probe, 1)
        empty_build = {name: values[:0] for name, values in build.items()}
        _check_composite_match(empty_build, {"x": build["a"],
                                             "y": build["b"]}, None)
        _check_composite_match(empty_build, empty_probe, None)

    def test_build_major_order(self):
        """The masked match feeds the same canonical orders: build-major
        is the dictionary's pairs sorted by build position."""
        from repro.operators import hash_join_kernel
        rng = np.random.default_rng(11)
        build = _two_per_lead(50, 0, 1_001)
        build["v"] = rng.normal(size=100)
        pick = rng.integers(0, 100, 250)
        probe = {"x": build["a"][pick],
                 "y": build["b"][pick] + rng.integers(0, 2, 250) * 2,
                 "w": rng.normal(size=250)}
        assert HashJoinBuild(build, build_keys=["a", "b"]).bits == 1
        pairs = sorted(_tuple_pairs(build, "ab", probe, "xy"))
        assert pairs
        columns, _ = hash_join_kernel(build, probe, build_keys=["a", "b"],
                                      probe_keys=["x", "y"],
                                      output_order="build")
        build_idx, probe_idx = map(np.asarray, zip(*pairs))
        for name, values in build.items():
            np.testing.assert_array_equal(columns[name], values[build_idx])
        for name, values in probe.items():
            np.testing.assert_array_equal(columns[name], values[probe_idx])

    @pytest.mark.parametrize("width", [3, 4, 5, 6, 7, 8, None])
    def test_the_narrowest_mask_is_bisected(self, width, monkeypatch):
        """250 leading keys of 8 sparse last keys each: masks of 3 to 8
        bits fit the slot budget.  Each build's narrowest unique mask —
        the narrowest of a linear scan — is found in one trial when it is
        the first, two when no mask separates the build (a repeated
        tuple), and at most five for the six widths otherwise, each a
        masked code of the build; the match is the exact path's."""
        from repro.operators import hashjoin
        rng = np.random.default_rng(width or 0)
        lead = np.repeat(np.arange(250, dtype=np.int64), 8)
        low = np.tile(np.arange(8, dtype=np.int64), 250)   # apart in 3 bits
        if width and width > 3:   # lead 0's 0 and 2**(w-1) part at bit w-1
            low[4] = 1 << (width - 1)
        last = low + (rng.integers(0, 1 << 14, 2000) << 8)
        if width is None:   # a repeated tuple
            last[1] = last[0]
        build = {"a": lead, "b": last}
        trials: list[int] = []
        masked = hashjoin._masked

        def trial(codes, column, bits):
            trials.append(bits)
            return masked(codes, column, bits)

        monkeypatch.setattr(hashjoin, "_masked", trial)
        assert HashJoinBuild(build, build_keys=["a", "b"]).bits == width
        monkeypatch.undo()
        assert width == next(
            (bits for bits in range(3, 9) if len(set(zip(
                lead.tolist(), (last & ((1 << bits) - 1)).tolist())))
             == 2000), None)
        # The narrowest width first, then the widest, then bisection.
        if width == 3:
            assert trials == [3]
        else:
            assert trials[:2] == [3, 8] and len(set(trials)) == len(trials)
            assert len(trials) == 2 if width is None else len(trials) <= 5
        pick = rng.integers(0, 2000, 3000)
        probe = {"x": lead[pick], "y": last[pick] + (pick % 3 == 0)}
        _check_composite_match(build, probe, width)

    def test_q9_partsupp_build_masks_two_bits(self):
        """Q9's ``(ps_partkey, ps_suppkey)`` build at SF 0.05: 40,000 rows
        over 5,000,000 exact codes, four suppliers a part with distinct
        low two bits, so K = 4 and a 160 KB slot table; every lineitem
        probe tuple hits it."""
        dataset = generate_tpch(0.05, seed=2019)
        partsupp = dataset.tables["partsupp"].arrays()
        lineitem = dataset.tables["lineitem"].arrays()
        build = {name: partsupp[name] for name in ("ps_partkey", "ps_suppkey")}
        builder = HashJoinBuild(build, build_keys=list(build))
        assert builder.bits == 2 and builder.domain.size == 5_000_000
        assert builder.index._slots.nbytes <= 160 << 10
        probe = {name: lineitem[name] for name in ("l_partkey", "l_suppkey")}
        build_idx, probe_idx = builder.match(probe, list(probe))
        assert probe_idx is None
        for build_name, probe_name in zip(build, probe):
            np.testing.assert_array_equal(build[build_name][build_idx],
                                          probe[probe_name])


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
        # earlier fan-outs divided out, as a nested join would.
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
        gpu.shrink_memory(1024 / gpu.spec.memory_capacity_bytes)
        with pytest.raises(OutOfDeviceMemoryError, match="gpu0"):
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

    def test_kernels_and_records_match_a_partitioning_oracle(self):
        """Duplicate, negative and missing keys, through one to several
        passes and the co-processed join on 8 KB GPUs: (a) every
        partitioned kernel returns the hash join's rows, row for row, in
        both orders; (b) its record equals an oracle that really runs the
        passes (``partition_positions``) and joins every final partition
        on its own (``join_indices``), so the record counts the rows and
        matches of the paper's algorithm."""
        from repro.hardware import default_server, gtx_1080
        from repro.operators import (coprocessed_join_kernel,
                                     cpu_radix_join_kernel,
                                     gpu_partitioned_join_kernel,
                                     hash_join_kernel)
        cpu_spec = default_server().cpus()[0].spec
        passes_seen, most_copartitions = set(), 0

        def tiny(spec, scratchpad):
            return replace(spec, scratchpad=replace(
                spec.scratchpad, capacity_bytes=scratchpad))

        def record(build_keys, probe_keys, spec):
            plan = plan_partition_passes(max(len(build_keys), 1),
                                         HASH_ENTRY_BYTES, spec)
            build_order, build_bounds, build_calls = partition_positions(
                build_keys, plan.fanout_per_pass)
            probe_order, probe_bounds, probe_calls = partition_positions(
                probe_keys, plan.fanout_per_pass)
            matches = sum(
                len(join_indices([build_keys[build_order[bl:bh]]],
                                 [probe_keys[probe_order[pl:ph]]])[0])
                for bl, bh, pl, ph in zip(build_bounds, build_bounds[1:],
                                          probe_bounds, probe_bounds[1:]))
            passes_seen.add(plan.num_passes)
            return PartitionedJoinStats(
                build_rows=len(build_keys), probe_rows=len(probe_keys),
                plan=plan, build_run=PartitionRunStats(16, build_calls),
                probe_run=PartitionRunStats(6, probe_calls),
                output_nbytes=matches * 22)

        # A build row at least: an empty build side codes every probe key
        # as one miss code, not as itself (its partitions are
        # ``test_partitioned_kernels_match_reference_order``'s).
        @given(st.lists(st.integers(-6, 12), min_size=1, max_size=50),
               st.lists(st.integers(-9, 18), max_size=70),
               st.integers(1, 40), st.sampled_from([128, 256, 1024]))
        @example([0], [2], 1, 128)   # 0 and 2 share the first pass's digit
        @settings(max_examples=120, deadline=None, derandomize=True)
        def check(build, probe, copies, scratchpad):
            nonlocal most_copartitions
            # Widths 16 (build), 6 (probe) and 22 (an output row).
            build_keys = np.tile(np.asarray(build, dtype=np.int64), copies)
            probe_keys = np.tile(np.asarray(probe, dtype=np.int64), copies)
            build = {"bk": build_keys,
                     "bv": np.arange(len(build_keys), dtype=np.float64)}
            probe = {"pk": probe_keys.astype(np.int32),
                     "pv": np.arange(len(probe_keys), dtype=np.int16)}
            gpu_spec = tiny(gtx_1080(), scratchpad)
            gpu_specs = [tiny(gtx_1080(f"gpu{index}"), scratchpad)
                         .with_memory_capacity(8 << 10) for index in range(2)]
            kernels = (
                (cpu_radix_join_kernel, {"spec": cpu_spec},
                 record(build_keys, probe_keys, cpu_spec)),
                (gpu_partitioned_join_kernel, {"spec": gpu_spec},
                 record(build_keys, probe_keys, gpu_spec)),
                (coprocessed_join_kernel, {"gpu_specs": gpu_specs}, None))
            fanout = plan_coprocessing(
                len(build_keys) * 16 + len(probe_keys) * 6, gpu_specs)
            build_order, build_bounds, build_calls = partition_positions(
                build_keys, (fanout,))
            probe_order, probe_bounds, probe_calls = partition_positions(
                probe_keys, (fanout,))
            copartitions = []
            for index in range(fanout):
                build_part = build_keys[build_order[
                    build_bounds[index]:build_bounds[index + 1]]]
                probe_part = probe_keys[probe_order[
                    probe_bounds[index]:probe_bounds[index + 1]]]
                copartitions.append((
                    len(build_part) * 16 + len(probe_part) * 6,
                    record(build_part // fanout, probe_part // fanout,
                           gpu_specs[index % len(gpu_specs)])))
            most_copartitions = max(most_copartitions, fanout)
            expected_record = CoprocessedJoinStats(
                build_rows=len(build_keys), probe_rows=len(probe_keys),
                build_run=PartitionRunStats(16, build_calls),
                probe_run=PartitionRunStats(6, probe_calls),
                copartitions=tuple(copartitions))
            keys = {"build_keys": ["bk"], "probe_keys": ["pk"]}
            for order in ("probe", "build"):
                expected, _ = hash_join_kernel(build, probe, **keys,
                                               output_order=order)
                for kernel, tuning, oracle in kernels:
                    columns, stats = kernel(build, probe, **keys, **tuning,
                                            output_order=order)
                    assert stats == (oracle or expected_record)
                    assert list(columns) == list(expected)
                    for name, values in expected.items():
                        assert columns[name].dtype == values.dtype
                        np.testing.assert_array_equal(columns[name], values)

        check()
        assert {1, 2, 3} <= passes_seen
        assert most_copartitions > 2

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
        for order in ("probe", "build"):
            _, stats[order] = cpu_radix_join_kernel(
                build, probe, build_keys=["bk"], probe_keys=["pk"],
                spec=cpu.spec, output_order=order)
        assert stats["probe"] == stats["build"]

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
