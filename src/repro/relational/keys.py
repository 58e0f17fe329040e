"""Shared composite-key folding and equi-join matching primitives.

Every join and group-by in the code base reduces multi-column keys to a
single ``int64`` column before hashing, partitioning or matching.  The
folding used to exist in three copies (``operators/hashjoin.py``,
``operators/aggregate.py`` and ``relational/reference.py``); this module is
the single implementation all of them share.

The fold is a polynomial rolling hash ``acc = acc * P + key`` with
``P = 1_000_003``.  It is computed in ``uint64`` so that overflow is
well-defined modular arithmetic (NumPy's ``int64`` wraparound is identical
bit-for-bit, but going through ``uint64`` keeps the semantics explicit and
silences any overflow warnings), then reinterpreted as ``int64``.

This module intentionally depends only on NumPy and the expression AST so
that both the relational reference executor and the hardware-conscious
operators can import it without creating an import cycle.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .expr import ColumnRef

#: Multiplier of the polynomial key fold.  Prime, so consecutive small key
#: domains (dictionary codes, date ints) rarely collide after folding.
FOLD_MULTIPLIER = 1_000_003


def fold_keys(arrays: Sequence[np.ndarray], *,
              num_rows: int | None = None) -> np.ndarray:
    """Fold multi-column keys into one ``int64`` key column.

    ``num_rows`` is only needed when ``arrays`` is empty (e.g. a grand
    aggregate with no group-by columns), where the fold degenerates to an
    all-zero key column of that length.
    """
    if not arrays:
        if num_rows is None:
            raise ValueError("fold_keys needs num_rows when no key arrays "
                             "are given")
        return np.zeros(num_rows, dtype=np.int64)
    multiplier = np.uint64(FOLD_MULTIPLIER)
    combined = np.zeros(len(np.asarray(arrays[0])), dtype=np.uint64)
    for values in arrays:
        folded = np.asarray(values, dtype=np.int64).astype(np.uint64)
        combined = combined * multiplier + folded
    return combined.view(np.int64)


def key_columns(columns: Mapping[str, np.ndarray],
                keys: Sequence[str]) -> list[np.ndarray]:
    """The key columns ``keys`` names, resolved as column references: a
    name the input lacks is the ``ExpressionError`` a filter or projection
    over it raises, never a bare ``KeyError``."""
    return [ColumnRef(name).evaluate(columns) for name in keys]


def composite_key_map(columns: Mapping[str, np.ndarray],
                      keys: Sequence[str], *,
                      num_rows: int | None = None) -> np.ndarray:
    """:func:`fold_keys` over named columns of a column map."""
    if not keys and num_rows is None:
        first = next(iter(columns.values()), None)
        num_rows = 0 if first is None else len(np.asarray(first))
    return fold_keys(key_columns(columns, keys), num_rows=num_rows)


#: Radix-directory sizing: about this many buckets per build row, and at
#: most this many rows in the fullest bucket — a fuller one (clustered
#: values, heavy duplicates) keeps the binary search.
DIRECTORY_BUCKETS_PER_ROW = 4
DIRECTORY_MAX_DEPTH = 8


class JoinBuildIndex:
    """Sorted key index over a join's build side (build once, probe many).

    The build-then-probe surface of every equi-join: constructing the index
    sorts the build keys once; :meth:`probe` can then be called per probe
    batch — the whole probe side at once, or one morsel at a time.  Because
    each probe batch is matched independently and results are ordered by
    probe position, concatenating per-morsel probe results reproduces the
    whole-column match list bit for bit.

    Integer keys also get a *radix directory* over the sorted keys: bucket
    ``(key - min) >> shift`` starts at sorted position ``starts[bucket]``,
    so finding a probe key is one gather plus ``depth - 1`` (``depth`` =
    rows in the fullest bucket) vectorised steps — the position
    ``np.searchsorted`` would return, without a cache-missing binary
    search per probe key.  Dense unique keys are the ``depth == 1`` case
    (direct addressing).  The data picks the path at build time; the index
    is read-only afterwards, so worker threads may share it.
    """

    __slots__ = ("order", "sorted_keys", "unique_keys",
                 "_padded", "_base", "_shift", "_starts", "_depth")

    def __init__(self, left_keys: np.ndarray) -> None:
        left_keys = np.asarray(left_keys)
        self.order = np.argsort(left_keys, kind="stable")
        self.sorted_keys = left_keys[self.order]
        self.unique_keys = not np.any(
            self.sorted_keys[1:] == self.sorted_keys[:-1])
        self._depth = 0
        rows = len(left_keys)
        if rows == 0 or left_keys.dtype.kind != "i":
            return
        # Spans reach 2**64 - 1 on folded keys: a Python int here, wrapping
        # int64 differences read as uint64 on the arrays.
        self._base = self.sorted_keys[0].astype(np.int64)
        span = int(self.sorted_keys[-1]) - int(self._base)
        self._shift = np.uint64(
            (span // (DIRECTORY_BUCKETS_PER_ROW * rows)).bit_length())
        counts = np.bincount(self._buckets(self.sorted_keys).view(np.int64))
        if counts.max() > DIRECTORY_MAX_DEPTH:
            return
        self._depth = int(counts.max())
        self._starts = np.cumsum(counts) - counts
        # Sentinel-padded int64 keys: stepping past the last key stops.
        self._padded = np.full(rows + DIRECTORY_MAX_DEPTH,
                               np.iinfo(np.int64).max)
        self._padded[:rows] = self.sorted_keys
        self.sorted_keys = self._padded[:rows]

    @property
    def num_rows(self) -> int:
        return int(len(self.sorted_keys))

    def _buckets(self, keys: np.ndarray) -> np.ndarray:
        """``(key - min) >> shift`` of signed-integer keys, as ``uint64``.

        Keys outside the build range wrap to offsets past the span.
        """
        buckets = np.subtract(keys, self._base, dtype=np.int64).view(np.uint64)
        buckets >>= self._shift
        return buckets

    def _locate(self, keys: np.ndarray) -> np.ndarray:
        """Sorted position of the first build key equal to each probe key.

        ``np.searchsorted(side="left")`` for every key the build side
        holds; an absent key lands on a position (``num_rows`` at most)
        whose key differs from it, which is all :meth:`probe` asks.
        """
        buckets = self._buckets(keys)
        # Out-of-range keys land in the last bucket, where they equal nothing.
        np.minimum(buckets, np.uint64(len(self._starts) - 1), out=buckets)
        positions = self._starts[buckets.view(np.int64)]
        # A key that is present sits among its bucket's first ``depth`` rows.
        for _ in range(self._depth - 1):
            positions += self._padded[positions] < keys
        return positions

    def probe(self, right_keys: np.ndarray,
              ) -> tuple[np.ndarray, np.ndarray]:
        """Positions of all matching ``(left, right)`` pairs for one batch.

        The result is ordered by right index, ties ordered by ascending
        left index — the same order a nested dictionary lookup would
        produce.
        """
        right_keys = np.asarray(right_keys)
        sorted_keys = self.sorted_keys
        empty = (np.asarray([], dtype=np.int64),
                 np.asarray([], dtype=np.int64))
        if len(sorted_keys) == 0 or len(right_keys) == 0:
            return empty
        directory = self._depth > 0 and right_keys.dtype.kind == "i"
        left = (self._locate(right_keys) if directory else
                np.searchsorted(sorted_keys, right_keys, side="left"))
        if self.unique_keys:
            # Unique build keys (the common PK-FK case): one lower bound
            # and a membership test instead of the two bounds below.
            positions = np.minimum(left, len(sorted_keys) - 1, out=left)
            matched = sorted_keys[positions] == right_keys
            right_indices = np.flatnonzero(matched)
            if len(right_indices) == 0:
                return empty
            if len(right_indices) < len(positions):
                positions = positions[right_indices]
            return (self.order[positions].astype(np.int64, copy=False),
                    right_indices.astype(np.int64, copy=False))
        if directory:
            # Right bound = left bound + run length: a run of equal keys
            # is at most ``depth`` long.  Only an int64-max probe key can
            # count the padding, hence the clamp.
            right = left.copy()
            for _ in range(self._depth):
                right += self._padded[right] == right_keys
            np.minimum(right, len(sorted_keys), out=right)
        else:
            right = np.searchsorted(sorted_keys, right_keys, side="right")
        counts = right - left
        right_indices = np.repeat(np.arange(len(right_keys)), counts)
        if len(right_indices) == 0:
            return empty
        # For each probe tuple, enumerate the run of matching build positions.
        starts = np.repeat(left, counts)
        run_offsets = np.arange(len(right_indices)) - np.repeat(
            np.cumsum(counts) - counts, counts)
        return (self.order[starts + run_offsets].astype(np.int64, copy=False),
                right_indices.astype(np.int64, copy=False))


def match_indices(left_keys: np.ndarray,
                  right_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of all matching ``(left, right)`` pairs for an equi-join.

    Vectorized with one stable sort of the left (build) side plus one
    lookup per right (probe) key; handles duplicate left keys.  The
    result is ordered by right index, ties ordered by ascending left index —
    the same order a nested dictionary lookup would produce.  Equivalent to
    ``JoinBuildIndex(left_keys).probe(right_keys)``.
    """
    return JoinBuildIndex(left_keys).probe(right_keys)
