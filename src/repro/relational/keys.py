"""Exact key codes, and the equi-join index and group numbering over them.

Every join and group-by reduces its key columns to one ``int64`` *code* per
row before hashing, partitioning or matching, and nothing looks at the
columns again — so the code is **injective**: two rows share a code iff
their key tuples are equal, as NumPy ``==`` compares them (``1.0`` equals
``1``; ``NaN`` groups with ``NaN`` and joins nothing).  :class:`KeyDomain`
takes the code's domain from the data of one *defining* side:

* a single integer column is its own code (the value as ``int64``);
* several integer columns are the digits of a mixed-radix number,
  ``sum((value_i - min_i) * stride_i)`` with the first column most
  significant, while the product of the column ranges fits 63 bits;
* a column that is not integral, or whose range no longer fits, is first
  replaced by its rank among the side's distinct values (one
  ``np.unique``), and when even that does not fit, the columns coded so
  far are re-ranked the same way — row counts bound every rank.

For a join the build side defines the domain and :meth:`KeyDomain.encode`
codes the probe side: a tuple outside the domain gets a code no build
tuple has, a miss by construction.  Codes order like the key tuples, and
are as dense as the data allows — which is what lets :func:`group_ids`
number groups and :class:`JoinBuildIndex` order unique build keys by
counting, without a sort.

This module depends only on NumPy and the expression AST.  The reference
executor (:mod:`repro.relational.reference`) must not import it: the oracle
groups and matches on the column values themselves.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .expr import ColumnRef

#: Codes are non-negative ``int64``: a domain holds fewer tuples than this.
_CODE_LIMIT = 1 << 63


def key_columns(columns: Mapping[str, np.ndarray],
                keys: Sequence[str]) -> list[np.ndarray]:
    """The key columns ``keys`` names, resolved as column references: a
    name the input lacks is the ``ExpressionError`` a filter or projection
    over it raises, never a bare ``KeyError``."""
    return [ColumnRef(name).evaluate(columns) for name in keys]


def _is_integral(values: np.ndarray) -> bool:
    """Whether every value of the column's dtype is exactly an ``int64``."""
    kind = values.dtype.kind
    return kind in "ib" or (kind == "u" and values.dtype.itemsize < 8)


def _ranks(distinct: np.ndarray, values: np.ndarray,
           valid: np.ndarray) -> np.ndarray:
    """Position of each value in the sorted ``distinct`` values; ``valid``
    is cleared where the value is not among them."""
    ranks = np.searchsorted(distinct, values)
    np.minimum(ranks, len(distinct) - 1, out=ranks)
    valid &= distinct[ranks] == values
    return ranks


class KeyDomain:
    """The exact ``int64`` code of the key tuples of one defining side.

    ``KeyDomain(columns, keys).codes`` are the codes of the defining side's
    own rows (a group-by's input, a join's build side);
    :meth:`encode` codes another side against the same domain.  With no
    key columns every row is the one empty tuple, code 0.
    """

    __slots__ = ("codes", "_steps")

    def __init__(self, columns: Mapping[str, np.ndarray],
                 keys: Sequence[str]) -> None:
        arrays = key_columns(columns, keys)
        #: Per key column ``(prefix, low, span, distinct)``: the digit is
        #: ``value - low`` in ``0 .. span - 1``, or the value's rank in
        #: ``distinct``; ``prefix`` re-ranks the code so far before it.
        self._steps: list[tuple] = []
        rows = len(next(iter(columns.values()), ()))
        if not rows or not arrays:   # no tuples, or only the empty one
            self.codes = np.zeros(rows, dtype=np.int64)
            return
        if len(arrays) == 1 and _is_integral(arrays[0]):
            self._steps.append((None, 0, None, None))   # its own code
            self.codes = arrays[0].astype(np.int64, copy=False)
            return
        codes, size = None, 1
        for values in arrays:
            prefix = distinct = None
            low, span = 0, _CODE_LIMIT   # not integral: ranked below
            if _is_integral(values):
                low = int(values.min())
                span = int(values.max()) - low + 1
            if size * span < _CODE_LIMIT:
                digits = values.astype(np.int64)
                digits -= low
            else:
                distinct, digits = np.unique(values, return_inverse=True)
                low, span = 0, len(distinct)
                if size * span >= _CODE_LIMIT:
                    prefix, codes = np.unique(codes, return_inverse=True)
                    size = len(prefix)
            if codes is None:
                codes = digits
            else:
                codes *= span
                codes += digits
            size *= span
            self._steps.append((prefix, low, span, distinct))
        self.codes = codes

    def encode(self, columns: Mapping[str, np.ndarray],
               keys: Sequence[str]) -> np.ndarray:
        """Codes of another side's key tuples; a tuple the defining side
        does not span gets a code none of its tuples has."""
        arrays = key_columns(columns, keys)
        rows = len(arrays[0])   # a join has at least one key column
        if not len(self.codes):
            return np.full(rows, -1, dtype=np.int64)
        valid = np.ones(rows, dtype=bool)
        codes = None
        for values, (prefix, low, span, distinct) in zip(arrays, self._steps):
            if prefix is not None:
                codes = _ranks(prefix, codes, valid)
            if distinct is not None:
                digits = _ranks(distinct, values, valid)
            else:
                with np.errstate(invalid="ignore"):   # NaN, inf: no match
                    digits = values.astype(np.int64)
                if not _is_integral(values):
                    valid &= digits == values
                if span is not None:
                    # One unsigned compare: a value below ``low`` wraps
                    # to a difference past every span.
                    digits -= low
                    valid &= digits.view(np.uint64) < np.uint64(span)
            if codes is None:
                codes = digits
            else:
                codes *= span
                codes += digits
        if not valid.all():
            # Coded domains are non-negative; a column that is its own
            # code (the one step without a span) may hold any int64, but
            # not all of ``0 .. rows``.
            codes[~valid] = (-1 if span is not None else
                             np.setdiff1d(np.arange(len(self.codes) + 1),
                                          self.codes)[0])
        return codes


#: Radix-directory sizing: about this many buckets per build row, and at
#: most this many rows in the fullest bucket — a fuller one (clustered
#: values, heavy duplicates) keeps the binary search.
DIRECTORY_BUCKETS_PER_ROW = 4
DIRECTORY_MAX_DEPTH = 8


class JoinBuildIndex:
    """Sorted key index over a join's build side (build once, probe many).

    The build-then-probe surface of every equi-join: constructing the index
    orders the build keys once; :meth:`probe` can then be called per probe
    batch — the whole probe side at once, or one morsel at a time.  Because
    each probe batch is matched independently and results are ordered by
    probe position, concatenating per-morsel probe results reproduces the
    whole-column match list bit for bit.

    Integer keys also get a *radix directory* over the sorted keys: bucket
    ``(key - min) >> shift`` starts at sorted position ``starts[bucket]``,
    so finding a probe key is one gather plus ``depth - 1`` (``depth`` =
    rows in the fullest bucket) vectorised steps — the position
    ``np.searchsorted`` would return, without a cache-missing binary
    search per probe key.  The bucket counts are taken *before* the keys
    are ordered: unique keys no denser than the buckets (``depth == 1`` —
    primary keys, dense key codes, direct addressing) are placed by one
    scatter to ``starts[bucket]``, and only the rest pay a stable sort.
    The data picks the path at build time; the index is read-only
    afterwards, so worker threads may share it.
    """

    __slots__ = ("order", "sorted_keys", "unique_keys",
                 "_padded", "_base", "_shift", "_starts", "_depth")

    def __init__(self, left_keys: np.ndarray) -> None:
        left_keys = np.asarray(left_keys)
        rows = len(left_keys)
        depth = 0
        if rows and left_keys.dtype.kind == "i":
            # Spans reach 2**64 - 1 on keys that use every bit: a Python int
            # here, wrapping int64 differences read as uint64 on the arrays.
            self._base = left_keys.min().astype(np.int64)
            span = int(left_keys.max()) - int(self._base)
            self._shift = np.uint64(
                (span // (DIRECTORY_BUCKETS_PER_ROW * rows)).bit_length())
            buckets = self._buckets(left_keys).view(np.int64)
            counts = np.bincount(buckets)
            if counts.max() <= DIRECTORY_MAX_DEPTH:
                depth = int(counts.max())
                self._starts = np.cumsum(counts) - counts
        if depth == 1:
            # No bucket holds two keys, so bucket order is key order: the
            # counts place every row, nothing is sorted.
            self.order = np.empty(rows, dtype=np.int64)
            self.order[self._starts[buckets]] = np.arange(rows)
        else:
            self.order = np.argsort(left_keys, kind="stable")
        self.sorted_keys = left_keys[self.order]
        self.unique_keys = depth == 1 or not np.any(
            self.sorted_keys[1:] == self.sorted_keys[:-1])
        self._depth = depth
        if not depth:
            return
        # Sentinel-padded int64 keys: stepping past the last key stops.
        self._padded = np.full(rows + DIRECTORY_MAX_DEPTH,
                               np.iinfo(np.int64).max)
        self._padded[:rows] = self.sorted_keys
        self.sorted_keys = self._padded[:rows]

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


def group_ids(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct codes ``0 .. n - 1`` in ascending order.

    Returns ``(ids, counts)``: the group of every row and the rows of
    every group.  Codes no sparser than the join directory's buckets are
    numbered by counting — occupied slots of one ``bincount``, ids by one
    gather; sparser ones (a single wide column, a pair of foreign keys)
    by the sort inside ``np.unique``.
    """
    if len(codes) == 0:
        return codes, codes
    low = codes.min()
    if int(codes.max()) - int(low) >= DIRECTORY_BUCKETS_PER_ROW * len(codes):
        _, ids, counts = np.unique(codes, return_inverse=True,
                                   return_counts=True)
        return ids, counts
    slots = codes - low
    per_slot = np.bincount(slots)
    occupied = per_slot > 0
    return (np.cumsum(occupied) - 1)[slots], per_slot[occupied]
