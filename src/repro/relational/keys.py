"""Exact key codes, and the equi-join index and group numbering over them.

Every join and group-by reduces its key columns to one integer *code* per
row before hashing, partitioning or matching — so the code is
**injective**: two rows share a code iff their key tuples are equal, as
NumPy ``==`` compares them (``1.0`` equals ``1``; ``NaN`` groups with
``NaN`` and joins nothing).  A group-by and the co-processed join's
co-partitions never look at the key columns again.  A join's match may:
a unique composite key too sparse for a slot table is indexed on its
leading columns' code and the low bits of its last column, and
:meth:`~repro.operators.hashjoin.HashJoinBuild.match` reads the last key
column of both sides again to verify every hit
(:meth:`KeyDomain.last_span` says when a key may be masked).
:class:`KeyDomain` takes the code's domain from the data of one
*defining* side:

* a single signed-integer column is its own code, as it stands and at its
  own width (whoever subtracts a low from a code widens the difference
  to ``int64``); an unsigned or bool column is widened to ``int64``, the
  kind the index's fast paths take;
* several integer columns are the digits of a mixed-radix number,
  ``sum((value_i - min_i) * stride_i)`` with the first column most
  significant, while the product of the column ranges fits 63 bits.  One
  Horner pass folds the values themselves (``codes * span + value``) and
  subtracts the lows, folded the same way into one wrapped offset, once;
* a column that is not integral, or whose range no longer fits, is first
  replaced by its rank among the side's distinct values (one
  ``np.unique``), and when even that does not fit, the columns coded so
  far are re-ranked the same way — row counts bound every rank.

For a join the build side defines the domain and :meth:`KeyDomain.encode`
codes the probe side with the same fold: a tuple outside the domain gets a
code no build tuple has, a miss by construction.  A probe column whose
minimum and maximum lie in the build column's range is trusted and not
compared row by row.  Codes order like the key tuples, and are as dense as
the data allows — ``KeyDomain.size`` bounds them — which is what lets a
group-by count its groups slot by slot (:meth:`KeyDomain.decode` gives
back their key columns) and :class:`JoinBuildIndex` place build keys by
scattering or counting.

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


def is_integral(values: np.ndarray) -> bool:
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


def _own_code(values: np.ndarray) -> np.ndarray:
    """An integral column as its own code: a signed one as it is, at its
    width (whoever subtracts a low from it widens the difference), others
    widened to the ``int64`` the join index's fast paths take."""
    return values if values.dtype.kind == "i" else values.astype(np.int64)


class KeyDomain:
    """The exact integer code of the key tuples of one defining side.

    ``KeyDomain(columns, keys).codes`` are the codes of the defining side's
    own rows (a group-by's input, a join's build side);
    :meth:`encode` codes another side against the same domain.  With no
    key columns every row is the one empty tuple, code 0.  ``size`` bounds
    the codes: they lie in ``0 .. size - 1`` (``None`` for a column that
    is its own code — a signed one kept as it is, any width, so a
    consumer subtracting a low takes the difference as ``int64``).  Every
    other code is ``int64``.
    """

    __slots__ = ("codes", "size", "_steps")

    def __init__(self, columns: Mapping[str, np.ndarray],
                 keys: Sequence[str]) -> None:
        arrays = key_columns(columns, keys)
        #: Per key column ``(prefix, low, span, distinct)``: the digit is
        #: ``value - low`` in ``0 .. span - 1``, or the value's rank in
        #: ``distinct``; ``prefix`` re-ranks the code so far before it.
        self._steps: list[tuple] = []
        rows = len(next(iter(columns.values()), ()))
        self.size = None   # a column that is its own code: no bound
        if not rows or not arrays:   # no tuples, or only the empty one
            self.codes, self.size = np.zeros(rows, dtype=np.int64), min(rows, 1)
        elif len(arrays) == 1 and is_integral(arrays[0]):
            self._steps.append((None, 0, None, None))   # its own code
            self.codes = _own_code(arrays[0])
        else:
            self.codes, self.size = self._fold(arrays)

    def _fold(self, arrays: Sequence[np.ndarray],
              checks: Sequence[bool] | None = None,
              valid: np.ndarray | None = None) -> tuple[np.ndarray, int]:
        """Fold the key columns into codes by Horner's rule, first column
        most significant: ``codes = codes * span + digit``; returns the
        codes and the size of their domain.

        Without ``checks`` the columns are the defining side's, and each
        one's step is taken from it; with them the steps are the domain's,
        and ``valid`` is cleared where a column ``checks`` names, or a
        rank, falls outside its step (a column that is its own code has no
        range, only non-integers to catch).  An integral digit is folded
        as the value itself: the lows fold the same way into one offset,
        wrapped to ``int64`` and subtracted once, which wrapping arithmetic
        leaves exact for every true code below 2**63.
        """
        codes, offset, size = None, 0, 1
        for index, values in enumerate(arrays):
            digits = values
            if checks is None:
                prefix = distinct = None
                low, span = 0, _CODE_LIMIT   # not integral: ranked below
                if is_integral(values):
                    low = int(values.min())
                    span = int(values.max()) - low + 1
                if size * span >= _CODE_LIMIT:
                    distinct, digits = np.unique(values, return_inverse=True)
                    low, span = 0, len(distinct)
                    if size * span >= _CODE_LIMIT:
                        codes -= offset
                        prefix, codes = np.unique(codes, return_inverse=True)
                        offset, size = 0, len(prefix)
                self._steps.append((prefix, low, span, distinct))
            else:
                prefix, low, span, distinct = self._steps[index]
                if prefix is not None:
                    codes -= offset
                    codes, offset = _ranks(prefix, codes, valid), 0
                    size = len(prefix)
                if distinct is not None:
                    digits = _ranks(distinct, values, valid)
                elif checks[index]:
                    if not is_integral(values):
                        with np.errstate(invalid="ignore"):   # NaN, inf
                            digits = values.astype(np.int64)
                        valid &= digits == values
                    if span is not None:
                        # One unsigned compare: a value below ``low`` wraps
                        # to a difference past every span.
                        valid &= np.subtract(digits, low, dtype=np.int64
                                             ).view(np.uint64) < np.uint64(span)
            if codes is None:   # widened once; later digits add as they are
                codes = values.astype(np.int64) if digits is values else digits
                offset, size = low, span
            else:
                codes *= span
                codes += digits
                # The offset, wrapped into int64 as the codes wrap.
                offset = ((offset * span + low + _CODE_LIMIT)
                          % (2 * _CODE_LIMIT) - _CODE_LIMIT)
                size *= span
        if offset:
            codes -= offset
        return codes, size

    def last_span(self) -> int | None:
        """The span of the last key column, when there are two or more and
        each is folded as ``value - low`` (none ranked): the digit a join
        may mask (:class:`~repro.operators.hashjoin.HashJoinBuild`)."""
        offsets = len(self._steps) > 1 and all(
            prefix is None and distinct is None
            for prefix, _, _, distinct in self._steps)
        return self._steps[-1][2] if offsets else None

    def decode(self, codes: np.ndarray,
               like: Sequence[np.ndarray]) -> list[np.ndarray] | None:
        """The key columns of the tuples ``codes`` stand for, typed like
        the columns ``like``: ``low + digit`` per column.

        ``None`` when a step ranks (a rank stands for values that compare
        equal, not for their bits: ``-0.0`` and ``0.0`` share one) or the
        domain has no step per column (it saw no rows).
        """
        if len(self._steps) != len(like) or any(
                prefix is not None or distinct is not None
                for prefix, _, _, distinct in self._steps):
            return None
        columns = []
        for index in reversed(range(len(like))):
            _, low, span, _ = self._steps[index]
            digits = codes
            if index:
                codes, digits = np.divmod(codes, span)
            columns.append((digits + low).astype(like[index].dtype))
        return columns[::-1]

    def encode(self, columns: Mapping[str, np.ndarray],
               keys: Sequence[str]) -> np.ndarray:
        """Codes of another side's key tuples; a tuple the defining side
        does not span gets a code none of its tuples has.

        An integral column whose values all lie in its step's range is
        trusted: no compare is made on it, and when every column is
        trusted no validity mask either.
        """
        arrays = key_columns(columns, keys)
        rows = len(arrays[0])   # a join has at least one key column
        if not (rows and len(self.codes)):
            return np.full(rows, -1, dtype=np.int64)
        if self.size is None and is_integral(arrays[0]):
            return _own_code(arrays[0])
        # A column is checked when it is ranked, not integral, or strays
        # out of its step's range; a column that is its own code has none.
        checks = [distinct is not None or not is_integral(values)
                  or span is not None and not low <= int(values.min())
                  <= int(values.max()) < low + span
                  for values, (_, low, span, distinct)
                  in zip(arrays, self._steps)]
        valid = np.ones(rows, dtype=bool) if any(checks) else None
        codes, _ = self._fold(arrays, checks, valid)
        if valid is not None and not valid.all():
            # Coded domains are non-negative; a column that is its own
            # code may hold any int64, but not all of ``0 .. rows``.
            codes[~valid] = (-1 if self.size is not None else
                             np.setdiff1d(np.arange(len(self.codes) + 1),
                                          self.codes)[0])
        return codes


#: Radix-directory sizing: about this many buckets per build row, and at
#: most this many rows in the fullest bucket — a fuller one (clustered
#: values, heavy duplicates) keeps the binary search.
DIRECTORY_BUCKETS_PER_ROW = 4
DIRECTORY_MAX_DEPTH = 8
#: Unique keys spanning fewer values than this many per build row get a
#: slot table instead of a directory.
SLOT_SPAN_PER_ROW = 32


class JoinBuildIndex:
    """Key index over a join's build side (build once, probe many).

    The build-then-probe surface of every equi-join: constructing the index
    lays out the build keys once; :meth:`probe` can then be called per
    probe batch — the whole probe side at once, or one morsel at a time.
    Because each probe batch is matched independently and results are
    ordered by probe position, concatenating per-morsel probe results
    reproduces the whole-column match list bit for bit.

    Integer keys spanning fewer than ``SLOT_SPAN_PER_ROW`` values per row
    that are not pigeonholed (``span + 1 >= rows``) are scattered, row by
    row, into slots first; every other integer build — and one whose
    scatter leaves fewer occupied slots than rows — is counted by offset
    ``key - min`` before anything is ordered.  Four paths in all:

    * unique keys spanning fewer than ``SLOT_SPAN_PER_ROW`` values per row
      (primary keys, dense key codes, a filtered primary key) get a *slot
      table*: slot ``key - min + 1`` holds the build row with that key, or
      -1, in the narrowest signed integer that holds ``-rows`` — 4 bytes
      below 2**31 rows, so a 250k-row build's table takes 1 MB and stays
      in a 2 MiB L2, as the radix join sizes its partitions to the cache.
      The scatter that fills it proves the keys unique — ``rows``
      occupied slots, no row overwritten — so nothing is counted or
      ordered.  A probe is one offset, one narrow gather that clamps it (a
      key outside the span reads an empty end slot) and one ``>= 0``
      test; the hits are widened to ``int64`` once, after the misses are
      compacted away.  When every probe key hits, the gathered rows are
      the build positions as they stand and the probe positions ``None``;
    * other keys get a *radix directory* over the sorted keys: bucket
      ``(key - min) >> shift`` starts at sorted position ``starts[bucket]``.
      Keys spanning fewer values than the directory has buckets
      (``shift == 0``) put one key value in each bucket, so the directory
      is *exact*: a probe key's run of equal build keys starts at
      ``starts[bucket]`` and is ``counts[bucket]`` long.  The rows are
      ordered by one stable sort of the bucket ids — 16-bit ids where the
      span allows, which NumPy sorts by radix in O(n);
    * sparser keys — repeated ones spanning fewer than
      ``SLOT_SPAN_PER_ROW`` values a row included, their per-value counts
      summed into the buckets — find a probe key with one gather plus
      ``depth - 1`` (``depth`` = rows in the fullest bucket) vectorised
      steps: the position ``np.searchsorted`` would return, without a
      cache-missing binary search per probe key.  The rows are ordered by
      a stable sort of the keys, or by one scatter to ``starts[bucket]``
      when no bucket holds two keys;
    * a fuller bucket than ``DIRECTORY_MAX_DEPTH``, or keys that are not
      integers, keep the binary search.

    :class:`~repro.operators.hashjoin.HashJoinBuild` also hands it
    *masked* codes of a unique composite key — the leading columns' code
    and the last column's low bits, unique by construction and no wider
    than ``SLOT_SPAN_PER_ROW`` values a row — which always make a slot
    table; the caller verifies the last key column on every hit, so the
    index needs to know nothing of it.

    The index is read-only after construction — no probe caches anything
    on it.
    """

    __slots__ = ("order", "sorted_keys", "unique_keys", "_keys", "_padded",
                 "_base", "_shift", "_starts", "_counts", "_slots", "_depth")

    def __init__(self, left_keys: np.ndarray) -> None:
        left_keys = self._keys = np.asarray(left_keys)
        rows = len(left_keys)
        #: Rows in the fullest bucket (0: no directory), the run length of
        #: every bucket when the directory is exact, and the build row at
        #: every key offset of a slot table (``None``: not that path).
        depth, self._counts, self._slots, fine = 0, None, None, False
        if rows and left_keys.dtype.kind == "i":
            # Spans reach 2**64 - 1 on keys that use every bit: a Python int
            # here, wrapping int64 differences read as uint64 on the arrays.
            self._base = left_keys.min().astype(np.int64)
            span = int(left_keys.max()) - int(self._base)
            shift = (span // (DIRECTORY_BUCKETS_PER_ROW * rows)).bit_length()
            # Keys a slot table could hold have ``fine`` bucket ids, one
            # per value, ordering like them.
            fine = span < SLOT_SPAN_PER_ROW * rows
            self._shift = np.uint64(0 if fine else shift)
            buckets = self._buckets(left_keys)
            if fine and span + 1 >= rows:   # not pigeonholed: may be unique
                # Every row scattered to slot ``key - min + 1``: when no
                # row overwrote another, the keys are unique and this is
                # the slot table, its first and last slot empty.
                slots = np.full(span + 3, -1, np.min_scalar_type(-rows))
                slots[1:][buckets] = np.arange(rows, dtype=slots.dtype)
                if np.count_nonzero(slots >= 0) == rows:
                    # No sorted copy is kept (see ``probe``).
                    self._base = np.subtract(self._base, 1, dtype=np.int64)
                    self._slots, self.order, self._depth = slots, None, 1
                    self.sorted_keys, self.unique_keys = None, True
                    return
            # Repeated keys, or keys no slot table holds, are counted per
            # bucket; a ``fine`` count's last bucket is empty.
            if span >> int(self._shift) < 1 << 16:
                buckets = buckets.astype(np.uint16)
            counts = np.bincount(buckets, minlength=span + 2 if fine else 0)
            depth = int(counts.max())
            if fine and shift and depth > 1:   # repeated keys step
                self._shift = np.uint64(shift)
                counts = np.add.reduceat(counts,
                                         np.arange(0, span + 2, 1 << shift))
                depth = int(counts.max())
            if not shift or depth <= DIRECTORY_MAX_DEPTH:
                self._starts = np.cumsum(counts)
                self._starts -= counts
                if not shift:   # run lengths, as narrow as they fit
                    self._counts = counts.astype(np.min_scalar_type(depth))
            else:
                depth = 0
        if depth == 1:
            # No bucket holds two keys, so bucket order is key order: the
            # counts place every row, nothing is sorted.
            self.order = np.empty(rows, dtype=np.int64)
            self.order[self._starts[buckets]] = np.arange(rows)
        else:
            self.order = np.argsort(buckets if fine else left_keys,
                                    kind="stable")
        self._depth = depth
        if self._counts is not None:
            # Nothing searches these keys (see ``probe``): an exact
            # directory's repeat.
            self.sorted_keys, self.unique_keys = None, False
            return
        self.sorted_keys = left_keys[self.order]
        self.unique_keys = depth == 1 or not np.any(
            self.sorted_keys[1:] == self.sorted_keys[:-1])
        if not depth:
            return
        # Sentinel-padded int64 keys: stepping past the last key stops.
        self._padded = np.full(rows + DIRECTORY_MAX_DEPTH,
                               np.iinfo(np.int64).max)
        self._padded[:rows] = self.sorted_keys
        self.sorted_keys = self._padded[:rows]

    def _buckets(self, keys: np.ndarray,
                 table: np.ndarray | None = None) -> np.ndarray:
        """``(key - min) >> shift`` of signed-integer keys.

        A key outside the build range wraps to an offset past the span,
        which is clamped to the last entry of ``table`` when one is given.
        """
        buckets = np.subtract(keys, self._base, dtype=np.int64).view(np.uint64)
        if self._shift:
            buckets >>= self._shift
        if table is not None:
            np.minimum(buckets, np.uint64(len(table) - 1), out=buckets)
        return buckets.view(np.int64)

    def _locate(self, keys: np.ndarray) -> np.ndarray:
        """Sorted position of the first build key equal to each probe key.

        ``np.searchsorted(side="left")`` for every key the build side
        holds; an absent key lands on a position (``num_rows`` at most)
        whose key differs from it, which is all :meth:`probe` asks.
        """
        # Out-of-range keys land in the last bucket, where they equal nothing.
        positions = self._starts[self._buckets(keys, self._starts)]
        # A key that is present sits among its bucket's first ``depth`` rows.
        for _ in range(self._depth - 1):
            positions += self._padded[positions] < keys
        return positions

    def probe(self, right_keys: np.ndarray,
              ) -> tuple[np.ndarray, np.ndarray | None]:
        """Positions of all matching ``(left, right)`` pairs for one batch.

        The result is ordered by right index, ties ordered by ascending
        left index — the same order a nested dictionary lookup would
        produce.  Right positions ``None`` mean every right row once, in
        order: unique build keys that every probe key hit.
        """
        right_keys = np.asarray(right_keys)
        if not len(self._keys):   # no build key: nothing matches
            return np.empty(0, np.int64), np.empty(0, np.int64)
        integral = right_keys.dtype.kind == "i"
        if self._slots is not None and integral:
            # One narrow gather — a key outside the span (its offset
            # wrapped or not) is clamped to an empty end slot — widened
            # once, after the misses are compacted away.
            left = self._slots.take(np.subtract(
                right_keys, self._base, dtype=np.int64), mode="clip")
            hits = left >= 0
            if hits.all():   # every probe key matched: nothing to compact
                return left.astype(np.int64), None
            right_indices = np.flatnonzero(hits)
            return left[right_indices].astype(np.int64), right_indices
        if self._counts is not None and integral:
            # The exact directory: every run's start and length, one
            # gather each.
            buckets = self._buckets(right_keys, self._counts)
            left, counts = self._starts[buckets], self._counts[buckets]
        else:
            # Keys the table or an exact directory cannot address search a
            # sorted copy, made for this batch: the index stays as it is.
            order = (self.order if self._slots is None else
                     self._slots[self._slots >= 0].astype(np.int64))
            sorted_keys = (self.sorted_keys if self.sorted_keys is not None
                           else self._keys[order])
            stepping = self._depth > 0 and integral
            left = (self._locate(right_keys) if stepping else
                    np.searchsorted(sorted_keys, right_keys, side="left"))
            if self.unique_keys:
                # One lower bound and a membership test instead of the
                # two bounds below: a probe key matches once or not at all
                # (a bound past the last key reads the last, clipped).
                hits = np.take(sorted_keys, left, mode="clip") == right_keys
                if hits.all():   # every bound is a match
                    return order[left], None
                right_indices = np.flatnonzero(hits)
                return order[left[right_indices]], right_indices
            if stepping:
                # Right bound = left bound + run length: a run of equal
                # keys is at most ``depth`` long.  Only an int64-max probe
                # key can count the padding, hence the clamp.
                right = left.copy()
                for _ in range(self._depth):
                    right += self._padded[right] == right_keys
                np.minimum(right, len(sorted_keys), out=right)
                counts = right - left
            else:
                counts = np.searchsorted(sorted_keys, right_keys,
                                         side="right") - left
        counts = counts.astype(np.int64, copy=False)   # narrow run lengths
        right_indices = np.repeat(np.arange(len(right_keys)), counts)
        # For each probe tuple, enumerate the run of matching build
        # positions: output slot ``first + j`` of a run reads sorted
        # position ``left + j``, i.e. the run's ``left - first`` plus the
        # slot's own number.
        positions = np.repeat(left + counts - np.cumsum(counts), counts)
        positions += np.arange(len(positions))
        return self.order[positions], right_indices


def group_ids(codes: np.ndarray,
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Number the distinct codes ``0 .. n - 1`` in ascending order.

    Returns ``(distinct, ids, counts)``: the distinct codes, the group of
    every row and the rows of every group — by the sort inside
    ``np.unique``, for codes sparser than their rows (a single wide
    column, a pair of foreign keys) that a group-by cannot count slot by
    slot.
    """
    return np.unique(codes, return_inverse=True, return_counts=True)
