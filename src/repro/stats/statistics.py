"""Per-column catalog statistics: NDV, min/max and equi-width histograms.

The optimizer's original row estimates came from base-table row counts
discounted by a hardcoded per-filter selectivity (``FILTER_SELECTIVITY =
0.3``) — fine for picking join build sides on raw TPC-H tables, useless
for anything predicate-dependent.  This module is the collection half of
the statistics subsystem: :func:`collect_table_statistics` summarizes
every column of a table into a :class:`ColumnStats` (row count, number of
distinct values, min/max, an equi-width :class:`Histogram`) and the
catalog stores the resulting :class:`TableStatistics` next to the table,
versioned exactly like the table itself — a ``register(replace=True)`` or
``drop`` retires the statistics together with the data, so an estimate
can never be derived from statistics of replaced data.

Collection is sampled: tables longer than :data:`SAMPLE_THRESHOLD_ROWS`
are summarized from a deterministic :data:`SAMPLE_ROWS`-row sample
(``default_rng(0)``; one set of positions per table, gathered for every
column), keeping registration cheap for big tables while the histogram
*fractions* (all the estimator consumes) stay accurate; NDV is
extrapolated from the sample with the GEE estimator (the catalog's basic
``distinct_counts`` are derived from the same numbers).  An integer or
bool column is summarized from its (distinct value, count) pairs —
counted with ``np.bincount`` when its span is small, sorted otherwise —
and its histogram bins the distinct values weighted by their counts,
which puts every value in the bin it would fall in alone.  A float column
is sorted and binned value by value: NaNs, infinities and signed zeros
make binning its distinct values inexact.  NaNs are excluded from
min/max and histogram mass; infinities are excluded from the histogram's
bin range but still count toward its total, so range selectivities stay
in ``[0, 1]``.  Dictionary-encoded string columns are summarized over
their integer codes — predicates against such columns compare codes, so
code-space histograms answer exactly the comparisons the engine runs.

Everything here is pure data + NumPy; the estimation half lives in
:mod:`repro.stats.cardinality`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Columns longer than this are summarized from a sample (mirrors the
#: catalog's basic-stats sampling threshold).
SAMPLE_THRESHOLD_ROWS = 200_000
#: Deterministic sample size used above the threshold.
SAMPLE_ROWS = 100_000
#: Number of equi-width histogram bins per column.
DEFAULT_HISTOGRAM_BINS = 64


@dataclass(frozen=True)
class Histogram:
    """Equi-width histogram over the finite values of one column.

    ``edges`` has ``len(counts) + 1`` entries; bin ``i`` covers
    ``[edges[i], edges[i+1])`` with the last bin closed on the right.
    ``counts`` are *sampled* counts — only the fractions matter, so the
    estimator never needs to rescale them to the table's row count.
    ``total`` includes values that fell outside the finite bin range
    (infinities), which keeps every mass estimate a fraction of all
    non-NaN values.  A constant column degenerates to a single zero-width
    bin, handled exactly (all mass at one point).
    """

    edges: tuple[float, ...]
    counts: tuple[int, ...]
    total: int

    @property
    def low(self) -> float:
        return self.edges[0]

    @property
    def high(self) -> float:
        return self.edges[-1]

    def cdf(self, value: float) -> float:
        """Estimated fraction of values ``<= value`` (linear in-bin)."""
        if self.total <= 0:
            return 0.0
        if self.low == self.high:  # constant column: a point mass
            return 1.0 if value >= self.low else 0.0
        if value < self.low:
            return 0.0
        if value >= self.high:
            return sum(self.counts) / self.total
        mass = 0.0
        for index, count in enumerate(self.counts):
            lo, hi = self.edges[index], self.edges[index + 1]
            if value >= hi:
                mass += count
                continue
            if value > lo and hi > lo:
                mass += count * (value - lo) / (hi - lo)
            break
        return mass / self.total

    def mass_between(self, low: float | None, high: float | None) -> float:
        """Estimated fraction of values in ``[low, high]``.

        Bounds are closed; under linear interpolation the open/closed
        distinction is sub-bin noise except for point-mass (constant)
        columns, which are answered exactly.
        """
        if self.total <= 0:
            return 0.0
        if self.low == self.high:  # point mass at the constant value
            inside = ((low is None or low <= self.low)
                      and (high is None or high >= self.low))
            return float(self.counts[0]) / self.total if inside else 0.0
        hi = (self.cdf(high) if high is not None
              else sum(self.counts) / self.total)
        lo = self.cdf(low) if low is not None else 0.0
        return float(min(max(hi - lo, 0.0), 1.0))


@dataclass(frozen=True)
class ColumnStats:
    """Statistics of one column, as collected at ``register()`` time."""

    name: str
    num_rows: int
    #: Number of distinct values (estimated from the sample above the
    #: sampling threshold, exact below it).
    ndv: int
    nbytes: int
    min_value: float | None = None
    max_value: float | None = None
    histogram: Histogram | None = None

    def describe(self) -> str:
        span = ("" if self.min_value is None
                else f" range=[{self.min_value:g}, {self.max_value:g}]")
        bins = ("" if self.histogram is None
                else f" bins={len(self.histogram.counts)}")
        return f"{self.name}: rows={self.num_rows} ndv={self.ndv}{span}{bins}"


@dataclass(frozen=True)
class TableStatistics:
    """Everything the cardinality estimator knows about one table."""

    table: str
    num_rows: int
    nbytes: int
    columns: dict[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> ColumnStats | None:
        return self.columns.get(name)

    def describe(self) -> str:
        lines = [f"{self.table}: rows={self.num_rows} bytes={self.nbytes}"]
        lines.extend("  " + stats.describe()
                     for stats in self.columns.values())
        return "\n".join(lines)


def _distinct(sampled: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a sample, ascending, and how often each occurs.

    An integer or bool sample whose span is at most 4x its length is
    counted (``np.bincount``); anything else is sorted (``np.unique``).
    """
    if sampled.dtype.kind in "biu" and sampled.size:
        ints = (sampled.astype(np.int64) if sampled.dtype.itemsize < 8
                else sampled)
        low = ints.min()
        if int(ints.max()) - int(low) <= 4 * ints.size:
            counts = np.bincount((ints - low).astype(np.intp))
            present = np.flatnonzero(counts)
            return present.astype(ints.dtype) + low, counts[present]
    return np.unique(sampled, return_counts=True)


def _column_stats(name: str, sampled: np.ndarray, scale: float, nbytes: int,
                  num_rows: int, bins: int) -> ColumnStats:
    distinct, counts = _distinct(sampled)
    # NDV is exact below the sampling threshold.  Above it the GEE
    # estimator (Charikar et al.): ``d + (sqrt(scale) - 1) * f1``, where
    # ``f1`` is the number of sample values seen exactly once — repeated
    # values are taken at face value (a low-cardinality column stays low)
    # while singletons extrapolate toward the unsampled remainder (a key
    # column scales up).
    singletons = int(np.count_nonzero(counts == 1))
    ndv = min(num_rows, int(len(counts) + (scale ** 0.5 - 1.0) * singletons))
    if sampled.dtype.kind not in "biuf":
        # Non-numeric payloads (should not occur: strings are
        # dictionary-encoded) get counts only, no range or histogram.
        return ColumnStats(name=name, num_rows=num_rows,
                           ndv=ndv, nbytes=nbytes)
    if sampled.dtype.kind == "f":
        # Binned value by value: NaN, infinities and signed zeros make
        # binning the distinct values inexact.
        points, weights = sampled.astype(np.float64, copy=False), None
        non_nan = int(np.count_nonzero(~np.isnan(points)))
        points = points[np.isfinite(points)]
    else:
        points, weights = distinct.astype(np.float64), counts
        non_nan = int(sampled.size)
    if points.size == 0:
        return ColumnStats(name=name, num_rows=num_rows, ndv=ndv,
                           nbytes=nbytes)
    low, high = float(points.min()), float(points.max())
    if low == high:
        finite = points.size if weights is None else non_nan  # no inf in ints
        histogram = Histogram(edges=(low, high), counts=(int(finite),),
                              total=non_nan)
    else:
        binned, edges = np.histogram(points, bins=bins, range=(low, high),
                                     weights=weights)
        histogram = Histogram(edges=tuple(float(e) for e in edges),
                              counts=tuple(int(c) for c in binned),
                              total=non_nan)
    return ColumnStats(name=name, num_rows=num_rows, ndv=ndv, nbytes=nbytes,
                       min_value=low, max_value=high, histogram=histogram)


def collect_table_statistics(table, *,
                             bins: int = DEFAULT_HISTOGRAM_BINS
                             ) -> TableStatistics:
    """Summarize every column of ``table`` (a :class:`repro.storage.Table`).

    Deterministic: the sample is seeded, so re-registering identical data
    yields identical statistics (and therefore identical plans).  One set
    of sample positions serves every column of the table.
    """
    positions, scale = slice(None), 1.0
    if table.num_rows > SAMPLE_THRESHOLD_ROWS:
        positions = np.random.default_rng(0).choice(
            table.num_rows, size=SAMPLE_ROWS, replace=False)
        scale = table.num_rows / SAMPLE_ROWS
    columns = {
        column.name: _column_stats(column.name, column.values[positions],
                                   scale, int(column.nbytes),
                                   table.num_rows, bins)
        for column in table.columns
    }
    return TableStatistics(table=table.name, num_rows=table.num_rows,
                           nbytes=int(table.nbytes), columns=columns)
