"""Shared infrastructure for executable operators.

The kernel / stats / estimate contract
--------------------------------------

Every operator is split into two pure entry points that mirror the paper's
device-invariant-skeleton / device-specific-knobs separation:

* a **functional kernel** (``*_kernel(columns, ...) -> (columns, stats)``)
  that evaluates the NumPy result — it never looks at a device and returns
  the output columns together with a small frozen *stats* record (row
  counts, touched bytes, per-pass partition sizes) describing the work it
  performed, and
* a **cost estimator** (``estimate_*(stats, device, ...) -> OpCost``) that
  converts such a stats record into an :class:`OpCost` for one device — it
  never touches array data, so the executor can invoke it once per device
  kind while the kernel runs exactly once per plan node.

The contract has three invariants the executor (and the tests) rely on:

1. **Single evaluation** — a kernel runs at most once per distinct plan
   subtree per query, and at most once per *session* while the engine's
   cross-query cache (:mod:`repro.engine.querycache`) holds the subtree's
   result; estimators may run any number of times.  Kernels report each
   invocation through :func:`record_kernel_invocation` so tests can pin
   the counts.
2. **Stats determinism** — the stats record is a pure function of the
   input data and operator arguments, never of the device, the morsel
   granularity or the schedule.  Simulated seconds derive only from stats,
   which is what keeps timing figures reproducible.
3. **Morsel transparency** — kernels take whole batches; no operator
   carves its own input.  The one carve -> stream -> reassemble loop is the
   executor's driver (``Executor._evaluate``).  A *streaming* operator
   (filter/project, the hash join's probe phase; exchange routing forwards
   morsels untouched) gives that driver a pure per-morsel body —
   :func:`~repro.operators.filterproject.filter_project_morsel`,
   :meth:`~repro.operators.hashjoin.HashJoinBuild.probe` — which its own
   whole-batch kernel applies once to everything.  Inside a stream a
   morsel is a :class:`Rows` view: a filter or a probe composes row
   positions, each column is gathered once and only when read, and the
   driver materializes the view at the chain's boundary.  A *breaker*
   (aggregates, join build sides, the partitioned joins) is handed the
   resident batch, a plain column map.
   The whole-batch kernel is therefore the reference the driver's
   streaming is tested against: for every engine ``morsel_rows``, alone
   or as a stage of a fused chain, the streamed columns and the
   accumulated stats equal the kernel's, bit for bit — only the peak
   working set and the wall-clock schedule change.

The join helpers of the microbenchmarks (``non_partitioned_join``,
``cpu_radix_join``, ...) call the kernel and the estimator back to back.
Operators never touch device clocks
themselves — the executor decides how costs map onto the timeline
(sequential chains, parallel instances, overlapped transfers).  The one
operator that *is* a schedule over several devices, the co-processed
join, keeps the split all the same: its estimate half
(:func:`~repro.operators.coprocess.charge_coprocessed_join`) replays the
stats record onto the clocks it is handed.  This
separation keeps the operators unit-testable and lets the paper-scale
analytic models reuse the exact same costing code.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

ArrayMap = dict[str, np.ndarray]

#: Number of functional-kernel invocations per kernel name since the last
#: :func:`reset_kernel_counts` call.  Cost estimators never show up here.
#: One thread drives a session or a server, so plain increments are exact.
_KERNEL_COUNTS: dict[str, int] = {}


def record_kernel_invocation(name: str, count: int = 1) -> None:
    """Count functional-kernel executions (for single-evaluation tests)."""
    _KERNEL_COUNTS[name] = _KERNEL_COUNTS.get(name, 0) + count


def kernel_counts() -> dict[str, int]:
    """Snapshot of the per-kernel invocation counters."""
    return dict(_KERNEL_COUNTS)


def reset_kernel_counts() -> None:
    """Zero the per-kernel invocation counters."""
    _KERNEL_COUNTS.clear()


@dataclass
class OpCost:
    """Simulated cost of one operator invocation, with a breakdown."""

    seconds: float = 0.0
    breakdown: dict[str, float] = field(default_factory=dict)

    def add(self, label: str, seconds: float) -> "OpCost":
        """Accumulate ``seconds`` under ``label``; returns self for chaining."""
        if seconds < 0:
            raise ValueError("cost contributions cannot be negative")
        self.seconds += seconds
        self.breakdown[label] = self.breakdown.get(label, 0.0) + seconds
        return self

    def merge(self, other: "OpCost") -> "OpCost":
        """Fold another cost into this one."""
        for label, seconds in other.breakdown.items():
            self.add(label, seconds)
        if not other.breakdown and other.seconds:
            self.add("other", other.seconds)
        return self

    def scaled(self, factor: float) -> "OpCost":
        """A copy with every contribution multiplied by ``factor``.

        Used to model intra-device parallelism: work split perfectly over
        ``n`` homogeneous workers is ``scaled(1 / n)``.
        """
        if factor < 0:
            raise ValueError("scale factor cannot be negative")
        scaled = OpCost()
        for label, seconds in self.breakdown.items():
            scaled.add(label, seconds * factor)
        if not self.breakdown and self.seconds:
            scaled.add("other", self.seconds * factor)
        return scaled


@dataclass
class OpOutput:
    """Result columns of an operator plus the cost of producing them."""

    columns: ArrayMap
    cost: OpCost

    @property
    def num_rows(self) -> int:
        return columns_num_rows(self.columns)


def columns_num_rows(columns: Mapping[str, np.ndarray]) -> int:
    """Row count of a column map (0 when empty)."""
    if not columns:
        return 0
    return int(len(next(iter(columns.values()))))


class Rows(Mapping):
    """A batch as row positions into the arrays its columns came from.

    Each column name maps to a pair: the source array and the positions to
    read from it (``None``: the array as is).  A column is gathered the
    first time it is read, and only once — a view taken from this one reads
    the gathered array; a filter or a join probe composes positions
    (:meth:`take`) instead of moving any column.  Being a ``Mapping``, a
    view goes wherever a column map does — ``Expr.evaluate``,
    ``KeyDomain.encode`` — and ``dict(rows)`` materializes it.  Its bytes
    are rows x item size per column, which is what the gathered 1-D arrays
    hold, so stats read them without gathering.  Reading a column fills
    the view's cache.
    """

    __slots__ = ("pairs", "num_rows", "_read")

    def __init__(self, pairs: dict[str, tuple[np.ndarray, np.ndarray | None]],
                 num_rows: int) -> None:
        self.pairs = pairs
        self.num_rows = num_rows
        self._read: ArrayMap = {}

    @classmethod
    def of(cls, columns: Mapping[str, np.ndarray]) -> "Rows":
        """``columns`` as a view (a view is returned as is)."""
        if isinstance(columns, Rows):
            return columns
        arrays = {name: np.asarray(values) for name, values in columns.items()}
        return cls({name: (values, None) for name, values in arrays.items()},
                   columns_num_rows(arrays))

    def __getitem__(self, name: str) -> np.ndarray:
        values = self._read.get(name)
        if values is None:
            source, positions = self.pairs[name]
            values = self._read[name] = (source if positions is None
                                         else source[positions])
        return values

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def nbytes(self, names: set[str] | None = None) -> int:
        """Bytes of the named columns (all with ``None``) once gathered."""
        return int(sum(self.num_rows * source.itemsize
                       for name, (source, _) in self.pairs.items()
                       if names is None or name in names))

    def take(self, positions: np.ndarray | None) -> "Rows":
        """A view of the rows at ``positions`` (``None``: all, in order).

        A column this view has gathered is read from its gathered array;
        every other distinct positions array is composed once.
        """
        composed = {id(None): positions}
        pairs = {}
        for name, (source, own) in self.pairs.items():
            if name in self._read:
                source, own = self._read[name], None
            if id(own) not in composed:
                composed[id(own)] = own if positions is None else own[positions]
            pairs[name] = (source, composed[id(own)])
        return Rows(pairs, self.num_rows if positions is None
                    else len(positions))

    @staticmethod
    def joined(build: "Rows", probe: "Rows", build_positions: np.ndarray,
               probe_positions: np.ndarray | None) -> "Rows":
        """A join's output: the build columns at the build match positions,
        then the probe columns at theirs (probe columns win name clashes;
        ``None`` keeps the probe rows as they are)."""
        return Rows({**build.take(build_positions).pairs,
                     **probe.take(probe_positions).pairs},
                    len(build_positions))
