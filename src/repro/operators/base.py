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
   whole-batch kernel applies once to everything.  A *breaker* (aggregates,
   join build sides, the partitioned joins) is handed the resident batch.
   The whole-batch kernel is therefore the reference the driver's
   streaming is tested against: for every engine ``morsel_rows`` the
   streamed columns and the accumulated stats equal the kernel's, bit for
   bit — only the peak working set and the wall-clock schedule change.

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

import threading
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

ArrayMap = dict[str, np.ndarray]

#: Number of functional-kernel invocations per kernel name since the last
#: :func:`reset_kernel_counts` call.  Cost estimators never show up here.
#: Guarded by a lock: a multi-worker server runs its tenants' queries —
#: and so their kernels — on several threads at once; counts are
#: order-independent sums, so locked increments keep the totals exact at
#: every worker count.
_KERNEL_COUNTS: dict[str, int] = {}
_KERNEL_COUNTS_LOCK = threading.Lock()


def record_kernel_invocation(name: str, count: int = 1) -> None:
    """Count functional-kernel executions (for single-evaluation tests)."""
    with _KERNEL_COUNTS_LOCK:
        _KERNEL_COUNTS[name] = _KERNEL_COUNTS.get(name, 0) + count


def kernel_counts() -> dict[str, int]:
    """Snapshot of the per-kernel invocation counters."""
    with _KERNEL_COUNTS_LOCK:
        return dict(_KERNEL_COUNTS)


def reset_kernel_counts() -> None:
    """Zero the per-kernel invocation counters."""
    with _KERNEL_COUNTS_LOCK:
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
        if not self.columns:
            return 0
        return int(len(next(iter(self.columns.values()))))

    @property
    def nbytes(self) -> int:
        return int(sum(values.nbytes for values in self.columns.values()))


def columns_nbytes(columns: Mapping[str, np.ndarray]) -> int:
    """Total payload bytes of a column map."""
    return int(sum(np.asarray(values).nbytes for values in columns.values()))


def columns_num_rows(columns: Mapping[str, np.ndarray]) -> int:
    """Row count of a column map (0 when empty)."""
    if not columns:
        return 0
    return int(len(next(iter(columns.values()))))


def empty_like(columns: Mapping[str, np.ndarray]) -> ArrayMap:
    """A zero-row column map with the same names and dtypes."""
    return {name: np.asarray(values)[:0] for name, values in columns.items()}
