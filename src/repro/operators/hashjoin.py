"""Non-partitioned (hardware-oblivious) hash join.

The baseline every partitioned join is compared against (Figures 6 and 9):
build one global hash table over the build side, then probe it with every
probe-side tuple.  Both phases perform random accesses over a table that is
usually far larger than any cache, so they over-fetch a full cache line /
memory sector per access and suffer TLB misses — that is precisely the
"random accesses are the main bottleneck" argument of Section 4.1.

Following the single-evaluation operator contract (see
:mod:`repro.operators`), :func:`hash_join_kernel` computes the join result
once while :func:`estimate_non_partitioned_join` prices the same work on any
device from a :class:`JoinStats` record alone.

Under the morsel contract the join is *build-then-probe*: the build side is
a pipeline breaker (:class:`HashJoinBuild` takes the resident build batch
whole), after which the probe side may stream: :meth:`HashJoinBuild.probe`
is the per-morsel body the executor's driver applies to one probe morsel at
a time, and because the match list is ordered by probe position,
concatenated per-morsel outputs equal the whole-column join bit for bit.
:func:`hash_join_kernel` is build once, probe once — the reference that
streaming is tested against.

That probe surface is also what makes this join *fusable*
(:func:`repro.codegen.pipeline.is_fused_probe`): the executor's
pipeline-fused chains build the index once and then drive each chain
morsel through :meth:`HashJoinBuild.probe` on its way to the fusion
boundary, so the join output never materializes as a standalone batch.
The partitioned joins cannot offer this — they re-order both inputs — and
therefore always break the chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..hardware.device import Device
from ..relational.keys import JoinBuildIndex, KeyDomain
from .base import (
    ArrayMap,
    OpCost,
    OpOutput,
    columns_num_rows,
    record_kernel_invocation,
)
from .filterproject import compute_ops_per_sec

#: Bytes of one hash-table entry: key, payload reference and next pointer.
HASH_ENTRY_BYTES = 16

#: Scalar ops per build/probe step in generated code (hashing + compare).
_OPS_PER_STEP = 8.0


def _materialize_join(build: Mapping[str, np.ndarray],
                      probe: Mapping[str, np.ndarray],
                      build_indices: np.ndarray,
                      probe_indices: np.ndarray) -> ArrayMap:
    """Gather the output columns of a join (probe columns win name clashes).

    When every probe row matched exactly once, in order, the probe columns
    pass through un-gathered: batches are immutable engine-wide (as with
    ``filter_project_morsel``'s aliased inputs), and every ``nbytes`` the
    cost model is charged is that of the gathered copy.
    """
    result: ArrayMap = {}
    for name, values in build.items():
        result[name] = np.asarray(values)[build_indices]
    probe_rows = columns_num_rows(probe)
    unmoved = (len(probe_indices) == probe_rows
               and (probe_indices == np.arange(probe_rows)).all())
    for name, values in probe.items():
        values = np.asarray(values)
        result[name] = values if unmoved else values[probe_indices]
    return result


@dataclass(frozen=True)
class JoinStats:
    """Data-derived quantities the join cost estimators need."""

    build_rows: int
    probe_rows: int
    build_nbytes: int
    probe_nbytes: int
    output_nbytes: int


class HashJoinBuild:
    """The build-then-probe state of the non-partitioned hash join.

    Constructing it consumes the *entire* build side (the join's pipeline
    breaker): its key tuples define the join's :class:`KeyDomain` and their
    codes are indexed once — the simulated analogue of building the global
    hash table.  :meth:`probe` then matches one probe batch at a time;
    per-morsel probe outputs concatenate to exactly the whole-column join
    result, so a morsel scheduler can stream the probe side without
    changing a single output byte.
    """

    def __init__(self, build: Mapping[str, np.ndarray], *,
                 build_keys: Sequence[str]) -> None:
        self.columns = {name: np.asarray(values)
                        for name, values in build.items()}
        self.domain = KeyDomain(self.columns, build_keys)
        self.index = JoinBuildIndex(self.domain.codes)

    @property
    def num_rows(self) -> int:
        return columns_num_rows(self.columns)

    @property
    def nbytes(self) -> int:
        return int(sum(v.nbytes for v in self.columns.values()))

    def match(self, probe: Mapping[str, np.ndarray],
              probe_keys: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """The ``(build, probe)`` positions of one probe batch's matches."""
        return self.index.probe(self.domain.encode(probe, probe_keys))

    def probe(self, probe: Mapping[str, np.ndarray], *,
              probe_keys: Sequence[str]) -> ArrayMap:
        """Join one probe batch (whole side or a single morsel)."""
        probe = {name: np.asarray(values) for name, values in probe.items()}
        return _materialize_join(self.columns, probe,
                                 *self.match(probe, probe_keys))


def hash_join_kernel(build: Mapping[str, np.ndarray],
                     probe: Mapping[str, np.ndarray], *,
                     build_keys: Sequence[str],
                     probe_keys: Sequence[str],
                     output_order: str = "probe",
                     ) -> tuple[ArrayMap, JoinStats]:
    """Evaluate the equi-join once; device-independent.

    ``output_order`` selects the canonical output row order (see
    ``docs/ARCHITECTURE.md``): ``"probe"`` (the default, and the join's
    natural order) emits matches ordered by probe position with ties by
    ascending build position; ``"build"`` emits build-major order — the
    executor requests it for joins whose build side is the logical *right*
    input, so every join's output matches the reference executor's
    right-major order row for row.  The order never changes stats, only the
    permutation of the output rows.
    """
    if output_order not in ("probe", "build"):
        raise ValueError("output_order must be 'probe' or 'build'")
    record_kernel_invocation("hash_join")
    builder = HashJoinBuild(build, build_keys=build_keys)
    probe = {name: np.asarray(values) for name, values in probe.items()}
    if output_order == "build":
        # The match list arrives probe-major with ties build-ascending (the
        # JoinBuildIndex.probe contract), so one stable sort of the build
        # positions is build-major with ties probe-ascending.  Stats see
        # the same rows and bytes as the probe-major path.
        build_indices, probe_indices = builder.match(probe, probe_keys)
        order = np.argsort(build_indices, kind="stable")
        columns = _materialize_join(builder.columns, probe,
                                    build_indices[order],
                                    probe_indices[order])
    else:
        columns = builder.probe(probe, probe_keys=probe_keys)
    stats = JoinStats(
        build_rows=builder.num_rows,
        probe_rows=columns_num_rows(probe),
        build_nbytes=builder.nbytes,
        probe_nbytes=int(sum(v.nbytes for v in probe.values())),
        output_nbytes=int(sum(v.nbytes for v in columns.values())),
    )
    return columns, stats


def estimate_non_partitioned_join(stats: JoinStats,
                                  device: Device) -> OpCost:
    """Cost of the hardware-oblivious join on ``device``; no data touched."""
    cost = OpCost()
    table_bytes = max(stats.build_rows, 1) * HASH_ENTRY_BYTES
    cost.add("scan-build", device.cost.seq_scan(stats.build_nbytes))
    cost.add("scan-probe", device.cost.seq_scan(stats.probe_nbytes))
    if stats.build_rows:
        cost.add("build", device.cost.hash_build(stats.build_rows,
                                                 HASH_ENTRY_BYTES))
    if stats.probe_rows:
        cost.add("probe", device.cost.hash_probe(
            stats.probe_rows, HASH_ENTRY_BYTES, table_bytes))
        cost.add("compute",
                 (stats.build_rows + stats.probe_rows) * _OPS_PER_STEP
                 / compute_ops_per_sec(device))
    if device.is_gpu:
        cost.add("kernel-launch", device.cost.kernel_launch(2))
    cost.add("materialize-output", device.cost.seq_write(stats.output_nbytes))
    return cost


def non_partitioned_join(build: Mapping[str, np.ndarray],
                         probe: Mapping[str, np.ndarray],
                         device: Device, *,
                         build_keys: Sequence[str],
                         probe_keys: Sequence[str]) -> OpOutput:
    """Hardware-oblivious hash join of two column maps on one device."""
    columns, stats = hash_join_kernel(build, probe, build_keys=build_keys,
                                      probe_keys=probe_keys)
    return OpOutput(columns=columns,
                    cost=estimate_non_partitioned_join(stats, device))


def build_table_bytes(build_rows: int) -> int:
    """Size of the global hash table a non-partitioned join allocates.

    Exposed so that engines can check whether the table fits in GPU memory
    before attempting GPU execution (the Q9 failure mode in Section 6.4).
    """
    return int(build_rows * HASH_ENTRY_BYTES)


__all__ = [
    "HASH_ENTRY_BYTES",
    "HashJoinBuild",
    "JoinStats",
    "build_table_bytes",
    "estimate_non_partitioned_join",
    "hash_join_kernel",
    "non_partitioned_join",
]
