"""Executable hardware-conscious relational operators.

The HetExchange meta-operators (router, mem-move, device crossing) never
touch tuple payloads, so they have no kernel here: their plan nodes live
in :mod:`repro.relational.physical` and what they charge is stated once,
in :mod:`repro.engine.descriptions`.

Single-evaluation operator contract
-----------------------------------

Every relational operator is split into two pure entry points, mirroring
the paper's separation of a device-invariant *algorithmic skeleton* from
per-device *tuning knobs*:

* ``*_kernel(columns, ...) -> (columns, stats)`` — the **functional
  kernel**.  It evaluates the NumPy result exactly once, never inspects a
  device, and returns the output columns plus a small frozen *stats* record
  (row counts, touched bytes, partition-pass shapes, output size)
  describing the work performed.
* ``estimate_*(stats, device, ...) -> OpCost`` — the **cost function**.  It
  converts a stats record into simulated seconds for one device and never
  touches array data, so an engine can cost the same kernel execution on
  every device kind that participates in a hybrid pipeline.

Kernels take whole batches.  Carving a batch into morsels and streaming
them is the executor's job, not an operator's: a *streaming* operator
(filter/project, the hash join's probe) additionally exposes the pure
per-morsel body its kernel applies to the whole batch
(``filter_project_morsel``, ``HashJoinBuild.probe``), and the one driver in
:mod:`repro.engine.executor` applies that body slice by slice; a *breaker*
(aggregate, join build, partitioned join) is handed the resident batch.
See invariant 3 in :mod:`repro.operators.base`.

The executor exploits the split twice: a plan node's kernel runs once while
its cost is estimated per device kind, and kernel results are memoized by
the structural key of their subplan so repeated subplans (shared dimension
scans and build sides) are evaluated once per query — and, through the
session's cross-query cache, once per session while warm.

The partitioned joins share one kernel:
:func:`~repro.operators.radix.partitioned_join_kernel` runs the
device-invariant skeleton with the tuning of whatever ``spec`` it is
handed (``cpu_radix_join_kernel`` and ``gpu_partitioned_join_kernel`` are
its device-named entry points) and returns one ``PartitionedJoinStats``
record, priced by ``estimate_cpu_radix_join`` or
``estimate_gpu_partitioned_join``.  The co-processed join is under the
same contract — ``coprocessed_join_kernel`` returns a
``CoprocessedJoinStats`` record — but spans several devices, so its
estimate half is ``charge_coprocessed_join``, which replays the record as
a CPU-pass -> PCIe -> GPU-join timeline on the topology's clocks.  The
skeleton moves row positions, not payloads — keys coded once, one
position vector permuted per side and pass, canonical order restored on
the positions, every payload column gathered once at the end — while the
stats records keep charging the paper's algorithm from sizes (rows x
the columns' item sizes per pass — one charge per *pass*, not per chunk
— per PCIe crossing and per output row).

The four join helpers (``non_partitioned_join``, ``cpu_radix_join``,
``gpu_partitioned_join``, ``coprocessed_radix_join``) call a kernel and its
estimate back to back for the join microbenchmarks, which place an
operator themselves; every other operator is priced through its
``*_kernel`` + ``estimate_*`` pair only.

Kernels report invocations through
:func:`~repro.operators.base.record_kernel_invocation`; tests use the
counters to prove the single-evaluation property.
"""

from .aggregate import (
    AggregateStats,
    estimate_hash_aggregate,
    estimate_merge_partials,
    hash_aggregate_kernel,
    merge_partials_kernel,
)
from .base import (
    ArrayMap,
    OpCost,
    OpOutput,
    columns_nbytes,
    columns_num_rows,
    kernel_counts,
    record_kernel_invocation,
    reset_kernel_counts,
)
from .coprocess import (
    CoprocessedJoinStats,
    charge_coprocessed_join,
    coprocessed_join_kernel,
    coprocessed_radix_join,
    plan_coprocessing,
)
from .filterproject import (
    FilterProjectStats,
    estimate_filter_project,
    expression_op_count,
    filter_project_kernel,
    filter_project_morsel,
    referenced_columns,
    touched_bytes,
)
from .gpujoin import (
    GpuJoinConfig,
    L1_BUCKET_ARRAY_BYTES,
    PROBE_VARIANTS,
    ensure_gpu_join_fits,
    estimate_gpu_partitioned_join,
    gpu_partitioned_join,
    probe_phase_cost,
)
from .hashjoin import (
    HASH_ENTRY_BYTES,
    HashJoinBuild,
    JoinStats,
    build_table_bytes,
    estimate_non_partitioned_join,
    hash_join_kernel,
    non_partitioned_join,
)
from .radix import (
    PartitionPlan,
    PartitionRunStats,
    PartitionedJoinStats,
    cpu_radix_join,
    cpu_radix_join_kernel,
    estimate_cpu_radix_join,
    estimate_partition_run,
    estimate_radix_partition,
    gpu_partitioned_join_kernel,
    max_fanout,
    partition_tuple_bytes,
    partitioned_join_kernel,
    plan_partition_passes,
    radix_partition_kernel,
    target_partition_bytes,
)

__all__ = [
    "AggregateStats",
    "ArrayMap",
    "CoprocessedJoinStats",
    "FilterProjectStats",
    "GpuJoinConfig",
    "HASH_ENTRY_BYTES",
    "HashJoinBuild",
    "JoinStats",
    "L1_BUCKET_ARRAY_BYTES",
    "OpCost",
    "OpOutput",
    "PROBE_VARIANTS",
    "PartitionPlan",
    "PartitionRunStats",
    "PartitionedJoinStats",
    "build_table_bytes",
    "charge_coprocessed_join",
    "columns_nbytes",
    "columns_num_rows",
    "coprocessed_join_kernel",
    "coprocessed_radix_join",
    "cpu_radix_join",
    "cpu_radix_join_kernel",
    "ensure_gpu_join_fits",
    "estimate_cpu_radix_join",
    "estimate_filter_project",
    "estimate_gpu_partitioned_join",
    "estimate_hash_aggregate",
    "estimate_merge_partials",
    "estimate_non_partitioned_join",
    "estimate_partition_run",
    "estimate_radix_partition",
    "expression_op_count",
    "filter_project_kernel",
    "filter_project_morsel",
    "gpu_partitioned_join",
    "gpu_partitioned_join_kernel",
    "hash_aggregate_kernel",
    "hash_join_kernel",
    "kernel_counts",
    "max_fanout",
    "merge_partials_kernel",
    "non_partitioned_join",
    "partition_tuple_bytes",
    "partitioned_join_kernel",
    "plan_coprocessing",
    "plan_partition_passes",
    "probe_phase_cost",
    "radix_partition_kernel",
    "record_kernel_invocation",
    "referenced_columns",
    "reset_kernel_counts",
    "target_partition_bytes",
    "touched_bytes",
]
