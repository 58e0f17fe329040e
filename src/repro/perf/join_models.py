"""Paper-scale models for the join microbenchmarks.

These regenerate Figures 5, 6 and 7 at the sizes the paper uses (up to 2
billion tuples per table), which cannot be materialized inside a Python
process.  All three are a *replay*, not a second derivation: the stats
record an executed join of the microbenchmark would leave is written down
in closed form (:func:`dense_join_stats` / :func:`dense_hash_stats` /
:func:`dense_coprocessed_stats` — rows x the schema's field widths, no
data; the partitioned ones by the kernels' own row-count record builders)
and priced by the operators' own ``estimate_*`` functions — for
Figure 7, the co-processed join's own timeline,
:func:`~repro.operators.coprocess.charge_coprocessed_join` — so at any
size that can be executed the figure and the engine agree to the bit.
Figures 8-9 (:mod:`repro.perf.tpch_models`) stay closed-form models.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

from ..baselines.dbms_c import DBMSC
from ..baselines.dbms_g import DBMSG
from ..hardware.specs import DeviceSpec
from ..hardware.topology import Topology, default_server
from ..operators.coprocess import (
    CoprocessedJoinStats,
    charge_coprocessed_join,
    coprocessed_stats,
    plan_coprocessing,
)
from ..operators.gpujoin import (
    PROBE_VARIANTS,
    estimate_gpu_partitioned_join,
    gpu_join_footprint,
    probe_phase_cost,
)
from ..operators.hashjoin import JoinStats, estimate_non_partitioned_join
from ..operators.radix import (
    JoinWidths,
    PartitionedJoinStats,
    estimate_cpu_radix_join,
)
from ..storage.datagen import MICROBENCH_TUPLE_BYTES

#: Table sizes (million tuples per side) swept by Figure 6.
FIGURE6_SIZES_MTUPLES = (1, 2, 8, 32, 128)

#: Table sizes (million tuples per side) swept by Figure 7.
FIGURE7_SIZES_MTUPLES = (256, 512, 1024, 2048)

#: Partition sizes (elements per partition) swept by Figure 5.
FIGURE5_PARTITION_SIZES = (128, 256, 512, 1024, 2048, 4096)

#: Tuples per side in the Figure 5 experiment.
FIGURE5_TUPLES = 32_000_000


#: The microbenchmark's 8-byte tuples; an output row holds ``key`` and
#: ``payload`` once.
_MICROBENCH_WIDTHS = JoinWidths(MICROBENCH_TUPLE_BYTES, MICROBENCH_TUPLE_BYTES,
                                MICROBENCH_TUPLE_BYTES)


def dense_join_stats(tuples: int, spec: DeviceSpec) -> PartitionedJoinStats:
    """The record a partitioned join of the microbenchmark leaves on
    ``spec``: two tables of ``tuples`` dense unique keys, every key
    matching once."""
    return _MICROBENCH_WIDTHS.record(spec, tuples, tuples, tuples)


def dense_hash_stats(tuples: int) -> JoinStats:
    """The record the non-partitioned join of the same two tables leaves."""
    nbytes = tuples * MICROBENCH_TUPLE_BYTES
    return JoinStats(build_rows=tuples, probe_rows=tuples,
                     build_nbytes=nbytes, probe_nbytes=nbytes,
                     output_nbytes=nbytes)


def dense_coprocessed_stats(tuples: int, gpu_specs: Sequence[DeviceSpec],
                            ) -> CoprocessedJoinStats:
    """The record the co-processed join of the same two tables leaves on
    ``gpu_specs``: co-partition ``i`` of the fan-out
    :func:`~repro.operators.coprocess.plan_coprocessing` picks holds the
    keys ``i mod fanout`` of both sides, each matching once."""
    fanout = plan_coprocessing(
        _MICROBENCH_WIDTHS.pair_bytes(tuples, tuples), gpu_specs)
    rows = [tuples // fanout + (index < tuples % fanout)
            for index in range(fanout)]
    return coprocessed_stats(_MICROBENCH_WIDTHS, gpu_specs, rows, rows, rows)


@dataclass(frozen=True)
class JoinPoint:
    """One (variant, size) point of a join figure."""

    variant: str
    tuples_per_side: int
    seconds: float | None  # None when the system cannot run the size

    @property
    def supported(self) -> bool:
        return self.seconds is not None


def _series(models: dict, sizes_mtuples) -> dict[str, list[JoinPoint]]:
    """legend label -> the label's model at every size (million tuples)."""
    return {variant: [JoinPoint(variant, int(mtuples * 1e6),
                                model(int(mtuples * 1e6)))
                      for mtuples in sizes_mtuples]
            for variant, model in models.items()}


class JoinModels:
    """Paper-scale single-device and co-processing join replays."""

    def __init__(self, topology: Topology | None = None) -> None:
        self.topology = topology if topology is not None else default_server()
        self.cpu = self.topology.cpus()[0]
        self.gpu = self.topology.gpus()[0]
        self.num_cpus = len(self.topology.cpus())
        self.dbms_c = DBMSC(self.topology)
        self.dbms_g = DBMSG(self.topology)

    # ------------------------------------------------------------------
    # Figure 5: scratchpad vs L1 during the GPU radix probe phase
    # ------------------------------------------------------------------
    def figure5_point(self, partition_tuples: int, variant: str) -> float:
        """Probe-phase time (seconds) for one partition size and placement."""
        cost = probe_phase_cost(self.gpu, FIGURE5_TUPLES, partition_tuples,
                                variant=variant)
        return cost.seconds

    def figure5_series(self, *, partition_sizes=FIGURE5_PARTITION_SIZES
                       ) -> dict[str, list[tuple[int, float]]]:
        """All three Figure-5 curves: variant -> [(partition size, seconds)]."""
        return {
            variant: [(size, self.figure5_point(size, variant))
                      for size in partition_sizes]
            for variant in PROBE_VARIANTS
        }

    # ------------------------------------------------------------------
    # Figure 6: single-device joins, data device-resident
    # ------------------------------------------------------------------
    def partitioned_cpu_seconds(self, tuples: int) -> float:
        """CPU radix join (both sockets), data in CPU memory."""
        return estimate_cpu_radix_join(
            dense_join_stats(tuples, self.cpu.spec),
            self.cpu).seconds / self.num_cpus

    def non_partitioned_cpu_seconds(self, tuples: int) -> float:
        """CPU hardware-oblivious hash join (both sockets)."""
        return estimate_non_partitioned_join(
            dense_hash_stats(tuples), self.cpu).seconds / self.num_cpus

    def gpu_memory_fits(self, tuples: int) -> bool:
        """Whether the in-GPU join (inputs + intermediates) fits in memory."""
        return (gpu_join_footprint(2 * tuples * MICROBENCH_TUPLE_BYTES)
                <= self.gpu.spec.memory_capacity_bytes)

    def partitioned_gpu_seconds(self, tuples: int) -> float | None:
        """In-GPU scratchpad-conscious radix join (single GPU)."""
        if not self.gpu_memory_fits(tuples):
            return None
        return estimate_gpu_partitioned_join(
            dense_join_stats(tuples, self.gpu.spec), self.gpu).seconds

    def non_partitioned_gpu_seconds(self, tuples: int) -> float | None:
        """In-GPU hardware-oblivious hash join (single GPU)."""
        if not self.gpu_memory_fits(tuples):
            return None
        return estimate_non_partitioned_join(
            dense_hash_stats(tuples), self.gpu).seconds

    def dbms_c_seconds(self, tuples: int) -> float:
        return self.dbms_c.join_seconds(tuples)

    def dbms_g_seconds(self, tuples: int) -> float | None:
        if not self.gpu_memory_fits(tuples):
            return None
        return self.dbms_g.join_seconds(tuples, data_on_gpu=True)

    def figure6_series(self, *, sizes_mtuples=FIGURE6_SIZES_MTUPLES
                       ) -> dict[str, list[JoinPoint]]:
        """All Figure-6 curves keyed by the figure's legend labels."""
        return _series({
            "Partitioned CPU": self.partitioned_cpu_seconds,
            "Partitioned GPU": self.partitioned_gpu_seconds,
            "Non-partitioned CPU": self.non_partitioned_cpu_seconds,
            "Non-partitioned GPU": self.non_partitioned_gpu_seconds,
            "DBMS C": self.dbms_c_seconds,
            "DBMS G": self.dbms_g_seconds,
        }, sizes_mtuples)

    # ------------------------------------------------------------------
    # Figure 7: out-of-GPU co-processing join, data CPU-resident
    # ------------------------------------------------------------------
    def coprocessing_seconds(self, tuples: int, *, num_gpus: int = 1) -> float:
        """The CPU+GPU co-processed radix join of Section 5 / Figure 7 on
        the first ``num_gpus`` GPUs: :func:`dense_coprocessed_stats`
        replayed onto the (reset) clocks by the operator's own charge."""
        gpus = self.topology.gpus()[:num_gpus]
        self.topology.reset()
        _, finished = charge_coprocessed_join(
            dense_coprocessed_stats(tuples, [gpu.spec for gpu in gpus]),
            self.topology, self.topology.available_cpus(), gpus)
        return finished

    def dbms_g_out_of_gpu_seconds(self, tuples: int) -> float:
        return self.dbms_g.join_seconds(tuples, data_on_gpu=False)

    def figure7_series(self, *, sizes_mtuples=FIGURE7_SIZES_MTUPLES
                       ) -> dict[str, list[JoinPoint]]:
        """All Figure-7 curves keyed by the figure's legend labels."""
        return _series({
            "1 GPU": self.coprocessing_seconds,
            "2 GPUs": partial(self.coprocessing_seconds, num_gpus=2),
            "DBMS C": self.dbms_c_seconds,
            "DBMS G": self.dbms_g_out_of_gpu_seconds,
        }, sizes_mtuples)
