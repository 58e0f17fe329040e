"""Paper-scale models for the join microbenchmarks.

These regenerate Figures 5, 6 and 7 at the sizes the paper uses (up to 2
billion tuples per table), which cannot be materialized inside a Python
process.  Figures 5 and 6 are a *replay*, not a second derivation: the
stats record an executed join of the microbenchmark would leave is written
down in closed form (:func:`dense_join_stats` / :func:`dense_hash_stats` —
rows x the schema's field widths, no data) and priced by the operators' own
``estimate_*`` functions, so at any size that can be executed the figure
and the engine agree to the bit.  Figure 7's CPU and PCIe stages stay a
closed-form pipeline model (its GPU stage is the Figure 6 replay).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..baselines.dbms_c import DBMSC
from ..baselines.dbms_g import DBMSG
from ..hardware.specs import DeviceSpec
from ..hardware.topology import Topology, default_server
from ..operators.gpujoin import (
    PROBE_VARIANTS,
    estimate_gpu_partitioned_join,
    probe_phase_cost,
)
from ..operators.hashjoin import (
    HASH_ENTRY_BYTES,
    JoinStats,
    estimate_non_partitioned_join,
)
from ..operators.radix import (
    PartitionedJoinStats,
    PartitionRunStats,
    estimate_cpu_radix_join,
    estimate_radix_partition,
    plan_partition_passes,
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


def dense_join_stats(tuples: int, spec: DeviceSpec) -> PartitionedJoinStats:
    """The record a partitioned join of the microbenchmark leaves on
    ``spec``: two tables of ``tuples`` dense unique keys, every pass moving
    every 8-byte tuple, an output row holding ``key`` and ``payload`` once."""
    plan = plan_partition_passes(tuples, HASH_ENTRY_BYTES, spec)
    run = PartitionRunStats(
        MICROBENCH_TUPLE_BYTES,
        tuple((tuples, fanout) for fanout in plan.fanout_per_pass))
    return PartitionedJoinStats(
        build_rows=tuples, probe_rows=tuples, plan=plan, build_run=run,
        probe_run=run, output_nbytes=tuples * MICROBENCH_TUPLE_BYTES)


def dense_hash_stats(tuples: int) -> JoinStats:
    """The record the non-partitioned join of the same two tables leaves."""
    nbytes = tuples * MICROBENCH_TUPLE_BYTES
    return JoinStats(build_rows=tuples, probe_rows=tuples,
                     build_nbytes=nbytes, probe_nbytes=nbytes,
                     output_nbytes=nbytes)


@dataclass(frozen=True)
class JoinPoint:
    """One (variant, size) point of a join figure."""

    variant: str
    tuples_per_side: int
    seconds: float | None  # None when the system cannot run the size

    @property
    def supported(self) -> bool:
        return self.seconds is not None


class JoinModels:
    """Analytic single-device and co-processing join models."""

    def __init__(self, topology: Topology | None = None) -> None:
        self.topology = topology if topology is not None else default_server()
        self.cpu = self.topology.cpus()[0]
        self.gpu = self.topology.gpus()[0]
        self.num_cpus = len(self.topology.cpus())
        self.num_gpus = len(self.topology.gpus())
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
        needed = tuples * MICROBENCH_TUPLE_BYTES * 2 * 2.5
        return needed < self.gpu.spec.memory_capacity_bytes

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
        variants = {
            "Partitioned CPU": self.partitioned_cpu_seconds,
            "Partitioned GPU": self.partitioned_gpu_seconds,
            "Non-partitioned CPU": self.non_partitioned_cpu_seconds,
            "Non-partitioned GPU": self.non_partitioned_gpu_seconds,
            "DBMS C": self.dbms_c_seconds,
            "DBMS G": self.dbms_g_seconds,
        }
        series: dict[str, list[JoinPoint]] = {}
        for variant, model in variants.items():
            points = []
            for mtuples in sizes_mtuples:
                tuples = int(mtuples * 1e6)
                points.append(JoinPoint(variant, tuples, model(tuples)))
            series[variant] = points
        return series

    # ------------------------------------------------------------------
    # Figure 7: out-of-GPU co-processing join, data CPU-resident
    # ------------------------------------------------------------------
    def coprocessing_seconds(self, tuples: int, *, num_gpus: int = 1) -> float:
        """The CPU+GPU co-processed radix join of Section 5 / Figure 7."""
        num_gpus = max(min(num_gpus, self.num_gpus), 1)
        cpu, gpu = self.cpu, self.gpu
        input_bytes = 2 * tuples * MICROBENCH_TUPLE_BYTES
        gpu_budget = gpu.spec.memory_capacity_bytes * 0.4
        fanout = max(int(np.ceil(input_bytes / gpu_budget)), num_gpus)
        # Stage 1: CPU-side low-fan-out co-partitioning at DRAM bandwidth,
        # parallel over both sockets.
        cpu_stage = 2 * estimate_radix_partition(
            tuples, MICROBENCH_TUPLE_BYTES, fanout, cpu
        ).seconds / self.num_cpus
        # Stage 2: a single pass over PCIe, one dedicated link per GPU.
        route = self.topology.route(cpu.name, gpu.name)
        pcie_stage = route.transfer_time(int(input_bytes / num_gpus))
        # Stage 3: in-GPU partitioned join of each co-partition.
        per_gpu_tuples = int(np.ceil(tuples / num_gpus))
        gpu_stage = self.partitioned_gpu_seconds(
            min(per_gpu_tuples, int(gpu_budget // (2 * MICROBENCH_TUPLE_BYTES))))
        if gpu_stage is None:  # pragma: no cover - defensive
            gpu_stage = pcie_stage
        gpu_stage *= per_gpu_tuples / max(
            min(per_gpu_tuples, int(gpu_budget // (2 * MICROBENCH_TUPLE_BYTES))), 1)
        # The three stages pipeline over the co-partitions; the slowest stage
        # dominates and the others are partially exposed at ramp-up/drain.
        stages = [cpu_stage, pcie_stage, gpu_stage]
        bottleneck = max(stages)
        exposed = 0.15 * (sum(stages) - bottleneck)
        return bottleneck + exposed

    def dbms_g_out_of_gpu_seconds(self, tuples: int) -> float:
        return self.dbms_g.join_seconds(tuples, data_on_gpu=False)

    def figure7_series(self, *, sizes_mtuples=FIGURE7_SIZES_MTUPLES
                       ) -> dict[str, list[JoinPoint]]:
        """All Figure-7 curves keyed by the figure's legend labels."""
        series: dict[str, list[JoinPoint]] = {
            "1 GPU": [], "2 GPUs": [], "DBMS C": [], "DBMS G": [],
        }
        for mtuples in sizes_mtuples:
            tuples = int(mtuples * 1e6)
            series["1 GPU"].append(JoinPoint(
                "1 GPU", tuples, self.coprocessing_seconds(tuples, num_gpus=1)))
            series["2 GPUs"].append(JoinPoint(
                "2 GPUs", tuples,
                self.coprocessing_seconds(tuples, num_gpus=min(2, self.num_gpus))))
            series["DBMS C"].append(JoinPoint(
                "DBMS C", tuples, self.dbms_c_seconds(tuples)))
            series["DBMS G"].append(JoinPoint(
                "DBMS G", tuples, self.dbms_g_out_of_gpu_seconds(tuples)))
        return series
