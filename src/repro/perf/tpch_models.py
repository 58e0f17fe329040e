"""Paper-scale analytic models for the TPC-H experiments (Figures 8 and 9).

The paper evaluates TPC-H at scale factor 100 with CPU-resident data.  These
models compute each query's Proteus CPU-only, hybrid and GPU-only times from
the SF-100 cardinalities, the simulated device specifications and the same
cost primitives used by the executable operators.  The two commercial
comparators are priced from those bars by their own models in
:mod:`repro.baselines` (``DBMSC.query_seconds`` over CPU-only,
``DBMSG.query_seconds`` over GPU-only).  The reduced-scale executable runs
of the engine cross-validate the relative orderings.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..baselines.dbms_c import DBMSC
from ..baselines.dbms_g import DBMSG
from ..engine.descriptions import HYBRID_JOIN_OVERHEAD, HYBRID_OVERHEAD
from ..engine.optimizer import gpu_join_state_fits
from ..hardware.topology import Topology, default_server
from ..operators.filterproject import compute_ops_per_sec
from ..operators.hashjoin import HASH_ENTRY_BYTES
from ..storage.tpch import tpch_cardinalities

#: The scale factor of the paper's TPC-H evaluation.
PAPER_SCALE_FACTOR = 100.0

#: Engine configurations of Figure 8, in plot order.
FIGURE8_SYSTEMS = ("DBMS C", "Proteus CPUs", "Proteus Hybrid",
                   "Proteus GPUs", "DBMS G")

#: Bytes per lineitem column the queries touch (dict codes are 4 bytes,
#: dates 4 bytes, numerics 8 bytes).
_COLUMN_BYTES = {
    "l_returnflag": 4, "l_linestatus": 4, "l_shipdate": 4,
    "l_quantity": 8, "l_extendedprice": 8, "l_discount": 8, "l_tax": 8,
    "l_orderkey": 4, "l_partkey": 4, "l_suppkey": 4,
    "o_orderkey": 4, "o_custkey": 4, "o_orderdate": 4,
    "c_custkey": 4, "c_nationkey": 4,
    "s_suppkey": 4, "s_nationkey": 4,
    "ps_partkey": 4, "ps_suppkey": 4, "ps_supplycost": 8,
}


@dataclass(frozen=True)
class QueryEstimate:
    """Estimated execution time of one query on one configuration."""

    query: str
    system: str
    seconds: float | None
    note: str = ""

    @property
    def supported(self) -> bool:
        return self.seconds is not None


class TPCHModels:
    """Per-query analytic cost models at the paper's scale factor.

    Each ``q*_seconds`` returns Proteus' ``(CPU-only, hybrid, GPU-only)``
    seconds, GPU-only ``None`` where the query's join state does not fit
    in GPU memory.
    """

    def __init__(self, topology: Topology | None = None) -> None:
        self.topology = topology if topology is not None else default_server()
        self.cards = tpch_cardinalities(PAPER_SCALE_FACTOR)
        self.cpu = self.topology.cpus()[0]
        self.gpu = self.topology.gpus()[0]
        self.num_cpus = len(self.topology.cpus())
        self.num_gpus = len(self.topology.gpus())
        self.dbms_c = DBMSC(self.topology)
        self.dbms_g = DBMSG(self.topology)

    # ------------------------------------------------------------------
    # Shared building blocks
    # ------------------------------------------------------------------
    def _bytes(self, table: str, columns: list[str]) -> int:
        return self.cards[table] * sum(_COLUMN_BYTES[c] for c in columns)

    def _cpu_scan_seconds(self, nbytes: int, ops_per_tuple: float,
                          tuples: int) -> float:
        bandwidth_bound = self.cpu.cost.seq_scan(nbytes)
        compute_bound = tuples * ops_per_tuple / compute_ops_per_sec(self.cpu)
        return max(bandwidth_bound, compute_bound) / self.num_cpus \
            + 0.3 * min(bandwidth_bound, compute_bound) / self.num_cpus

    def _gpu_scan_seconds(self, nbytes: int, ops_per_tuple: float,
                          tuples: int) -> float:
        """GPU-only scan pipelines pull CPU-resident data over PCIe."""
        route = self.topology.route(self.cpu.name, self.gpu.name)
        pcie = route.transfer_time(nbytes // max(self.num_gpus, 1))
        gpu_compute = (tuples * ops_per_tuple
                       / (compute_ops_per_sec(self.gpu) * self.num_gpus))
        gpu_scan = self.gpu.cost.seq_scan(nbytes // max(self.num_gpus, 1))
        return max(pcie, gpu_compute, gpu_scan)

    def _hybrid_seconds(self, cpu_seconds: float, gpu_seconds: float, *,
                        join_heavy: bool) -> float:
        """Combine the two homogeneous configurations with hybrid overhead.

        The ideal hybrid throughput is the sum of the CPU-only and GPU-only
        throughputs; routing, staging and (for joins) state shuffling expose
        a fraction of that, matching the efficiency ratios of Section 6.4.
        """
        overhead = HYBRID_JOIN_OVERHEAD if join_heavy else HYBRID_OVERHEAD
        aggregate_throughput = 1.0 / cpu_seconds + 1.0 / gpu_seconds
        return (1.0 + overhead) / aggregate_throughput

    def _scan_query(self, columns: list[str], ops_per_tuple: float
                    ) -> tuple[float, float, float]:
        lineitem = self.cards["lineitem"]
        nbytes = self._bytes("lineitem", columns)
        cpu = self._cpu_scan_seconds(nbytes, ops_per_tuple, lineitem)
        gpu = self._gpu_scan_seconds(nbytes, ops_per_tuple, lineitem)
        return cpu, self._hybrid_seconds(cpu, gpu, join_heavy=False), gpu

    def _cpu_probe_seconds(self, probes: int, build_rows: int) -> float:
        table_bytes = build_rows * HASH_ENTRY_BYTES
        target = ("L3" if table_bytes
                  <= self.cpu.spec.last_level_cache.capacity_bytes else "memory")
        return (self.cpu.cost.hash_probe(probes, HASH_ENTRY_BYTES, table_bytes,
                                         target=target)
                + self.cpu.cost.hash_build(build_rows, HASH_ENTRY_BYTES)
                ) / self.num_cpus

    def _gpu_probe_seconds(self, probes: int, build_rows: int) -> float:
        """In-GPU probe of a broadcast hash table (build side over PCIe)."""
        route = self.topology.route(self.cpu.name, self.gpu.name)
        broadcast = route.transfer_time(build_rows * HASH_ENTRY_BYTES)
        probe = self.gpu.cost.hash_probe(
            probes // max(self.num_gpus, 1), HASH_ENTRY_BYTES,
            build_rows * HASH_ENTRY_BYTES)
        build = self.gpu.cost.hash_build(build_rows, HASH_ENTRY_BYTES)
        return broadcast + probe + build

    def _gpu_join_pipeline_seconds(self, stream_bytes: int,
                                   gpu_join: float) -> float:
        """GPU-only join pipeline: the inputs stream over PCIe while the
        GPUs probe broadcast hash tables (``gpu_join`` seconds)."""
        route = self.topology.route(self.cpu.name, self.gpu.name)
        stream = route.transfer_time(stream_bytes // max(self.num_gpus, 1))
        return max(stream, gpu_join) + 0.3 * min(stream, gpu_join)

    # ------------------------------------------------------------------
    # Q1 / Q6: scan-bound aggregation queries
    # ------------------------------------------------------------------
    def q1_seconds(self) -> tuple[float, float, float]:
        # Eight aggregates plus the date filter: 30 operations per tuple.
        return self._scan_query([
            "l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
            "l_discount", "l_tax", "l_shipdate"], 30.0)

    def q6_seconds(self) -> tuple[float, float, float]:
        return self._scan_query([
            "l_shipdate", "l_discount", "l_quantity", "l_extendedprice"], 12.0)

    # ------------------------------------------------------------------
    # Q5 / Q9: join-heavy queries
    # ------------------------------------------------------------------
    def q5_seconds(self, *, gpu_partitioned_join: bool = True
                   ) -> tuple[float, float, float]:
        lineitem = self.cards["lineitem"]
        orders = self.cards["orders"]
        customer = self.cards["customer"]
        date_selectivity = 1.0 / 7.0  # one of the seven order-date years
        filtered_orders = int(orders * date_selectivity)
        probe_bytes = self._bytes("lineitem", [
            "l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"])
        dim_bytes = (self._bytes("orders", ["o_orderkey", "o_custkey",
                                            "o_orderdate"])
                     + self._bytes("customer", ["c_custkey", "c_nationkey"]))

        cpu = (self._cpu_scan_seconds(probe_bytes + dim_bytes, 10.0, lineitem)
               + self._cpu_probe_seconds(lineitem, filtered_orders)
               + self._cpu_probe_seconds(filtered_orders, customer)
               + self._cpu_probe_seconds(lineitem, self.cards["supplier"]))
        join_factor = 1.0 if gpu_partitioned_join else 3.0
        gpu_join = (self._gpu_probe_seconds(lineitem, filtered_orders)
                    + self._gpu_probe_seconds(filtered_orders, customer)
                    + self._gpu_probe_seconds(lineitem, self.cards["supplier"])
                    ) * join_factor
        gpu = self._gpu_join_pipeline_seconds(probe_bytes + dim_bytes, gpu_join)
        return cpu, self._hybrid_seconds(cpu, gpu, join_heavy=True), gpu

    def q9_seconds(self) -> tuple[float, float, float | None]:
        lineitem = self.cards["lineitem"]
        orders = self.cards["orders"]
        partsupp = self.cards["partsupp"]
        probe_bytes = self._bytes("lineitem", [
            "l_orderkey", "l_partkey", "l_suppkey", "l_quantity",
            "l_extendedprice", "l_discount"])
        dim_bytes = (self._bytes("orders", ["o_orderkey", "o_orderdate"])
                     + self._bytes("partsupp", ["ps_partkey", "ps_suppkey",
                                                "ps_supplycost"]))
        cpu = (self._cpu_scan_seconds(probe_bytes + dim_bytes, 12.0, lineitem)
               + self._cpu_probe_seconds(lineitem, partsupp)
               + self._cpu_probe_seconds(lineitem, orders)
               + self._cpu_probe_seconds(lineitem, self.cards["supplier"]))
        # The co-processed radix join offloads the two large joins to the
        # GPUs while the CPUs keep partitioning/probing the rest.
        coproc_bytes = probe_bytes + dim_bytes
        route = self.topology.route(self.cpu.name, self.gpu.name)
        pcie = route.transfer_time(coproc_bytes // max(self.num_gpus, 1))
        cpu_partition = self.cpu.cost.partition_pass(
            lineitem, 16, 32, consolidated=True) / self.num_cpus
        gpu_join = self._gpu_probe_seconds(lineitem, partsupp) * 0.5
        hybrid = max(pcie, cpu_partition, gpu_join) \
            + 0.25 * (cpu_partition + gpu_join)
        # At SF 100 the orders join state alone exceeds GPU memory: no
        # GPU-only run (Section 6.4).
        gpu = None
        if gpu_join_state_fits(orders, self.gpu.spec.memory_capacity_bytes):
            gpu = self._gpu_join_pipeline_seconds(
                coproc_bytes,
                self._gpu_probe_seconds(lineitem, partsupp)
                + self._gpu_probe_seconds(lineitem, orders)
                + self._gpu_probe_seconds(lineitem, self.cards["supplier"]))
        return cpu, min(hybrid, cpu * 0.75), gpu

    # ------------------------------------------------------------------
    # Figures
    # ------------------------------------------------------------------
    def figure8(self) -> dict[str, list[QueryEstimate]]:
        """Figure 8: per-query bars for every system configuration, the
        commercial comparators priced from Proteus' own CPU-only and
        GPU-only bars."""
        models = {"Q1": self.q1_seconds, "Q5": self.q5_seconds,
                  "Q6": self.q6_seconds, "Q9": self.q9_seconds}
        figure: dict[str, list[QueryEstimate]] = {}
        for query, model in models.items():
            cpu, hybrid, gpu = model()
            bars = {"DBMS C": self.dbms_c.query_seconds(query, cpu),
                    "Proteus CPUs": cpu, "Proteus Hybrid": hybrid,
                    "Proteus GPUs": gpu,
                    "DBMS G": self.dbms_g.query_seconds(query, gpu)}
            figure[query] = [
                QueryEstimate(query, system, bars[system],
                              "" if bars[system] is not None else "unsupported")
                for system in FIGURE8_SYSTEMS]
        return figure

    def figure9(self) -> dict[str, dict[str, float]]:
        """Figure 9: Q5 with partitioned vs non-partitioned GPU-side joins."""
        _, hybrid_part, gpu_part = self.q5_seconds(gpu_partitioned_join=True)
        _, hybrid_nonpart, gpu_nonpart = self.q5_seconds(
            gpu_partitioned_join=False)
        return {
            "GPU": {"Partitioned join": gpu_part,
                    "Non partitioned join": gpu_nonpart},
            "Hybrid": {"Partitioned join": hybrid_part,
                       "Non partitioned join": hybrid_nonpart},
        }
