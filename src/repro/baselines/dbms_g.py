"""DBMS G: the simulated GPU-based commercial comparator.

The paper describes DBMS G as "a GPU-based DBMS that supports multi-GPU
execution and uses just-in-time code generation for the in-GPU kernels"
(Section 6.1).  It is one model, stated here:

* Figures 6 and 7 (:meth:`DBMSG.join_seconds`): a hardware-oblivious
  non-partitioned GPU join; it "is not designed for out-of-GPU datasets,
  and thus performs poorly even after 512 million tuples" (Section 6.3),
  so out-of-memory joins fall back to zero-copy (UVA-style) random
  accesses across PCIe;
* Figure 8 (:meth:`DBMSG.query_seconds`): it "is optimized for
  star-schema based queries and in-GPU processing and thus it was unable
  to run on 3 queries" (Section 6.4) — of the four evaluated queries it
  runs only Q1, operator-at-a-time, priced over Proteus' GPU-only run.
"""

from __future__ import annotations

from ..hardware.topology import Topology, default_server
from ..operators.hashjoin import HASH_ENTRY_BYTES

#: Effective access granularity of zero-copy (UVA) accesses over PCIe: each
#: random probe drags a whole cache line across the interconnect.
UVA_ACCESS_BYTES = 64

#: DBMS G's Q1 seconds over Proteus' GPU-only seconds (Figure 8): every
#: operator materializes its result in GPU memory before the next one
#: reads it, on top of the same PCIe-bound scan.
OPERATOR_AT_A_TIME_FACTOR = 1.5


class DBMSG:
    """Operator-at-a-time GPU engine (the paper's DBMS G stand-in)."""

    name = "DBMS G"

    #: Of the four evaluated TPC-H queries, only this subset is supported.
    supported_queries = ("Q1",)

    def __init__(self, topology: Topology | None = None) -> None:
        self.topology = topology if topology is not None else default_server()
        self.gpus = list(self.topology.gpus())
        if not self.gpus:
            raise ValueError("DBMS G requires a topology with GPUs")
        self.cpu = self.topology.cpus()[0]

    def query_seconds(self, query: str, gpu_seconds: float) -> float | None:
        """DBMS G's time on a TPC-H query Proteus runs GPU-only in
        ``gpu_seconds``; ``None`` for a query it cannot run."""
        if query not in self.supported_queries:
            return None
        return gpu_seconds * OPERATOR_AT_A_TIME_FACTOR

    def join_seconds(self, tuples_per_side: int, *, tuple_bytes: int = 8,
                     data_on_gpu: bool = True) -> float:
        """Equi-join time of DBMS G on the microbenchmark workload.

        With ``data_on_gpu=True`` (Figure 6) the inputs are GPU-resident and
        the join is a hardware-oblivious non-partitioned GPU join plus the
        operator-at-a-time materialization of the result.  With
        ``data_on_gpu=False`` (Figure 7) the inputs exceed GPU memory, so
        every random access crosses PCIe at UVA granularity.
        """
        gpu = self.gpus[0]
        table_bytes = tuples_per_side * HASH_ENTRY_BYTES
        input_bytes = 2 * tuples_per_side * tuple_bytes
        if data_on_gpu:
            build = gpu.cost.hash_build(tuples_per_side, HASH_ENTRY_BYTES)
            probe = gpu.cost.hash_probe(tuples_per_side, HASH_ENTRY_BYTES,
                                        table_bytes)
            scan = gpu.cost.seq_scan(input_bytes)
            materialize = gpu.cost.materialize(input_bytes)
            return build + probe + scan + materialize
        # Out-of-GPU: the hash table and inputs live in CPU memory and every
        # access is a zero-copy random access over the interconnect.
        route = self.topology.route(self.cpu.name, gpu.name)
        pcie_bw = route.bottleneck_bandwidth_gib_s * 1024.0 ** 3
        random_bytes = 2 * tuples_per_side * UVA_ACCESS_BYTES
        streamed = input_bytes
        return (random_bytes + streamed) / pcie_bw
