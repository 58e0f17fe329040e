"""DBMS C: the simulated CPU-based commercial comparator.

The paper describes DBMS C as "a CPU-based columnar DBMS that is based on
MonetDB/X100, uses SIMD vector-at-a-time execution and supports multi-CPU
execution" (Section 6.1).  It is one model, stated here:

* Figures 6 and 7 (:meth:`DBMSC.join_seconds`): hardware-oblivious
  non-partitioned hash joins only, so large joins are dominated by random
  DRAM accesses;
* Figure 8 (:meth:`DBMSC.query_seconds`): vector-at-a-time execution
  priced over Proteus' CPU-only run of the same query, one factor per
  query in :data:`QUERY_FACTORS`.
"""

from __future__ import annotations

from ..hardware.topology import Topology, default_server
from ..operators.hashjoin import HASH_ENTRY_BYTES

#: One extra pass over the cache-resident vector (and its materialization)
#: per aggregate primitive, as a share of the fused pipeline's time.
AGGREGATE_PASS_SHARE = 0.12

#: DBMS C's TPC-H seconds over Proteus' CPU-only seconds (Figure 8).
QUERY_FACTORS = {
    # Eight aggregate primitives, each another in-cache pass: Q1's many
    # aggregates cost vector-at-a-time execution the most.
    "Q1": 1.0 + AGGREGATE_PASS_SHARE * 8,
    # Every join materializes its result vectors instead of pipelining them
    # into the next probe.
    "Q5": 1.4,
    # Four aggregate primitives, half of Q1's.
    "Q6": 1.0 + AGGREGATE_PASS_SHARE * 4,
    # Materialized join results, as on Q5; Proteus' CPU-only Q9 is already
    # bound by its DRAM-resident partsupp and orders probes, so they add less.
    "Q9": 1.3,
}


class DBMSC:
    """Vector-at-a-time CPU columnar engine (the paper's DBMS C stand-in)."""

    name = "DBMS C"

    def __init__(self, topology: Topology | None = None) -> None:
        self.topology = topology if topology is not None else default_server()
        self.cpus = list(self.topology.cpus())

    def query_seconds(self, query: str, cpu_seconds: float) -> float:
        """DBMS C's time on a TPC-H query Proteus runs CPU-only in
        ``cpu_seconds``."""
        return cpu_seconds * QUERY_FACTORS[query]

    def join_seconds(self, tuples_per_side: int, *, tuple_bytes: int = 8) -> float:
        """Equi-join time of DBMS C on the microbenchmark workload.

        A multi-socket non-partitioned hash join with vector-at-a-time
        materialization of the probe results.
        """
        device = self.cpus[0]
        table_bytes = tuples_per_side * HASH_ENTRY_BYTES
        build = device.cost.hash_build(tuples_per_side, HASH_ENTRY_BYTES)
        probe = device.cost.hash_probe(tuples_per_side, HASH_ENTRY_BYTES,
                                       table_bytes)
        scan = device.cost.seq_scan(2 * tuples_per_side * tuple_bytes)
        materialize = device.cost.materialize(tuples_per_side * tuple_bytes * 2)
        sockets = max(len(self.cpus), 1)
        return (build + probe + scan + 2 * materialize) / sockets
