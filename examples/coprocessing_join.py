#!/usr/bin/env python
"""The out-of-GPU co-processed radix join (Section 5 / Figure 7).

Shows the intra-operator co-processing algorithm end to end: CPU-side
low-fan-out co-partitioning over both sockets, a single pass over each PCIe
link, and the scratchpad-conscious partitioned join on each GPU, pipelined
per co-partition — then replays the record a run at the Figure 7 sizes
would leave through the same timeline and prints the regenerated series,
including the scaling from adding the second GPU.  The executed run and the
replay at its size are the same number.
"""

from __future__ import annotations

from repro.hardware import default_server
from repro.perf import FIGURE7_SIZES_MTUPLES, JoinModels, format_series
from repro.workloads import run_coprocessed_join


def main() -> None:
    topology = default_server()

    models = JoinModels(topology)
    print("Reduced-scale executable run (500k tuples per table):")
    for num_gpus in (1, 2):
        topology.reset()
        run = run_coprocessed_join(500_000, num_gpus=num_gpus,
                                   topology=topology)
        pcie = {link.name: link.bytes_moved for link in topology.links
                if link.name.startswith("pcie")}
        replayed = models.coprocessing_seconds(500_000, num_gpus=num_gpus)
        print(f"  {num_gpus} GPU(s): simulated {run.simulated_seconds * 1e3:8.3f} ms "
              f"(replayed {replayed * 1e3:8.3f} ms), "
              f"join output rows = {run.output_rows}, PCIe bytes = {pcie}")
    print()

    series = models.figure7_series()
    print(format_series("Paper-scale sweep (Figure 7):", series))
    print()
    largest = int(FIGURE7_SIZES_MTUPLES[-1] * 1e6)
    one = models.coprocessing_seconds(largest, num_gpus=1)
    two = models.coprocessing_seconds(largest, num_gpus=2)
    print(f"Adding the second GPU at {largest / 1e9:.1f}B tuples: "
          f"{one / two:.2f}x (paper: ~1.7x)")
    print(f"Speed-up over DBMS C at the largest size: "
          f"{models.dbms_c_seconds(largest) / two:.1f}x (paper: 4.4x)")
    print(f"Speed-up over DBMS G at 512M tuples: "
          f"{models.dbms_g_out_of_gpu_seconds(512_000_000) / models.coprocessing_seconds(512_000_000, num_gpus=2):.1f}x "
          f"(paper: 12.5x)")


if __name__ == "__main__":
    main()
