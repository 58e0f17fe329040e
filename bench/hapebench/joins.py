"""``join_micro``: the Fig. 6/7 joins executed for real, one sweep per unit.

``operators`` used differently from TPC-H: radix partitioning, the
GPU-partitioned and co-processed joins, and — beside the paper's dense
unique keys — a probe side that half misses and a duplicate-heavy
(Zipf) build side, so a gain for dense unique foreign keys that costs
the general path shows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hardware import default_server
from repro.operators import (
    GpuJoinConfig,
    coprocessed_radix_join,
    cpu_radix_join,
    cpu_radix_join_kernel,
    estimate_cpu_radix_join,
    estimate_gpu_partitioned_join,
    estimate_non_partitioned_join,
    gpu_partitioned_join,
    gpu_partitioned_join_kernel,
    hash_join_kernel,
    non_partitioned_join,
)
from repro.storage.datagen import (
    JoinWorkload,
    make_join_pair,
    make_join_relation,
    make_partial_match_pair,
    make_skewed_relation,
)

from . import layers
from .harness import Clock, Recorder, Tally, host_seconds

SKEW_KEY_SPACE = 1 << 16
KEYS = {"build_keys": ["key"], "probe_keys": ["key"]}
ESTIMATE_ROUNDS = 200
#: Join op -> the ``hardware.sim_join_ms.*`` metric its simulated time is.
SIM_JOIN_METRIC = {
    "radix.dense": "radix_cpu", "gpujoin.dense": "radix_gpu",
    "hashjoin.dense": "hash_cpu", "hashjoin_gpu.dense": "hash_gpu",
    "coprocess.gpu1": "coprocess_gpu1", "coprocess.gpu2": "coprocess_gpu2",
}


@dataclass
class JoinState:
    topology: object
    inputs: dict[str, JoinWorkload]
    #: ``(op name, callable -> (output rows, simulated seconds), input key)``
    cases: list[tuple]


class JoinWorkloadRunner:
    name = "join_micro"
    predictions = ()

    def __init__(self, *, tuples: int) -> None:
        self.tuples = tuples

    def setup(self, seed: int, rec: Recorder) -> JoinState:
        tuples = self.tuples
        with rec.span("storage.generate"):
            # The miss share is drawn from the seed: the joins' simulated
            # cost depends on row counts only, and would otherwise read
            # the same for every seed.
            match = 0.45 + 0.1 * np.random.default_rng(seed).random()
            skewed = make_skewed_relation(
                tuples, zipf_s=1.2, key_space=SKEW_KEY_SPACE, seed=seed + 3,
                name="build")
            inputs = {
                "dense": make_join_pair(tuples, seed=seed),
                "partial": make_partial_match_pair(
                    tuples, 2 * tuples, match_fraction=match, seed=seed + 2),
                "skew": JoinWorkload(
                    build=skewed,
                    probe=make_join_relation(SKEW_KEY_SPACE, seed=seed + 4,
                                             name="probe"),
                    expected_matches=tuples),
            }
        topology = default_server()
        state = JoinState(topology, inputs, self._cases(topology, inputs))
        self.unit(state, Clock(), Recorder(False), Tally())
        return state

    @staticmethod
    def _cases(topology, inputs) -> list[tuple]:
        cpu, gpu = topology.cpus()[0], topology.gpus()[0]

        def single(join, device):
            def run(workload):
                output = join(workload.build.arrays(),
                              workload.probe.arrays(), device, **KEYS)
                return output.num_rows, output.cost.seconds
            return run

        def coprocessed(num_gpus):
            def run(workload):
                topology.reset()
                output = coprocessed_radix_join(
                    workload.build.arrays(), workload.probe.arrays(),
                    topology, gpus=list(topology.gpus())[:num_gpus],
                    config=GpuJoinConfig(), **KEYS)
                return output.num_rows, topology.timeline().makespan
            return run

        return [
            ("radix.dense", single(cpu_radix_join, cpu), "dense"),
            ("gpujoin.dense", single(gpu_partitioned_join, gpu), "dense"),
            ("hashjoin.dense", single(non_partitioned_join, cpu), "dense"),
            ("hashjoin_gpu.dense", single(non_partitioned_join, gpu),
             "dense"),
            ("coprocess.gpu1", coprocessed(1), "dense"),
            ("coprocess.gpu2", coprocessed(2), "dense"),
            ("hashjoin.partial", single(non_partitioned_join, cpu),
             "partial"),
            ("radix.partial", single(cpu_radix_join, cpu), "partial"),
            ("gpujoin.partial", single(gpu_partitioned_join, gpu),
             "partial"),
            ("hashjoin.skew", single(non_partitioned_join, cpu), "skew"),
            ("radix.skew", single(cpu_radix_join, cpu), "skew"),
        ]

    def check(self, state: JoinState, tally: Tally, traced: bool) -> None:
        """``output_rows == expected_matches`` is checked on every unit."""

    def unit(self, state: JoinState, clock: Clock, rec: Recorder,
             tally: Tally) -> dict:
        sims = {}
        for op, run, key in state.cases:
            workload = state.inputs[key]
            with clock.op(op), rec.span(f"operators.{op}"):
                rows, sims[op] = run(workload)
            tally.ran(1, int(rows != workload.expected_matches),
                      f"{op}: {rows} output rows, expected "
                      f"{workload.expected_matches}")
        return {"sims": sims}

    def sim_seconds(self, facts: dict) -> float:
        return sum(facts["sims"].values())

    def operation_seconds(self, floors: dict[str, float]) -> list[float]:
        return list(floors.values())

    # ------------------------------------------------------------------
    def layers(self, state: JoinState, run) -> dict[str, float]:
        rec, sims = run.rec, run.facts["sims"]
        metrics = {"storage.generate_s":
                   rec.setup_seconds("storage.generate")}
        for op, _, _ in state.cases:
            if op != "hashjoin_gpu.dense":
                metrics[f"operators.{op}_ms"] = rec.floor_ms(
                    f"operators.{op}")
            if op in SIM_JOIN_METRIC:
                metrics[f"hardware.sim_join_ms.{SIM_JOIN_METRIC[op]}"] = (
                    sims[op] * 1e3)
        input_rows = sum(
            state.inputs[key].build.num_rows
            + state.inputs[key].probe.num_rows for _, _, key in state.cases)
        metrics["operators.join_rows_per_s"] = (
            input_rows / run.traced.floor_seconds())
        metrics["operators.estimate_us"] = self._estimate_us(state)
        metrics.update(layers.perf_models())
        return metrics

    @staticmethod
    def _estimate_us(state: JoinState) -> float:
        """Mean host microseconds of one ``estimate_*`` call."""
        cpu, gpu = state.topology.cpus()[0], state.topology.gpus()[0]
        build = state.inputs["dense"].build.arrays()
        probe = state.inputs["dense"].probe.arrays()
        _, hash_stats = hash_join_kernel(build, probe, **KEYS)
        _, radix_stats = cpu_radix_join_kernel(build, probe, spec=cpu.spec,
                                               **KEYS)
        _, gpu_stats = gpu_partitioned_join_kernel(build, probe,
                                                   spec=gpu.spec, **KEYS)
        start = host_seconds()
        for _ in range(ESTIMATE_ROUNDS):
            estimate_non_partitioned_join(hash_stats, cpu)
            estimate_non_partitioned_join(hash_stats, gpu)
            estimate_cpu_radix_join(radix_stats, cpu)
            estimate_gpu_partitioned_join(gpu_stats, gpu)
        elapsed = host_seconds() - start
        return elapsed / (4 * ESTIMATE_ROUNDS) * 1e6
