"""Tests for fault injection, failover and resilient serving.

Covers the contracts of ``docs/FAULTS.md``:

* device health states live outside the per-query reset path and gate
  optimizer placement, executor fallbacks and scheduler reservations;
* :class:`~repro.faults.FaultPlan` / :class:`~repro.faults.FaultInjector`
  replay deterministically and are epoch-scoped;
* the server isolates per-query failures (``failed`` / ``timed_out``
  tickets instead of a crashed epoch), retries transient faults with
  simulated backoff, walks the gpu → hybrid → cpu degradation ladder on
  device-scoped failures, and enforces per-query deadlines;
* the paper's Q9 failure mode (:class:`OutOfDeviceMemoryError`,
  Section 6.4) degrades to a surviving mode with reference-identical
  results;
* accounting: wasted simulated seconds, retries and failovers are
  reported per ticket and per tenant;
* an empty :class:`FaultPlan` leaves the server bit-identical to the
  fault-free serving layer, and ``run()`` is exception-safe.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import HAPEEngine
from repro.errors import (
    DeviceUnavailableError,
    ExpressionError,
    FaultError,
    OutOfDeviceMemoryError,
    QueryTimeoutError,
    RetryExhaustedError,
    ReproError,
    ServingError,
)
from repro.faults import CircuitBreaker, FaultInjector, FaultPlan
from repro.hardware import DeviceHealth, default_server, gtx_1080
from repro.relational import Router, agg_count, agg_sum, col, lit, scan
from repro.server import QueryServer, RetryPolicy
from repro.server.lifecycle import EVENT_STATUS, TERMINAL
from repro.storage import Table
from repro.workloads import EVALUATED_QUERIES, build_query


def _table_bytes(result_table) -> tuple:
    return tuple(sorted(
        (name, result_table.array(name).tobytes(),
         str(result_table.array(name).dtype))
        for name in result_table.column_names))


def _small_tables(seed: int = 5) -> dict[str, Table]:
    rng = np.random.default_rng(seed)
    return {
        "tx": Table.from_arrays("tx", {
            "xk": rng.integers(0, 5, 64, dtype=np.int64),
            "xv": rng.integers(0, 100, 64, dtype=np.int64),
        }),
        "ty": Table.from_arrays("ty", {
            "yk": rng.integers(0, 5, 48, dtype=np.int64),
            "yv": rng.integers(0, 100, 48, dtype=np.int64),
        }),
    }


def _plan_x():
    return (scan("tx").filter(col("xv") < lit(90))
            .aggregate(["xk"], [agg_count("cnt"), agg_sum(col("xv"), "s")]))


def _plan_y():
    return (scan("ty")
            .aggregate(["yk"], [agg_count("cnt"), agg_sum(col("yv"), "s")]))


# ----------------------------------------------------------------------
# Hardware health states
# ----------------------------------------------------------------------
class TestDeviceHealth:
    def test_health_transitions_and_availability(self):
        topology = default_server()
        gpu0 = topology.device("gpu0")
        assert gpu0.health is DeviceHealth.HEALTHY and gpu0.is_available
        topology.fail_device("gpu0")
        assert gpu0.health is DeviceHealth.FAILED and not gpu0.is_available
        assert [d.name for d in topology.available_gpus()] == ["gpu1"]
        topology.degrade_device("gpu0")
        assert gpu0.health is DeviceHealth.DEGRADED and gpu0.is_available
        topology.restore_device("gpu0")
        assert gpu0.health is DeviceHealth.HEALTHY
        assert topology.health_report() == {
            name: "healthy" for name in ("cpu0", "cpu1", "gpu0", "gpu1")}

    def test_health_survives_topology_reset(self):
        # The executor resets clocks before every execution; a failed GPU
        # must stay failed across that reset.
        topology = default_server()
        topology.fail_device("gpu1")
        topology.reset()
        assert not topology.device("gpu1").is_available
        topology.reset_health()
        assert topology.device("gpu1").is_available

    def test_memory_shrink_and_restore(self):
        topology = default_server()
        gpu = topology.device("gpu0")
        nominal = gpu.spec.memory_capacity_bytes
        topology.shrink_device_memory("gpu0", 0.25)
        assert gpu.spec.memory_capacity_bytes == nominal // 4
        assert gpu.memory.capacity_bytes == nominal // 4
        with pytest.raises(OutOfDeviceMemoryError):
            gpu.allocate(nominal // 2)
        topology.restore_device_memory("gpu0")
        assert gpu.spec.memory_capacity_bytes == nominal
        with pytest.raises(ValueError, match="factor"):
            gpu.shrink_memory(0.0)

    def test_link_degradation_slows_transfers_and_restores(self):
        topology = default_server()
        link = topology.link("pcie0")
        healthy = link.transfer_time(1 << 20)
        topology.degrade_link("pcie0", 0.25)
        assert link.transfer_time(1 << 20) > healthy
        topology.restore_link("pcie0")
        assert link.transfer_time(1 << 20) == healthy
        with pytest.raises(ValueError, match="factor"):
            link.degrade(1.5)

    def test_degraded_link_slows_gpu_queries_then_restores(self, tpch_dataset):
        plan = (scan("lineitem", ["l_orderkey", "l_extendedprice"])
                .aggregate(["l_orderkey"],
                           [agg_sum(col("l_extendedprice"), "s")]))
        topology = default_server()
        engine = HAPEEngine(topology)
        engine.register_dataset(tpch_dataset.tables)
        healthy = engine.execute(plan, "gpu")
        topology.degrade_link("pcie0", 0.1)
        topology.degrade_link("pcie1", 0.1)
        degraded = engine.execute(plan, "gpu")
        assert degraded.simulated_seconds > healthy.simulated_seconds
        assert _table_bytes(degraded.table) == _table_bytes(healthy.table)
        topology.reset_health()
        restored = engine.execute(plan, "gpu")
        assert restored.simulated_seconds == healthy.simulated_seconds


# ----------------------------------------------------------------------
# Health-aware planning and execution
# ----------------------------------------------------------------------
class TestHealthAwarePlacement:
    def test_gpu_mode_with_all_gpus_failed_raises_fault(self, tpch_dataset):
        topology = default_server()
        engine = HAPEEngine(topology)
        engine.register_dataset(tpch_dataset.tables)
        topology.fail_device("gpu0")
        topology.fail_device("gpu1")
        with pytest.raises(DeviceUnavailableError, match="gpu"):
            engine.execute(_q1_like(tpch_dataset), "gpu")
        with pytest.raises(DeviceUnavailableError, match="gpu"):
            engine.execute(_q1_like(tpch_dataset), "hybrid")

    def test_degraded_parallelism_is_functionally_identical(self,
                                                            tpch_dataset):
        plan = _q1_like(tpch_dataset)
        healthy_engine = HAPEEngine(default_server())
        healthy_engine.register_dataset(tpch_dataset.tables)
        reference = healthy_engine.execute(plan, "gpu")

        topology = default_server()
        engine = HAPEEngine(topology)
        engine.register_dataset(tpch_dataset.tables)
        topology.fail_device("gpu1")
        survived = engine.execute(plan, "gpu")
        assert _table_bytes(survived.table) == _table_bytes(reference.table)
        assert "gpu1" not in survived.device_busy or \
            survived.device_busy.get("gpu1", 0.0) == 0.0

    def test_cpu_anchor_moves_off_failed_socket(self, tpch_dataset):
        plan = _q1_like(tpch_dataset)
        healthy_engine = HAPEEngine(default_server())
        healthy_engine.register_dataset(tpch_dataset.tables)
        reference = healthy_engine.execute(plan, "cpu")

        topology = default_server()
        engine = HAPEEngine(topology)
        engine.register_dataset(tpch_dataset.tables)
        topology.fail_device("cpu0")
        survived = engine.execute(plan, "cpu")
        assert _table_bytes(survived.table) == _table_bytes(reference.table)
        assert survived.device_busy.get("cpu0", 0.0) == 0.0

    @pytest.mark.parametrize("mode", ["cpu", "hybrid"])
    @pytest.mark.parametrize("query_name", EVALUATED_QUERIES)
    def test_plans_under_a_cpu_outage_name_no_failed_device(
            self, tpch_dataset, query_name, mode):
        """The gather router used to be planned onto a hard-coded ``cpu0``
        (and traced there) while the executor charged the surviving CPU."""
        topology = default_server()
        engine = HAPEEngine(topology, tracing=True)
        engine.register_dataset(tpch_dataset.tables)
        plan = build_query(query_name, tpch_dataset).plan
        healthy_routers = [node.consumers
                           for node in engine.plan(plan, mode).walk()
                           if isinstance(node, Router)]
        assert ("cpu0",) in healthy_routers
        topology.fail_device("cpu0")
        routers = [node for node in engine.plan(plan, mode).walk()
                   if isinstance(node, Router)]
        assert routers and not any("cpu0" in node.consumers
                                   for node in routers)
        result = engine.execute(plan, mode)
        assert not any("cpu0" in span.devices for span in result.trace.spans)
        assert result.device_busy["cpu0"] == 0.0


def _q1_like(tpch_dataset):
    return (scan("lineitem", ["l_orderkey", "l_extendedprice"])
            .aggregate(["l_orderkey"],
                       [agg_sum(col("l_extendedprice"), "s")]))


# ----------------------------------------------------------------------
# FaultPlan / FaultInjector
# ----------------------------------------------------------------------
class TestFaultPlanAndInjector:
    def test_plan_builder_and_validation(self):
        plan = (FaultPlan(seed=13)
                .fail_device("gpu0", at=0.5, recover_at=2.0)
                .degrade_link("pcie1", at=0.5, factor=0.25)
                .shrink_device_memory("gpu1", at=1.0, factor=0.5)
                .transient_errors(rate=0.1, labels=("Q1",))
                .fail_attempt("Q5", attempt=2, device="gpu0"))
        assert not plan.empty
        assert "gpu0" in plan.describe() and "transient" in plan.describe()
        assert FaultPlan().empty
        assert FaultPlan().describe() == "FaultPlan(empty)"
        with pytest.raises(ValueError, match="recovery"):
            FaultPlan().fail_device("gpu0", at=1.0, recover_at=0.5)
        with pytest.raises(ValueError, match="factor"):
            FaultPlan().degrade_link("pcie0", at=0.0, factor=0.0)
        with pytest.raises(ValueError, match="rate"):
            FaultPlan().transient_errors(rate=1.5)
        with pytest.raises(ValueError, match="kind"):
            from repro.faults import FaultEvent
            FaultEvent(kind="meteor", target="gpu0", at=0.0)

    def test_injector_timeline_apply_and_restore(self):
        topology = default_server()
        plan = (FaultPlan()
                .fail_device("gpu0", at=1.0, recover_at=2.0)
                .shrink_device_memory("gpu1", at=1.0, factor=0.5))
        injector = FaultInjector(plan, topology)
        assert injector.next_event_time(0.0) == 1.0
        assert injector.advance(0.5) == []
        assert injector.advance(1.0) == ["gpu0"]
        assert not topology.device("gpu0").is_available
        assert topology.device("gpu1").memory.capacity_bytes < \
            gtx_1080().memory_capacity_bytes
        assert injector.next_event_time(1.0) == 2.0
        assert injector.advance(2.0) == []  # recovery, not a new failure
        assert topology.device("gpu0").is_available
        # Epoch teardown undoes what the plan never restored.
        injector.restore_all()
        assert topology.device("gpu1").memory.capacity_bytes == \
            gtx_1080().memory_capacity_bytes

    def test_attempt_faults_are_seed_deterministic(self):
        def draws(seed):
            injector = FaultInjector(
                FaultPlan(seed=seed).transient_errors(rate=0.5),
                default_server())
            return [injector.attempt_fault("t", f"q{i}", 1) is not None
                    for i in range(32)]

        assert draws(7) == draws(7)
        assert draws(7) != draws(8)
        assert any(draws(7)) and not all(draws(7))

    def test_targeted_fault_hits_exact_attempt(self):
        injector = FaultInjector(
            FaultPlan().fail_attempt("q", attempt=2, device="gpu0"),
            default_server())
        assert injector.attempt_fault("t", "q", 1) is None
        fault = injector.attempt_fault("t", "q", 2)
        assert fault is not None and fault.kind == "device"
        assert fault.device == "gpu0"
        assert injector.attempt_fault("t", "other", 2) is None


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_trips_after_threshold_and_probes_recovery(self):
        topology = default_server()
        breaker = CircuitBreaker(topology, threshold=3, cooldown_seconds=1.0)
        assert not breaker.record_failure("gpu0", now=0.0)
        assert not breaker.record_failure("gpu0", now=0.1)
        assert breaker.record_failure("gpu0", now=0.2)
        assert not topology.device("gpu0").is_available
        assert breaker.trips == 1
        assert breaker.next_probe_time(0.2) == pytest.approx(1.2)
        assert breaker.advance(1.2) == ["gpu0"]
        assert topology.device("gpu0").health is DeviceHealth.DEGRADED
        breaker.record_success(["gpu0"])
        assert topology.device("gpu0").health is DeviceHealth.HEALTHY

    def test_success_resets_consecutive_count(self):
        topology = default_server()
        breaker = CircuitBreaker(topology, threshold=2, cooldown_seconds=1.0)
        breaker.record_failure("gpu0", now=0.0)
        breaker.record_success(["gpu0"])
        assert not breaker.record_failure("gpu0", now=0.2)
        assert topology.device("gpu0").is_available

    def test_restore_all_only_touches_own_trips(self):
        topology = default_server()
        topology.fail_device("gpu1")  # failed by someone else
        breaker = CircuitBreaker(topology, threshold=1, cooldown_seconds=1.0)
        breaker.record_failure("gpu0", now=0.0)
        breaker.restore_all()
        assert topology.device("gpu0").is_available
        assert not topology.device("gpu1").is_available

    def test_validation(self):
        with pytest.raises(ValueError, match="threshold"):
            CircuitBreaker(default_server(), threshold=0)
        with pytest.raises(ValueError, match="cooldown"):
            CircuitBreaker(default_server(), cooldown_seconds=0.0)
        # The server applies the same rule when it is constructed, not
        # from inside the first run() after tenants have queued work.
        with pytest.raises(ValueError, match="threshold"):
            QueryServer(default_server(), breaker_threshold=0)
        with pytest.raises(ValueError, match="cooldown"):
            QueryServer(default_server(), breaker_cooldown_seconds=0)


# ----------------------------------------------------------------------
# Resilient serving: retries
# ----------------------------------------------------------------------
class TestRetries:
    def test_transient_fault_is_retried_and_completes(self):
        plan = FaultPlan().fail_attempt("flaky", attempt=1, fraction=0.5)
        server = QueryServer(default_server(), fault_plan=plan,
                             cache_budget_bytes=0)
        server.register_dataset(_small_tables())
        ticket = server.submit("t", _plan_x(), "cpu", label="flaky")
        report = server.run()
        assert ticket.status == "completed"
        assert ticket.attempts == 2 and ticket.retries == 1
        assert ticket.failovers == 0
        assert ticket.wasted_seconds > 0.0
        assert report.retries == 1
        assert report.tenants["t"].retries == 1
        assert report.tenants["t"].wasted_seconds == ticket.wasted_seconds

        # The successful attempt is bit-identical to a solo fault-free run.
        solo = HAPEEngine(default_server())
        solo.register_dataset(_small_tables())
        reference = solo.execute(_plan_x(), "cpu")
        assert ticket.result.simulated_seconds == reference.simulated_seconds
        assert _table_bytes(ticket.result.table) == \
            _table_bytes(reference.table)

    def test_backoff_is_charged_as_queue_wait(self):
        policy = RetryPolicy(max_attempts=3, backoff_seconds=0.25,
                             backoff_multiplier=2.0)
        plan = FaultPlan().fail_attempt("flaky", attempt=1, fraction=0.5)
        server = QueryServer(default_server(), fault_plan=plan,
                             retry_policy=policy, cache_budget_bytes=0)
        server.register_dataset(_small_tables())
        ticket = server.submit("t", _plan_x(), "cpu", label="flaky")
        server.run()
        assert ticket.status == "completed"
        # Attempt 1 died, backoff(1)=0.25s sat in the queue, attempt 2 ran.
        assert ticket.queue_wait >= 0.25
        assert ticket.latency == pytest.approx(
            ticket.queue_wait + ticket.result.simulated_seconds)

    def test_retry_budget_exhaustion_fails_cleanly(self):
        plan = FaultPlan().transient_errors(rate=1.0, fraction=0.25,
                                            labels=("doomed",))
        server = QueryServer(
            default_server(), fault_plan=plan, cache_budget_bytes=0,
            retry_policy=RetryPolicy(max_attempts=3, backoff_seconds=0.01))
        server.register_dataset(_small_tables())
        doomed = server.submit("t", _plan_x(), "cpu", label="doomed")
        healthy = server.submit("t", _plan_y(), "cpu", label="fine")
        report = server.run()
        assert doomed.status == "failed"
        assert doomed.attempts == 3 and doomed.retries == 2
        assert "3 attempt" in doomed.error
        assert doomed.wasted_seconds > 0.0
        # The epoch survives: the healthy query of the same tenant runs.
        assert healthy.status == "completed"
        assert report.failed == 1 and report.completed == 1
        assert report.tenants["t"].failed == 1

    def test_per_tenant_retry_policy_overrides_server_default(self):
        plan = FaultPlan().transient_errors(rate=1.0, labels=("doomed",))
        server = QueryServer(
            default_server(), fault_plan=plan, cache_budget_bytes=0,
            retry_policy=RetryPolicy(max_attempts=5, backoff_seconds=0.01))
        server.register_dataset(_small_tables())
        server.open_session(
            "strict", retry=RetryPolicy(max_attempts=1,
                                        backoff_seconds=0.01))
        ticket = server.submit("strict", _plan_x(), "cpu", label="doomed")
        server.run()
        assert ticket.status == "failed"
        assert ticket.attempts == 1 and ticket.retries == 0

    def test_retry_policy_validation_and_backoff(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="backoff_seconds"):
            RetryPolicy(backoff_seconds=-1.0)
        with pytest.raises(ValueError, match="multiplier"):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(ValueError, match="deadline"):
            RetryPolicy(deadline_seconds=0.0)
        policy = RetryPolicy(backoff_seconds=0.1, backoff_multiplier=2.0)
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(3) == pytest.approx(0.4)
        with pytest.raises(ValueError, match="1-based"):
            policy.backoff(0)


# ----------------------------------------------------------------------
# Resilient serving: mode failover
# ----------------------------------------------------------------------
class TestModeFailover:
    def test_q9_style_gpu_overflow_degrades_to_cpu(self, tpch_dataset):
        # The paper's Section 6.4 failure: the join build side exceeds GPU
        # memory.  The filters below are perfectly correlated (the same
        # predicate repeated), so the estimator's independence assumption
        # multiplies their selectivities and underestimates the build side
        # 4x: the optimizer lets a GPU-resident join through, the
        # executor's capacity check raises OutOfDeviceMemoryError
        # mid-dispatch, and the server fails the query over hybrid -> cpu
        # where it completes.
        filtered = scan("orders")
        for _ in range(4):
            filtered = filtered.filter(col("o_orderkey") >= lit(3000))
        plan = (filtered
                .join(scan("lineitem", ["l_orderkey", "l_extendedprice"]),
                      ["o_orderkey"], ["l_orderkey"])
                .aggregate([], [agg_sum(col("l_extendedprice"), "s")]))
        tiny_gpu = gtx_1080().with_memory_capacity(64 * 1024)
        topology = default_server(gpu_spec=tiny_gpu)

        # The engine alone raises (end-to-end coverage of the error path).
        probe_engine = HAPEEngine(default_server(gpu_spec=tiny_gpu))
        probe_engine.register_dataset(tpch_dataset.tables)
        with pytest.raises(OutOfDeviceMemoryError, match="gpu0"):
            probe_engine.execute(plan, "hybrid")

        server = QueryServer(topology, cache_budget_bytes=0)
        server.register_dataset(tpch_dataset.tables)
        ticket = server.submit("t", plan, "hybrid", label="q9ish")
        report = server.run()
        assert ticket.status == "completed"
        assert ticket.final_mode == "cpu"
        assert ticket.failovers == 1 and report.failovers == 1
        assert ticket.retries == 0
        assert report.tenants["t"].failovers == 1

        # Reference-identical to a fault-free cpu-mode solo run.
        reference_engine = HAPEEngine(default_server())
        reference_engine.register_dataset(tpch_dataset.tables)
        reference = reference_engine.execute(plan, "cpu")
        assert _table_bytes(ticket.result.table) == \
            _table_bytes(reference.table)
        assert ticket.result.simulated_seconds == reference.simulated_seconds

    def test_injected_memory_shrink_walks_ladder(self, tpch_dataset):
        # Shrinking GPU memory re-creates Q9: gpu mode becomes impossible
        # (OptimizerError at planning), hybrid co-processes and completes.
        plan = scan("orders").join(
            scan("lineitem", ["l_orderkey", "l_extendedprice"]),
            ["o_orderkey"], ["l_orderkey"]).aggregate(
                [], [agg_sum(col("l_extendedprice"), "s")])
        fault_plan = (FaultPlan()
                      .shrink_device_memory("gpu0", at=0.0, factor=0.00001)
                      .shrink_device_memory("gpu1", at=0.0, factor=0.00001))
        topology = default_server()
        server = QueryServer(topology, fault_plan=fault_plan,
                             cache_budget_bytes=0)
        server.register_dataset(tpch_dataset.tables)
        ticket = server.submit("t", plan, "gpu", label="q9ish")
        server.run()
        assert ticket.status == "completed"
        assert ticket.final_mode in ("hybrid", "cpu")
        assert ticket.failovers >= 1
        # Injected shrinkage is epoch-scoped.
        assert topology.device("gpu0").spec.memory_capacity_bytes == \
            gtx_1080().memory_capacity_bytes

    def test_cpu_mode_has_no_rung_left(self):
        plan = FaultPlan().fail_attempt("q", attempt=1, device="cpu0",
                                        fraction=0.5)
        server = QueryServer(default_server(), fault_plan=plan,
                             cache_budget_bytes=0, breaker_threshold=100)
        server.register_dataset(_small_tables())
        ticket = server.submit("t", _plan_x(), "cpu", label="q")
        report = server.run()
        assert ticket.status == "failed"
        assert ticket.failovers == 0
        assert report.failed == 1


# ----------------------------------------------------------------------
# Resilient serving: mid-epoch device failure (chaos)
# ----------------------------------------------------------------------
class TestMidEpochDeviceFailure:
    def test_gpu_killed_mid_query_fails_over_to_cpu(self, tpch_dataset):
        queries = {
            "a": _q1_like(tpch_dataset),
            "b": (scan("orders", ["o_orderkey", "o_custkey"])
                  .aggregate([], [agg_sum(col("o_custkey"), "s")])),
        }
        # Find when the first gpu query would finish, then kill both GPUs
        # mid-flight.
        probe = HAPEEngine(default_server())
        probe.register_dataset(tpch_dataset.tables)
        first_sim = probe.execute(queries["a"], "gpu").simulated_seconds
        kill_at = first_sim * 0.5

        fault_plan = (FaultPlan()
                      .fail_device("gpu0", at=kill_at)
                      .fail_device("gpu1", at=kill_at))
        server = QueryServer(default_server(), fault_plan=fault_plan,
                             cache_budget_bytes=0)
        server.register_dataset(tpch_dataset.tables)
        t_a = server.submit("t", queries["a"], "gpu", label="a")
        t_b = server.submit("u", queries["b"], "gpu", label="b")
        report = server.run()

        reference = HAPEEngine(default_server())
        reference.register_dataset(tpch_dataset.tables)
        for ticket, plan in ((t_a, queries["a"]), (t_b, queries["b"])):
            assert ticket.status == "completed"
            assert ticket.final_mode == "cpu"
            # gpu -> hybrid -> cpu: hybrid is refused synchronously because
            # every GPU is down, so each query records two failovers.
            assert ticket.failovers == 2
            solo = reference.execute(plan, "cpu")
            assert ticket.result.simulated_seconds == solo.simulated_seconds
            assert _table_bytes(ticket.result.table) == \
                _table_bytes(solo.table)
        # The killed in-flight attempt burned simulated time.
        assert t_a.wasted_seconds > 0.0
        assert report.wasted_seconds >= t_a.wasted_seconds
        assert report.completed == 2 and report.failed == 0
        # Injected failures are epoch-scoped: the topology healed.
        assert server.topology.device("gpu0").is_available
        assert server.topology.device("gpu1").is_available

    def test_device_recovery_lets_later_queries_use_gpus(self, tpch_dataset):
        plan = _q1_like(tpch_dataset)
        probe = HAPEEngine(default_server())
        probe.register_dataset(tpch_dataset.tables)
        gpu_sim = probe.execute(plan, "gpu").simulated_seconds

        fault_plan = FaultPlan().fail_device(
            "gpu0", at=0.0, recover_at=1.0).fail_device(
            "gpu1", at=0.0, recover_at=1.0)
        server = QueryServer(default_server(), fault_plan=fault_plan,
                             cache_budget_bytes=0)
        server.register_dataset(tpch_dataset.tables)
        early = server.submit("t", plan, "gpu", label="early", at=0.0)
        late = server.submit("t", plan, "gpu", label="late", at=2.0)
        server.run()
        # The early query had no GPUs and fell back to cpu mode; the late
        # one ran after recovery, in its requested mode, at the fault-free
        # gpu-mode cost.
        assert early.status == "completed" and early.final_mode == "cpu"
        assert late.status == "completed" and late.final_mode == "gpu"
        assert late.result.simulated_seconds == gpu_sim


# ----------------------------------------------------------------------
# Resilient serving: deadlines
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_deadline_cuts_a_running_query(self, tpch_dataset):
        plan = _q1_like(tpch_dataset)
        probe = HAPEEngine(default_server())
        probe.register_dataset(tpch_dataset.tables)
        sim = probe.execute(plan, "cpu").simulated_seconds

        server = QueryServer(default_server(), cache_budget_bytes=0)
        server.register_dataset(tpch_dataset.tables)
        ticket = server.submit("t", plan, "cpu", label="q",
                               deadline=sim * 0.5)
        report = server.run()
        assert ticket.status == "timed_out"
        assert ticket.finish_time == pytest.approx(sim * 0.5)
        assert ticket.wasted_seconds > 0.0
        assert "deadline" in ticket.error
        assert report.timed_out == 1 and report.completed == 0
        assert report.tenants["t"].timed_out == 1

    def test_deadline_bounds_queueing_too(self, tpch_dataset):
        plan = _q1_like(tpch_dataset)
        probe = HAPEEngine(default_server())
        probe.register_dataset(tpch_dataset.tables)
        sim = probe.execute(plan, "cpu").simulated_seconds

        server = QueryServer(default_server(), cache_budget_bytes=0)
        server.register_dataset(tpch_dataset.tables)
        first = server.submit("t", plan, "cpu", label="first")
        # Dispatches only after ``first`` finishes — past its deadline.
        starved = server.submit("t", plan, "cpu", label="starved",
                                deadline=sim * 0.5)
        server.run()
        assert first.status == "completed"
        assert starved.status == "timed_out"
        # Never dispatched: no simulated work was wasted on it.
        assert starved.wasted_seconds == 0.0

    def test_deadline_default_comes_from_retry_policy(self):
        server = QueryServer(
            default_server(), cache_budget_bytes=0,
            retry_policy=RetryPolicy(deadline_seconds=123.0))
        server.register_dataset(_small_tables())
        ticket = server.submit("t", _plan_x(), "cpu")
        assert ticket.deadline_seconds == 123.0
        assert ticket.deadline_time == 123.0

    def test_timeout_error_type(self):
        error = QueryTimeoutError("q", 1.5)
        assert isinstance(error, FaultError)
        assert isinstance(error, ReproError)
        assert "deadline" in str(error)


# ----------------------------------------------------------------------
# Circuit breaker inside the serving loop
# ----------------------------------------------------------------------
class TestServerCircuitBreaker:
    def test_repeated_device_faults_trip_and_recover(self, tpch_dataset):
        plan = _q1_like(tpch_dataset)
        probe = HAPEEngine(default_server())
        probe.register_dataset(tpch_dataset.tables)
        full_gpu_sim = probe.execute(plan, "gpu").simulated_seconds

        # One device-scoped fault trips the (threshold=1) breaker on gpu0;
        # the victim fails over, and a query submitted before the cooldown
        # elapses runs gpu-mode on gpu1 alone.
        fault_plan = FaultPlan().fail_attempt("victim", attempt=1,
                                              device="gpu0", fraction=0.5)
        server = QueryServer(default_server(), fault_plan=fault_plan,
                             cache_budget_bytes=0, breaker_threshold=1,
                             breaker_cooldown_seconds=10.0)
        server.register_dataset(tpch_dataset.tables)
        victim = server.submit("t", plan, "gpu", label="victim")
        follower = server.submit("u", plan, "gpu", label="follower",
                                 at=1.0)
        server.run()
        assert victim.status == "completed"
        assert victim.failovers == 1  # gpu -> hybrid (gpu1 still up)
        assert victim.final_mode == "hybrid"
        assert follower.status == "completed"
        assert follower.final_mode == "gpu"
        # gpu0 was out of rotation: the follower ran on gpu1 alone, which
        # costs more than the fault-free two-GPU run.
        assert follower.result.simulated_seconds > full_gpu_sim
        assert follower.result.device_busy.get("gpu0", 0.0) == 0.0
        # Breaker state is epoch-scoped.
        assert server.topology.device("gpu0").is_available

    def test_probe_after_cooldown_restores_full_parallelism(self,
                                                            tpch_dataset):
        plan = _q1_like(tpch_dataset)
        probe = HAPEEngine(default_server())
        probe.register_dataset(tpch_dataset.tables)
        full_gpu_sim = probe.execute(plan, "gpu").simulated_seconds

        fault_plan = FaultPlan().fail_attempt("victim", attempt=1,
                                              device="gpu0", fraction=0.5)
        server = QueryServer(default_server(), fault_plan=fault_plan,
                             cache_budget_bytes=0, breaker_threshold=1,
                             breaker_cooldown_seconds=0.5)
        server.register_dataset(tpch_dataset.tables)
        server.submit("t", plan, "gpu", label="victim")
        healed = server.submit("u", plan, "gpu", label="healed", at=2.0)
        server.run()
        # The cooldown elapsed before t=2.0: the probe half-opened gpu0,
        # the healed query ran on both GPUs at the fault-free cost, and
        # its success closed the circuit.
        assert healed.status == "completed"
        assert healed.result.simulated_seconds == full_gpu_sim


# ----------------------------------------------------------------------
# The PR-identity invariant and exception safety
# ----------------------------------------------------------------------
class TestFaultFreeIdentityAndSafety:
    def test_empty_fault_plan_is_bit_identical(self, tpch_dataset):
        def serve(fault_plan):
            server = QueryServer(default_server(), fault_plan=fault_plan)
            server.register_dataset(tpch_dataset.tables)
            for tenant, mode in (("cpu-a", "cpu"), ("gpu-a", "gpu"),
                                 ("hy-a", "hybrid")):
                server.open_session(tenant, max_concurrency=2)
                server.submit(tenant, _q1_like(tpch_dataset), mode)
                server.submit(
                    tenant,
                    scan("orders", ["o_orderkey", "o_custkey"])
                    .aggregate([], [agg_sum(col("o_custkey"), "s")]),
                    mode)
            return server.run()

        plain = serve(None)            # fault machinery defaulted
        explicit = serve(FaultPlan())  # explicitly empty plan
        assert plain.makespan == explicit.makespan
        assert plain.serial_seconds == explicit.serial_seconds
        for left, right in zip(plain.tickets, explicit.tickets):
            assert left.status == right.status == "completed"
            assert left.start_time == right.start_time
            assert left.finish_time == right.finish_time
            assert left.reserved == right.reserved
            assert left.attempts == right.attempts == 1
            assert left.wasted_seconds == right.wasted_seconds == 0.0
            assert left.result.simulated_seconds == \
                right.result.simulated_seconds
            assert _table_bytes(left.result.table) == \
                _table_bytes(right.result.table)

    def test_run_is_exception_safe_and_server_reusable(self, monkeypatch):
        server = QueryServer(default_server(), tracing=True)
        server.register_dataset(_small_tables())
        session = server.open_session("t")
        server.submit("t", _plan_x(), "cpu", label="boom")
        server.submit("t", _plan_y(), "cpu", label="after", at=0.5)

        def explode(*args, **kwargs):
            raise RuntimeError("synthetic engine bug")

        monkeypatch.setattr(session, "execute", explode)
        with pytest.raises(ServingError, match="epoch aborted") as excinfo:
            server.run()
        partial = excinfo.value.report
        assert partial is not None
        assert all(t.status == "failed" for t in partial.tickets)
        assert all("epoch aborted" in t.error for t in partial.tickets)
        # Aborted tickets go through the one finalizer: a finish time (never
        # before their own submission) and exactly one terminal event each.
        assert all(t.finish_time >= t.submit_time for t in partial.tickets)
        assert partial.makespan == 0.5
        terminal = [event.attrs["ticket"] for event in server.last_trace.events
                    if EVENT_STATUS.get(event.kind) in TERMINAL]
        assert sorted(terminal) == [t.ticket_id for t in partial.tickets]

        # The server survives: admission state unwound, next epoch clean.
        monkeypatch.undo()
        ticket = server.submit("t", _plan_x(), "cpu")
        report = server.run()
        assert ticket.status == "completed"
        assert report.completed == 1

    def test_join_over_unregistered_table_fails_only_its_ticket(
            self, tpch_dataset):
        # The optimizer used to die on this join with a bare ValueError,
        # which is not a per-query failure: the whole epoch aborted and
        # the other tenant's ticket was reported failed with it.
        server = QueryServer(default_server())
        server.register_dataset(tpch_dataset.tables)
        bad_join = server.submit(
            "careless", scan("lineitem", ["l_orderkey"]).join(
                scan("nowhere"), ["l_orderkey"], ["k"]), "hybrid")
        bad_scan = server.submit("careless", scan("nowhere"), "auto")
        good = server.submit(
            "careful", build_query("Q6", tpch_dataset).plan, "hybrid")
        report = server.run()
        assert bad_join.status == bad_scan.status == "failed"
        assert "unknown table 'nowhere'" in bad_join.error
        assert good.status == "completed"
        assert (report.completed, report.failed) == (1, 2)

    @pytest.mark.parametrize("typo", [
        scan("tx").aggregate(["zzz"], [agg_count("n")]),
        scan("tx").join(scan("ty"), ["zzz"], ["yk"]),
        scan("tx").join(scan("ty"), ["xk"], ["zzz"]),
        scan("tx").order_by(["zzz"]),
    ], ids=["group_by", "left_keys", "right_keys", "order_by"])
    def test_unknown_key_column_fails_only_its_ticket(self, typo):
        # A key column the input lacks used to surface as a bare
        # KeyError('zzz') from the kernel — not a per-query failure, so
        # the epoch aborted and alice's and carol's tickets failed with
        # bob's.  It is the ExpressionError the same typo gives in a
        # filter or a projection.
        for mode in ("cpu", "hybrid"):
            engine = HAPEEngine(default_server())
            engine.register_dataset(_small_tables())
            with pytest.raises(ExpressionError,
                               match="unknown column 'zzz'; available:"):
                engine.execute(typo, mode)

        server = QueryServer(default_server())
        server.register_dataset(_small_tables())
        count = scan("tx").aggregate([], [agg_count("n")])
        alice = server.submit("alice", count, "cpu")
        bob = server.submit("bob", typo, "cpu")
        carol = server.submit("carol", count, "cpu")
        report = server.run()
        assert alice.status == carol.status == "completed"
        assert bob.status == "failed"
        assert "unknown column 'zzz'" in bob.error
        assert (report.completed, report.failed) == (2, 1)

    def test_fault_taxonomy_hierarchy(self):
        assert issubclass(FaultError, ReproError)
        assert issubclass(DeviceUnavailableError, FaultError)
        assert issubclass(QueryTimeoutError, FaultError)
        assert issubclass(RetryExhaustedError, FaultError)
        exhausted = RetryExhaustedError("q", 3, ValueError("root cause"))
        assert exhausted.attempts == 3
        assert "root cause" in str(exhausted)
        unavailable = DeviceUnavailableError("gpu", "all GPUs failed")
        assert unavailable.kind == "gpu"
        assert "all GPUs failed" in str(unavailable)

    def test_chaos_runs_are_deterministic(self, tpch_dataset):
        def serve():
            fault_plan = (FaultPlan(seed=21)
                          .transient_errors(rate=0.4, fraction=0.5)
                          .fail_device("gpu0", at=1e-5, recover_at=1.0))
            server = QueryServer(
                default_server(), fault_plan=fault_plan,
                cache_budget_bytes=0,
                retry_policy=RetryPolicy(max_attempts=4,
                                         backoff_seconds=1e-4))
            server.register_dataset(tpch_dataset.tables)
            for tenant, mode in (("a", "cpu"), ("b", "gpu"),
                                 ("c", "hybrid")):
                server.open_session(tenant, max_concurrency=2)
                for i in range(3):
                    server.submit(tenant, _q1_like(tpch_dataset), mode,
                                  label=f"{tenant}{i}")
            return server.run()

        first, second = serve(), serve()
        assert first.makespan == second.makespan
        for left, right in zip(first.tickets, second.tickets):
            assert left.status == right.status
            assert left.attempts == right.attempts
            assert left.retries == right.retries
            assert left.failovers == right.failovers
            assert left.wasted_seconds == right.wasted_seconds
            assert left.finish_time == right.finish_time
        assert first.retries + first.failovers > 0  # chaos actually struck
