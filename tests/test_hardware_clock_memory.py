"""Tests for simulated clocks, timelines and the device capacity check."""

from __future__ import annotations

import copy
import hashlib

import pytest

from repro.engine import HAPEEngine
from repro.engine.modes import ExecutionMode
from repro.errors import OutOfDeviceMemoryError
from repro.hardware import (
    Device,
    SimClock,
    TaskRecord,
    Timeline,
    default_server,
    gtx_1080,
)
from repro.workloads import build_query


class TestSimClock:
    def test_reserve_advances_availability(self):
        clock = SimClock("cpu0")
        first = clock.reserve(1.0, label="a")
        second = clock.reserve(0.5, label="b")
        assert first.start == 0.0 and first.end == 1.0
        assert second.start == 1.0 and second.end == 1.5
        assert clock.busy_time == pytest.approx(1.5)

    def test_reserve_respects_earliest(self):
        clock = SimClock("gpu0")
        record = clock.reserve(0.2, earliest=3.0)
        assert record.start == 3.0
        assert clock.available_at == pytest.approx(3.2)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            SimClock("x").reserve(-1.0)

    def test_reset(self):
        clock = SimClock("x")
        clock.reserve(1.0)
        clock.reset()
        assert clock.available_at == 0.0
        assert clock.busy_time == 0.0
        assert clock.records == ()

    def test_records_overlap_detection(self):
        clock = SimClock("x")
        a = clock.reserve(1.0)
        b = clock.reserve(1.0)
        assert not a.overlaps(b)
        assert a.overlaps(a)


class TestTimeline:
    def test_makespan_is_max_over_resources(self):
        a, b = SimClock("a"), SimClock("b")
        timeline = Timeline([a, b])
        a.reserve(2.0)
        b.reserve(0.5)
        assert timeline.makespan == pytest.approx(2.0)
        assert timeline.utilization("b") == pytest.approx(0.25)

    def test_duplicate_resource_rejected(self):
        timeline = Timeline([SimClock("a")])
        with pytest.raises(ValueError):
            timeline.add(SimClock("a"))

    def test_records_sorted_by_start(self):
        a, b = SimClock("a"), SimClock("b")
        timeline = Timeline([a, b])
        b.reserve(1.0, earliest=5.0)
        a.reserve(1.0)
        records = timeline.records()
        assert [record.resource for record in records] == ["a", "b"]

    def test_empty_timeline(self):
        assert Timeline().makespan == 0.0


class TestTaskRecord:
    """A record is a named tuple: the contract its readers (traces, the
    scheduler, the occupancy board) rely on."""

    def test_fields_duration_and_overlaps(self):
        record = TaskRecord("gpu0", "probe", 1.0, 3.5)
        assert TaskRecord._fields == ("resource", "label", "start", "end")
        assert (record.resource, record.label, record.start,
                record.end) == ("gpu0", "probe", 1.0, 3.5)
        assert record.duration == 2.5
        assert record.overlaps(TaskRecord("cpu0", "x", 3.0, 4.0))
        assert not record.overlaps(TaskRecord("cpu0", "x", 3.5, 4.0))
        assert record == TaskRecord("gpu0", "probe", 1.0, 3.5)
        assert hash(record) == hash(TaskRecord("gpu0", "probe", 1.0, 3.5))

    def test_reserve_starts_at_the_later_of_free_and_earliest(self):
        clock = SimClock("x")
        clock.reserve(2.0)
        assert clock.reserve(1.0, earliest=1.0).start == 2.0
        assert clock.reserve(1.0, earliest=4.0).start == 4.0
        assert clock.reserve(0.0, earliest=5.0) == TaskRecord(
            "x", "task", 5.0, 5.0)

    def test_truncate_replaces_the_identical_record(self):
        # Two zero-length reservations with one label at one start are
        # equal records; truncation must find the very object it is given.
        clock = SimClock("x")
        clock.reserve(1.0, label="before")
        first = clock.reserve(0.0, label="z")
        second = clock.reserve(0.0, label="z")
        assert first == second and first is not second
        replacement = clock.truncate(second, 0.5)
        assert replacement == second
        records = clock.records
        assert records[1] is first
        assert records[2] is replacement and records[2] is not second
        with pytest.raises(ValueError):
            clock.truncate(second, 0.5)

    @pytest.mark.parametrize("write", ["reserve", "truncate", "reset"])
    def test_restore_keeps_the_snapshot_it_shares(self, write):
        """``restore`` takes the snapshot's records by reference; the next
        write copies them first, so the snapshot never changes."""
        clock = SimClock("x")
        first = clock.reserve(1.0, label="a")
        clock.reserve(2.0, label="b")
        state = clock.snapshot()
        kept = (tuple(state[0]), state[1], state[2])
        clock.reset()
        clock.restore(state)
        assert clock.records == kept[0]
        if write == "reserve":
            clock.reserve(0.5, label="c")
            assert clock.records == kept[0] + (
                TaskRecord("x", "c", 3.0, 3.5),)
        elif write == "truncate":
            clock.truncate(first, 0.5)
            assert clock.records[0] == TaskRecord("x", "a", 0.0, 0.5)
        else:
            clock.reset()
            assert clock.records == ()
        assert state == kept
        clock.restore(state)
        assert (clock.records, clock.available_at, clock.busy_time) == kept

    def test_a_replay_leaves_its_kept_clocks_unchanged(self, tpch_dataset):
        """Replays restore a program's kept clocks by reference: the writes
        of the executions in between (cold ones, other programs) leave
        every kept tuple as it was, and replaying the program again gives
        the same timeline."""
        engine = HAPEEngine(default_server())
        engine.register_dataset(tpch_dataset.tables)
        plans = {name: build_query(name, tpch_dataset).plan
                 for name in ("Q5", "Q6")}
        for _ in range(2):  # cold, then all hits: the timeline is kept
            engine.execute(plans["Q5"], "hybrid")
        program = engine._prepared(plans["Q5"], ExecutionMode.HYBRID,
                                   compiled=True).program
        kept = program.replay.clocks
        copied = copy.deepcopy(kept)
        engine.execute(plans["Q5"], "hybrid")
        replayed = engine.topology.timeline().records()
        for _ in range(2):  # another program: cold, then all hits
            engine.execute(plans["Q6"], "gpu")
        for device in engine.topology.devices:
            device.clock.reserve(1.0, label="stray")
        engine.execute(plans["Q5"], "hybrid")
        assert program.replay.clocks is kept and kept == copied
        assert engine.topology.timeline().records() == replayed

    def test_timeline_records_tie_by_resource_stably(self):
        a, b, c = SimClock("a"), SimClock("b"), SimClock("c")
        timeline = Timeline([c, b, a])
        c.reserve(1.0, label="c0")
        b.reserve(1.0, label="b0")
        b.reserve(0.0, earliest=1.0, label="b1")
        b.reserve(0.0, earliest=1.0, label="b2")
        a.reserve(1.0, earliest=1.0, label="a0")
        # (start, resource); equal keys keep their clock's order.
        assert [record.label for record in timeline.records()] == [
            "b0", "c0", "a0", "b1", "b2"]

    def test_traced_q5_hybrid_jsonl_is_pinned(self, tpch_dataset):
        """The trace bytes of a cold and a warm traced Q5 in hybrid mode,
        pinned: record construction and ordering must not move them."""
        engine = HAPEEngine(default_server(), tracing=True)
        engine.register_dataset(tpch_dataset.tables)
        plan = build_query("Q5", tpch_dataset).plan
        digests = [hashlib.sha256(engine.execute(plan, "hybrid").trace
                                  .to_jsonl().encode()).hexdigest()
                   for _ in ("cold", "warm")]
        assert digests == [
            "1917a92a4240b4b5a7b810c4c5bce8449dca35b2e058bfee9e069fc4fd2ac08d",
            "644242290e1409047e9048e6d7e747c197c6773ba156e342242ef02eb3c77cc4",
        ]


class TestCapacityCheck:
    """``Device.ensure_fits``: the one answer to "does this fit?"."""

    @staticmethod
    def _gpu(capacity: int) -> Device:
        return Device(gtx_1080("gpu0").with_memory_capacity(capacity))

    def test_exactly_the_capacity_fits_every_time(self):
        gpu = self._gpu(1000)
        for _ in range(3):  # a check holds nothing
            gpu.ensure_fits(1000)

    def test_one_byte_over_raises_naming_device_and_bytes(self):
        with pytest.raises(OutOfDeviceMemoryError) as excinfo:
            self._gpu(1000).ensure_fits(1001)
        error = excinfo.value
        assert (error.device, error.requested, error.available) == \
            ("gpu0", 1001, 1000)
        assert "gpu0" in str(error) and "1001" in str(error)

    def test_shrink_and_restore_are_seen_by_the_check(self):
        gpu = self._gpu(1000)
        gpu.shrink_memory(0.5)
        gpu.ensure_fits(500)
        with pytest.raises(OutOfDeviceMemoryError) as excinfo:
            gpu.ensure_fits(501)
        assert excinfo.value.available == 500
        gpu.restore_memory()
        gpu.ensure_fits(1000)
