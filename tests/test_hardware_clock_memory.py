"""Tests for simulated clocks, timelines and the device capacity check."""

from __future__ import annotations

import pytest

from repro.errors import OutOfDeviceMemoryError
from repro.hardware import Device, SimClock, Timeline, gtx_1080


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
