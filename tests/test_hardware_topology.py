"""Tests for the simulated server topology and interconnects."""

from __future__ import annotations

import pytest

from repro.errors import NoRouteError, UnknownDeviceError
from repro.hardware import (
    DeviceKind,
    LinkSpec,
    Topology,
    cpu_only_server,
    default_server,
    gtx_1080,
    single_gpu_server,
    xeon_e5_2650l_v3,
)

GIB = 1024 ** 3


#: The link names of every route, per stock topology: what the NetworkX
#: shortest path returned before routing moved onto the stdlib.  The
#: reverse direction is the same links reversed.
_PINNED_ROUTES = {
    default_server: {
        ("cpu0", "cpu1"): ["qpi01"],
        ("cpu0", "gpu0"): ["pcie0"],
        ("cpu0", "gpu1"): ["qpi01", "pcie1"],
        ("cpu1", "gpu0"): ["qpi01", "pcie0"],
        ("cpu1", "gpu1"): ["pcie1"],
        ("gpu0", "gpu1"): ["pcie0", "qpi01", "pcie1"],
    },
    single_gpu_server: {("cpu0", "gpu0"): ["pcie0"]},
    lambda: cpu_only_server(4): {
        (f"cpu{a}", f"cpu{b}"): [f"qpi{a}{b}"]
        for a in range(4) for b in range(a + 1, 4)},
}


def _route_names(topology, source, destination):
    return [link.name for link in topology.route(source, destination).links]


class TestRouting:
    @pytest.mark.parametrize("build", _PINNED_ROUTES,
                             ids=["default", "single-gpu", "cpu-only-4"])
    def test_routes_of_stock_topologies_are_pinned(self, build):
        topology, pinned = build(), _PINNED_ROUTES[build]
        names = [device.name for device in topology.devices]
        assert set(pinned) == {(a, b) for a in names for b in names if a < b}
        for (source, destination), links in pinned.items():
            assert _route_names(topology, source, destination) == links
            assert _route_names(topology, destination,
                                source) == links[::-1]

    def test_degraded_link_is_routed_around_while_a_detour_is_cheaper(self):
        topology = cpu_only_server(3)
        assert _route_names(topology, "cpu0", "cpu2") == ["qpi02"]
        topology.degrade_link("qpi02", 0.1)   # 10x the weight: detour wins
        assert _route_names(topology, "cpu0", "cpu2") == ["qpi01", "qpi12"]
        assert _route_names(topology, "cpu2", "cpu0") == ["qpi12", "qpi01"]
        topology.degrade_link("qpi02", 0.5)   # a tie: fewest links wins
        assert _route_names(topology, "cpu0", "cpu2") == ["qpi02"]
        topology.degrade_link("qpi02", 0.1)
        topology.restore_link("qpi02")
        assert _route_names(topology, "cpu0", "cpu2") == ["qpi02"]

    def test_equal_routes_break_ties_on_link_registration_order(self):
        topology = Topology()
        for name in ("cpu0", "cpu1", "cpu2", "cpu3"):
            topology.add_device(xeon_e5_2650l_v3(name))
        # A square: two equally cheap two-link paths from cpu0 to cpu3.
        for a, b in ((0, 2), (0, 1), (1, 3), (2, 3)):   # registration order
            topology.connect(f"cpu{a}", f"cpu{b}",
                             LinkSpec(f"link{a}{b}", 10.0, 1.0))
        assert _route_names(topology, "cpu0", "cpu3") == ["link02", "link23"]
        assert _route_names(topology, "cpu3", "cpu0") == ["link13", "link01"]


class TestDefaultServer:
    def test_paper_testbed_shape(self, topology):
        assert len(topology.cpus()) == 2
        assert len(topology.gpus()) == 2
        assert len(topology.links) == 3  # one QPI + two dedicated PCIe

    def test_each_gpu_has_its_own_pcie_link(self, topology):
        route0 = topology.route("cpu0", "gpu0")
        route1 = topology.route("cpu1", "gpu1")
        assert route0.hop_count == 1
        assert route1.hop_count == 1
        assert route0.links[0].name != route1.links[0].name

    def test_cross_socket_gpu_route_goes_through_qpi(self, topology):
        route = topology.route("cpu0", "gpu1")
        assert route.hop_count == 2
        names = [link.name for link in route.links]
        assert any(name.startswith("qpi") for name in names)
        assert any(name.startswith("pcie") for name in names)

    def test_route_to_self_is_free(self, topology):
        route = topology.route("cpu0", "cpu0")
        assert route.hop_count == 0
        assert route.transfer_time(GIB) == 0.0

    def test_transfer_time_bounded_by_pcie(self, topology):
        seconds = topology.transfer_time(12 * GIB, "cpu0", "gpu0")
        assert seconds == pytest.approx(1.0, rel=0.05)

    def test_unknown_device(self, topology):
        with pytest.raises(UnknownDeviceError):
            topology.device("tpu0")
        with pytest.raises(UnknownDeviceError):
            topology.route("cpu0", "tpu0")

    def test_device_groups(self, topology):
        gpus = topology.group(DeviceKind.GPU)
        assert len(gpus) == 2
        assert gpus.aggregate_memory_bytes == 16 * GIB
        assert gpus.kind is DeviceKind.GPU

    def test_describe_mentions_every_device(self, topology):
        text = topology.describe()
        for name in ("cpu0", "cpu1", "gpu0", "gpu1", "pcie0", "pcie1"):
            assert name in text

    def test_variants(self):
        assert len(single_gpu_server().gpus()) == 1
        assert cpu_only_server().gpus() == ()
        with pytest.raises(ValueError):
            default_server(num_cpus=0)


class TestTransfersAndReset:
    def test_transfers_on_one_link_serialize(self, topology):
        route = topology.route("cpu0", "gpu0")
        first = route.transfer(GIB)
        second = route.transfer(GIB)
        assert second > first
        assert topology.link("pcie0").bytes_moved == 2 * GIB

    def test_transfers_on_distinct_links_overlap(self, topology):
        end0 = topology.route("cpu0", "gpu0").transfer(GIB)
        end1 = topology.route("cpu1", "gpu1").transfer(GIB)
        # Both finish at (roughly) the same simulated time: no serialization.
        assert end0 == pytest.approx(end1, rel=0.01)

    def test_reset_clears_clocks_and_memory(self, topology):
        gpu = topology.device("gpu0")
        gpu.allocate(GIB)
        topology.route("cpu0", "gpu0").transfer(GIB)
        gpu.charge(1.0)
        topology.reset()
        assert gpu.memory.used_bytes == 0
        assert gpu.clock.busy_time == 0.0
        assert topology.timeline().makespan == 0.0

    def test_no_route_in_disconnected_topology(self):
        topology = Topology()
        topology.add_device(xeon_e5_2650l_v3("cpu0"))
        topology.add_device(gtx_1080("gpu0"))
        with pytest.raises(NoRouteError):
            topology.route("cpu0", "gpu0")

    def test_duplicate_names_rejected(self):
        topology = Topology()
        topology.add_device(xeon_e5_2650l_v3("cpu0"))
        with pytest.raises(ValueError):
            topology.add_device(xeon_e5_2650l_v3("cpu0"))
        topology.add_device(gtx_1080("gpu0"))
        topology.connect("cpu0", "gpu0", LinkSpec("pcie0", 12.0, 10.0))
        with pytest.raises(ValueError):
            topology.connect("cpu0", "gpu0", LinkSpec("pcie0", 12.0, 10.0))

    def test_timeline_contains_devices_and_links(self, topology):
        timeline = topology.timeline()
        assert "cpu0" in timeline
        assert "pcie1" in timeline
