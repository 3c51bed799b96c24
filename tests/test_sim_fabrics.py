"""Unit tests for the interconnect fabric models."""

import pytest

from repro.hw import fab_cluster, hydra_cluster
from repro.sim.fabrics import (
    FabHostFabric,
    HydraSwitchFabric,
    NullFabric,
    build_fabric,
)


@pytest.fixture()
def hydra_fabric():
    return HydraSwitchFabric(hydra_cluster(2, 4))


@pytest.fixture()
def fab_fabric():
    return FabHostFabric(fab_cluster(8))


class TestBuildFabric:
    def test_dispatch(self):
        assert isinstance(build_fabric(hydra_cluster(1, 1)), NullFabric)
        assert isinstance(build_fabric(hydra_cluster(1, 4)),
                          HydraSwitchFabric)
        assert isinstance(build_fabric(fab_cluster(4)), FabHostFabric)

    def test_switch_fabric_requires_dtu(self):
        from repro.hw import FAB_CARD
        from repro.hw.cluster import ClusterSpec, NetworkSpec
        bad = ClusterSpec(name="bad", servers=1, cards_per_server=4,
                          card=FAB_CARD, network=NetworkSpec(),
                          fabric="hydra-switch")
        with pytest.raises(ValueError):
            HydraSwitchFabric(bad)


class TestNullFabric:
    def test_transfers_rejected(self):
        f = NullFabric()
        with pytest.raises(RuntimeError):
            f.unicast(0, 1, 100, 0.0)
        with pytest.raises(RuntimeError):
            f.broadcast(0, [1], 100, 0.0)


class TestHydraSwitchFabric:
    def test_unicast_bandwidth(self, hydra_fabric):
        size = 12.5e9  # exactly one second at QSFP line rate
        release, deliveries = hydra_fabric.unicast(0, 1, size, 0.0)
        assert release == pytest.approx(1.0)
        assert deliveries[1] == pytest.approx(
            1.0 + hydra_fabric._intra_latency, rel=1e-6
        )

    def test_inter_server_latency(self, hydra_fabric):
        # Cards 0 and 4 are on different servers (2 servers x 4 cards).
        _, near = hydra_fabric.unicast(0, 1, 1000, 0.0)
        hydra_fabric.reset()
        _, far = hydra_fabric.unicast(0, 4, 1000, 0.0)
        assert far[4] > near[1]

    def test_tx_port_serializes(self, hydra_fabric):
        _, first = hydra_fabric.unicast(0, 1, 12.5e9, 0.0)
        release2, second = hydra_fabric.unicast(0, 2, 12.5e9, 0.0)
        assert release2 >= 2.0  # queued behind the first send

    def test_rx_ports_parallel_in_broadcast(self, hydra_fabric):
        _, deliveries = hydra_fabric.broadcast(0, [1, 2, 3], 12.5e9, 0.0)
        times = sorted(deliveries.values())
        # All same-server receivers complete ~together (switch replicates).
        assert times[-1] - times[0] < 0.2

    def test_reset_clears_occupancy(self, hydra_fabric):
        hydra_fabric.unicast(0, 1, 12.5e9, 0.0)
        hydra_fabric.reset()
        release, _ = hydra_fabric.unicast(0, 1, 12.5e9, 0.0)
        assert release == pytest.approx(1.0)


class TestFabHostFabric:
    def test_paired_cards_bypass_hosts(self, fab_fabric):
        release, deliveries = fab_fabric.unicast(0, 1, 1e6, 0.0)
        assert deliveries[1] < 1e-3  # direct pair link

    def test_unpaired_path_is_slow(self, fab_fabric):
        size = 25e6  # one ciphertext
        _, paired = fab_fabric.unicast(0, 1, size, 0.0)
        fab_fabric.reset()
        _, hosted = fab_fabric.unicast(0, 3, size, 0.0)
        assert hosted[3] > 5 * paired[1]

    def test_sender_releases_after_pcie(self, fab_fabric):
        size = 25e6
        release, deliveries = fab_fabric.unicast(0, 3, size, 0.0)
        assert release < deliveries[3]  # host buffers the LAN hop

    def test_lan_tx_serializes_broadcast(self, fab_fabric):
        size = 25e6
        _, deliveries = fab_fabric.broadcast(
            0, [2, 3, 4, 5, 6, 7], size, 0.0
        )
        times = sorted(deliveries.values())
        lan_time = size / 1.25e9
        # Sequential copies on the source host's LAN TX port.
        assert times[-1] - times[0] > 3 * lan_time

    def test_broadcast_includes_pair_peer_fast(self, fab_fabric):
        _, deliveries = fab_fabric.broadcast(0, [1, 2], 25e6, 0.0)
        assert deliveries[1] < deliveries[2]

    def test_lan_rx_serializes_senders_to_one_host(self, fab_fabric):
        # Cards 0 and 2 (hosts 0 and 1) each send to card 4 (host 2) at
        # once: their TX hops overlap, but host 2's LAN RX port takes
        # the copies one after the other, so the second PCIe-down hop
        # starts one wire time after the first.
        size = 25e6
        _, first = fab_fabric.unicast(0, 4, size, 0.0)
        _, second = fab_fabric.unicast(2, 4, size, 0.0)
        wire = size / fab_fabric._lan_rx[2].bandwidth
        assert second[4] - first[4] == pytest.approx(wire)
