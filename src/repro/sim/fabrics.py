"""Interconnect fabrics: how bytes actually move between cards.

A fabric turns "send ``size`` bytes from card ``src`` to card ``dst``
starting at time ``t``" into occupied resources and a delivery time.
Resources (NIC ports, PCIe links, the shared LAN) are serially reusable:
each tracks the time it next becomes free.

* :class:`HydraSwitchFabric` — paper Fig. 4: every card's DTU talks to a
  cut-through switch; point-to-point and true broadcast; inter-server hops
  cross a second switch tier with higher latency.
* :class:`FabHostFabric` — paper Section II-B: cards are paired for direct
  P2P; everything else is FPGA → host (PCIe) → host (LAN) → FPGA (PCIe)
  with host store-and-forward, and the 10 Gb/s LAN is a shared medium.
"""

from __future__ import annotations

__all__ = ["HydraSwitchFabric", "FabHostFabric", "NullFabric", "build_fabric"]


class _Resource:
    """A serially-reusable link with bandwidth and per-use latency."""

    __slots__ = ("bandwidth", "latency", "free_at")

    def __init__(self, bandwidth, latency):
        self.bandwidth = bandwidth
        self.latency = latency
        self.free_at = 0.0

    def occupy(self, size, earliest):
        """Occupy for a ``size``-byte transfer; returns (start, end)."""
        start = max(earliest, self.free_at)
        end = start + (self.latency + size / self.bandwidth)
        self.free_at = end
        return start, end


class NullFabric:
    """Single-card deployments: any transfer is a scheduling bug."""

    def reset(self):
        pass

    def unicast(self, src, dst, size, start):
        raise RuntimeError(
            "single-card cluster cannot transfer data between cards"
        )

    def broadcast(self, src, dsts, size, start):
        raise RuntimeError(
            "single-card cluster cannot broadcast data"
        )


class HydraSwitchFabric:
    """DTU + switch fabric with P2P and broadcast (paper Section IV-B)."""

    def __init__(self, cluster):
        self.cluster = cluster
        net = cluster.network
        bw = cluster.card.dtu_bandwidth
        if bw <= 0:
            raise ValueError(
                f"card {cluster.card.name!r} has no DTU; cannot build the "
                f"switch fabric"
            )
        n = cluster.total_cards
        self._bandwidth = bw
        self._tx = [_Resource(bw, 0.0) for _ in range(n)]
        self._rx = [_Resource(bw, 0.0) for _ in range(n)]
        self._intra_latency = net.intra_server_latency
        self._inter_latency = net.inter_server_latency
        # Switch latency per (src, dst): one server tier or two.
        per_server = cluster.cards_per_server
        self._latency = [
            [self._intra_latency if src // per_server == dst // per_server
             else self._inter_latency for dst in range(n)]
            for src in range(n)
        ]

    def reset(self):
        for r in self._tx + self._rx:
            r.free_at = 0.0

    def unicast(self, src, dst, size, start):
        """Returns (sender_release, {dst: delivery_time})."""
        _, tx_end = self._tx[src].occupy(size, start)
        return tx_end, self._receive(src, (dst,), size, tx_end)

    def broadcast(self, src, dsts, size, start):
        """One TX occupation; the switch replicates to every receiver."""
        _, tx_end = self._tx[src].occupy(size, start)
        return tx_end, self._receive(src, dsts, size, tx_end)

    def _receive(self, src, dsts, size, tx_end):
        """Cut-through into each receiver's RX port: the last byte lands
        one switch latency after it left, or when the port drains."""
        wire = size / self._bandwidth
        latency = self._latency[src]
        rx = self._rx
        deliveries = {}
        for dst in dsts:
            # rx[dst].occupy(size, arrival - wire) and max(), inlined:
            # this loop runs once per receiver of every broadcast.
            port = rx[dst]
            arrival = tx_end + latency[dst]
            earliest = arrival - wire
            free_at = port.free_at
            end = (free_at if free_at > earliest else earliest) + wire
            port.free_at = end
            deliveries[dst] = arrival if arrival > end else end
        return deliveries


class FabHostFabric:
    """FAB's host-mediated fabric (paper Sections II-B and V-D).

    Cards ``2i`` and ``2i+1`` share one host and form a directly-connected
    pair (FAB pairs FPGAs for P2P via network).  All other traffic is
    store-and-forward through the hosts: PCIe up → the source host's LAN
    TX port → the destination host's LAN RX port → PCIe down, plus host
    forwarding latency on each hop.  Each host's 10 Gb/s NIC is duplex,
    but replication for one-to-many patterns serializes on the source
    host's TX port — the architectural weakness paper Fig. 8 measures.
    """

    def __init__(self, cluster):
        self.cluster = cluster
        net = cluster.network
        card = cluster.card
        n = cluster.total_cards
        hosts = (n + 1) // 2
        self._pair_link = [_Resource(net.intra_server_bandwidth,
                                     net.intra_server_latency)
                           for _ in range(hosts)]
        self._pcie = [_Resource(card.pcie_bandwidth, net.pcie_latency)
                      for _ in range(n)]
        self._lan_tx = [_Resource(net.lan_bandwidth, net.lan_latency)
                        for _ in range(hosts)]
        self._lan_rx = [_Resource(net.lan_bandwidth, 0.0)
                        for _ in range(hosts)]
        self._host_latency = net.host_forward_latency

    def reset(self):
        for r in (self._pair_link + self._pcie + self._lan_tx
                  + self._lan_rx):
            r.free_at = 0.0

    def _via_hosts(self, src, dsts, size, when):
        """Store-and-forward from the source host to each receiver in
        turn: its LAN TX port → the receiver host's LAN RX port → PCIe
        down, each hop one occupation."""
        tx = self._lan_tx[src // 2]
        tx_cost = tx.latency + size / tx.bandwidth
        host_latency = self._host_latency
        lan_rx = self._lan_rx
        pcie = self._pcie
        deliveries = {}
        for dst in dsts:
            # _Resource.occupy and max() inlined: this loop runs once
            # per receiver of every broadcast.
            free_at = tx.free_at
            tx_end = (free_at if free_at > when else when) + tx_cost
            tx.free_at = tx_end
            # Cut-through into the receiver NIC where possible.
            rx = lan_rx[dst // 2]
            wire = size / rx.bandwidth
            earliest = tx_end - wire
            free_at = rx.free_at
            rx_end = ((free_at if free_at > earliest else earliest)
                      + (rx.latency + wire))
            rx.free_at = rx_end
            down = pcie[dst]
            earliest = (rx_end if rx_end > tx_end else tx_end) + host_latency
            free_at = down.free_at
            down_end = ((free_at if free_at > earliest else earliest)
                        + (down.latency + size / down.bandwidth))
            down.free_at = down_end
            deliveries[dst] = down_end
        return deliveries

    def unicast(self, src, dst, size, start):
        host = src // 2
        if dst // 2 == host:
            _, end = self._pair_link[host].occupy(size, start)
            return end, {dst: end}
        # FPGA -> host over src PCIe (sender releases after this hop).
        _, up_end = self._pcie[src].occupy(size, start)
        return up_end, self._via_hosts(src, (dst,), size,
                                       up_end + self._host_latency)

    def broadcast(self, src, dsts, size, start):
        """No hardware broadcast: the source host replicates per receiver."""
        _, up_end = self._pcie[src].occupy(size, start)
        host = src // 2
        remote = []
        pair_peer = None
        for dst in dsts:
            if dst // 2 == host:
                pair_peer = dst
            else:
                remote.append(dst)
        deliveries = self._via_hosts(src, remote, size,
                                     up_end + self._host_latency)
        if pair_peer is not None:
            _, end = self._pair_link[host].occupy(size, start)
            deliveries[pair_peer] = end
            up_end = max(up_end, end)
        return up_end, deliveries


def build_fabric(cluster):
    """Instantiate the fabric named by ``cluster.fabric``."""
    if cluster.fabric == "none":
        return NullFabric()
    if cluster.fabric == "hydra-switch":
        return HydraSwitchFabric(cluster)
    if cluster.fabric == "fab-host":
        return FabHostFabric(cluster)
    raise ValueError(f"unknown fabric {cluster.fabric!r}")
