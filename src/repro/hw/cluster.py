"""Network and cluster topology models.

Hydra (paper Fig. 4): servers interconnected by switches, each server
holding multiple FPGA cards also connected by a QSFP-based switch; cards
address each other by MAC and the DTU moves data without host involvement.

FAB's multi-card architecture (paper Section II-B): each FPGA hangs off a
host CPU over PCIe; FPGAs are paired point-to-point; anything else routes
FPGA → host (PCIe) → host (LAN) → FPGA (PCIe).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.card import CardSpec, FAB_CARD, HYDRA_CARD

__all__ = [
    "NetworkSpec",
    "ClusterSpec",
    "hydra_cluster",
    "fab_cluster",
    "HYDRA_S",
    "HYDRA_M",
    "HYDRA_L",
    "FAB_S",
    "FAB_M",
    "FAB_L",
]


@dataclass(frozen=True)
class NetworkSpec:
    """Link-level parameters of the interconnect."""

    intra_server_bandwidth: float = 12.5e9  # QSFP28 100 Gb/s per port
    intra_server_latency: float = 1.2e-6  # switch cut-through
    inter_server_bandwidth: float = 12.5e9
    inter_server_latency: float = 5.0e-6
    lan_bandwidth: float = 1.25e9  # 10 Gb/s host LAN (FAB assumption)
    lan_latency: float = 20e-6
    pcie_latency: float = 5e-6
    host_forward_latency: float = 25e-6  # host CPU store-and-forward cost
    supports_broadcast: bool = True


@dataclass(frozen=True)
class ClusterSpec:
    """A deployment: ``servers`` x ``cards_per_server`` homogeneous cards."""

    name: str
    servers: int
    cards_per_server: int
    card: CardSpec
    network: NetworkSpec
    fabric: str  # "hydra-switch" | "fab-host" | "none"

    def __post_init__(self):
        if self.servers < 1 or self.cards_per_server < 1:
            raise ValueError("servers and cards_per_server must be >= 1")
        if self.fabric not in ("hydra-switch", "fab-host", "none"):
            raise ValueError(f"unknown fabric {self.fabric!r}")
        if self.total_cards == 1 and self.fabric != "none":
            raise ValueError("single-card clusters must use fabric='none'")

    @property
    def total_cards(self):
        return self.servers * self.cards_per_server

    def server_of(self, card_index):
        """Server number hosting global card index ``card_index``."""
        if not 0 <= card_index < self.total_cards:
            raise ValueError(
                f"card index {card_index} out of range for {self.total_cards}"
            )
        return card_index // self.cards_per_server


def hydra_cluster(servers, cards_per_server, card=HYDRA_CARD,
                  network=None, name=None):
    """Build a Hydra deployment (switch fabric, DTU-equipped cards)."""
    network = network or NetworkSpec()
    total = servers * cards_per_server
    if name is None:
        name = f"hydra-{servers}x{cards_per_server}"
    if total == 1:
        return ClusterSpec(name=name, servers=1, cards_per_server=1,
                           card=card.without_dtu(), network=network,
                           fabric="none")
    return ClusterSpec(name=name, servers=servers,
                       cards_per_server=cards_per_server, card=card,
                       network=network, fabric="hydra-switch")


def fab_cluster(cards, card=FAB_CARD, network=None, name=None):
    """Build a FAB deployment (host-mediated fabric, paired P2P links).

    FAB's published architecture is single-server; its multi-card scaling
    hangs every card off host CPUs, so ``servers`` is fixed at 1 and the
    fabric handles PCIe/LAN hops.
    """
    network = network or NetworkSpec(supports_broadcast=False)
    if name is None:
        name = f"fab-{cards}"
    if cards == 1:
        return ClusterSpec(name=name, servers=1, cards_per_server=1,
                           card=card, network=network, fabric="none")
    return ClusterSpec(name=name, servers=1, cards_per_server=cards,
                       card=card, network=network, fabric="fab-host")


#: The paper's three Hydra prototypes (Section V-A).
HYDRA_S = hydra_cluster(1, 1, name="Hydra-S")
HYDRA_M = hydra_cluster(1, 8, name="Hydra-M")
HYDRA_L = hydra_cluster(8, 8, name="Hydra-L")

#: FAB comparison points: single card, 8 cards (FAB-M), 64 cards (FAB-L).
FAB_S = fab_cluster(1, name="FAB-S")
FAB_M = fab_cluster(8, name="FAB-M")
FAB_L = fab_cluster(64, name="FAB-L")
