"""Poseidon baseline ([19]): the other SOTA single-FPGA accelerator."""

from __future__ import annotations

from repro.hw.card import POSEIDON_CARD
from repro.hw.cluster import ClusterSpec, NetworkSpec

__all__ = ["POSEIDON"]

#: Poseidon is a single-card design (no scale-out support).
POSEIDON = ClusterSpec(
    name="Poseidon",
    servers=1,
    cards_per_server=1,
    card=POSEIDON_CARD,
    network=NetworkSpec(),
    fabric="none",
)

