"""FPGA accelerator card models.

A card (paper Fig. 4) contains four compute units — NTT, Modular
Multiplication (MM), Modular Addition (MA), and Automorphism — each
processing 512 operands per cycle from its input buffer, an HBM + BRAM/URAM
scratchpad memory system, and a Data Transfer Unit (DTU: NIC hardcore + DMA
+ control) for card-to-card communication.

Baseline cards (FAB, Poseidon) differ along the two axes the paper calls
out in Section V-B:

* **scratchpad reuse** — Hydra adopts MAD-style on-chip caching, serving a
  large fraction of operand traffic from BRAM; Poseidon "has no efficient
  caching strategy, requiring frequent access to HBM"; FAB is further
  penalized by its datapath (the paper measures Hydra-S at 2.8–3.1x FAB-S
  and ~1.3x Poseidon).
* **DTU presence** — only Hydra cards carry a DTU; FAB cards communicate
  through the host (PCIe + LAN), modeled by the fabric in
  :mod:`repro.sim.fabrics`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["CardSpec", "HYDRA_CARD", "FAB_CARD", "POSEIDON_CARD"]

GiB = 1024 ** 3


@dataclass(frozen=True)
class CardSpec:
    """Static description of one FPGA accelerator card.

    Attributes
    ----------
    name:
        Human-readable identifier.
    frequency_hz:
        Kernel clock of the compute units.
    lanes:
        Operands entering each compute unit per cycle (paper: 512).
    ntt_stage_passes:
        Number of full-polynomial passes one NTT needs.  With radix ``r``
        this is ``log_r(N)``; Hydra uses radix-4 at ``N = 2**16`` → 8
        passes; Poseidon's radix-8 design fits ``2**24`` better than
        ``2**16`` (paper Section IV-B) and wastes part of a pass.
    pipeline_efficiency:
        Fraction of peak throughput the CU datapath sustains (fill/drain
        bubbles, bank conflicts).
    hbm_bandwidth:
        Peak HBM bandwidth in bytes/s (Alveo U280: 460 GB/s).
    hbm_efficiency:
        Achievable fraction of peak for FHE access patterns.
    scratchpad_bytes:
        On-chip BRAM+URAM capacity available for operand caching.
    scratchpad_reuse:
        Fraction of operand traffic served on-chip instead of from HBM
        (the MAD optimization).  0.0 = every operand round-trips to HBM.
    dtu_bandwidth:
        NIC line rate in bytes/s (100 Gb/s QSFP28 → 12.5 GB/s), 0 if the
        card has no DTU.
    pcie_bandwidth:
        Host link bandwidth in bytes/s (Gen3 x16 → 16 GB/s).
    board_power_w:
        Board-level power budget used by the energy model's static share.
    """

    name: str
    frequency_hz: float = 300e6
    lanes: int = 512
    ntt_stage_passes: int = 8
    pipeline_efficiency: float = 0.85
    hbm_bandwidth: float = 460e9
    hbm_efficiency: float = 0.65
    scratchpad_bytes: int = 40 * 1024 * 1024
    scratchpad_reuse: float = 0.70
    dtu_bandwidth: float = 12.5e9
    pcie_bandwidth: float = 16e9
    board_power_w: float = 160.0

    def __post_init__(self):
        if not 0.0 <= self.scratchpad_reuse < 1.0:
            raise ValueError(
                f"scratchpad_reuse must be in [0, 1), got {self.scratchpad_reuse}"
            )
        if self.lanes <= 0 or self.frequency_hz <= 0:
            raise ValueError("lanes and frequency must be positive")

    @property
    def effective_hbm_bandwidth(self):
        """Bytes/s of HBM traffic the card can actually sustain."""
        return self.hbm_bandwidth * self.hbm_efficiency

    def without_dtu(self):
        """A copy of this card with no DTU (the Hydra-S configuration)."""
        return replace(self, name=self.name + "-nodtu", dtu_bandwidth=0.0)


#: Hydra's card: Alveo U280, radix-4 NTT, MAD-style scratchpad caching.
HYDRA_CARD = CardSpec(name="hydra-u280")

#: FAB's card: same board, no scratchpad reuse strategy and a less
#: efficient datapath; calibrated so FAB-S lands ~3x slower than Hydra-S
#: (paper Table II measures 2.8-3.2x across the four benchmarks).
FAB_CARD = CardSpec(
    name="fab-u280",
    pipeline_efficiency=0.80,
    hbm_efficiency=0.42,  # strided/uncoalesced access without MAD dataflow
    scratchpad_reuse=0.0,
    dtu_bandwidth=0.0,
)

#: Poseidon's card: radix-8 NTT (a mismatch at N=2**16, paper Section
#: IV-B) and no MAD caching; lands ~1.3x slower than Hydra-S.
POSEIDON_CARD = CardSpec(
    name="poseidon-u280",
    ntt_stage_passes=8,  # radix-8 pipeline wastes a partial pass at 2**16
    pipeline_efficiency=0.78,
    hbm_efficiency=0.65,
    scratchpad_reuse=0.50,
    dtu_bandwidth=0.0,
)
