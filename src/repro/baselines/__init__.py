"""Baseline accelerators the paper compares against.

* **FAB** (FPGA, [18]): same simulator, FAB card model (no MAD-style
  scratchpad reuse) and the host-mediated PCIe + LAN fabric.  FAB-M and
  FAB-L run Hydra's task mapping, exactly as the paper does for a fair
  architecture comparison (Section V-B).
* **Poseidon** (FPGA, [19]): single-card, radix-8 NTT and weaker caching.
* **ASIC reference points** (CraterLake, BTS, ARK, SHARP): published
  runtime and EDAP numbers from the paper's Tables II-III.
"""

from repro.baselines.asic import ASIC_ACCELERATORS, asic_runtime, asic_edap
from repro.baselines.fab import FAB_L, FAB_M, FAB_S
from repro.baselines.poseidon import POSEIDON

__all__ = [
    "ASIC_ACCELERATORS",
    "FAB_L",
    "FAB_M",
    "FAB_S",
    "POSEIDON",
    "asic_edap",
    "asic_runtime",
]
