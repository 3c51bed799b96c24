"""Operation cost and energy models at the paper's FHE parameters.

The scheduler (:mod:`repro.sched`) plans in terms of FHE operations
(Rotation, CMult, PMult, HAdd, Rescale — the vocabulary of paper Table I);
this package prices each of them on a given :class:`repro.hw.CardSpec` by
decomposing into NTT / MM / MA / Automorphism compute-unit passes plus HBM
traffic, and converts the same decomposition into energy (Fig. 7) and
EDAP (Table III).
"""

from repro.cost.calibration import Calibration, DEFAULT_CALIBRATION
from repro.cost.edap import EdapModel, PUBLISHED_ASIC_EDAP
from repro.cost.energy import EnergyAccumulator, EnergyModel
from repro.cost.model import OpComponents, OpCostModel
from repro.cost.ops import (
    CCMM_UNIT,
    CONVBN_UNIT,
    FC_UNIT,
    NONLINEAR_UNIT,
    PCMM_UNIT,
    POOLING_UNIT,
)

__all__ = [
    "CCMM_UNIT",
    "CONVBN_UNIT",
    "Calibration",
    "DEFAULT_CALIBRATION",
    "EdapModel",
    "EnergyAccumulator",
    "EnergyModel",
    "FC_UNIT",
    "NONLINEAR_UNIT",
    "OpComponents",
    "OpCostModel",
    "PCMM_UNIT",
    "POOLING_UNIT",
    "PUBLISHED_ASIC_EDAP",
]
