"""The Table I rows: FHE operations per DL parallel unit.

Paper Table I decomposes every DL parallel unit into counts of four FHE
operations; those rows are reproduced here as level-unbound
:class:`repro.ir.OpTrace` constants.  Schedulers bind a step's level
with :meth:`~repro.ir.OpTrace.at_level` and hand the trace to
:meth:`repro.cost.OpCostModel.lower`.  The constants are shared: never
update them in place.
"""

from __future__ import annotations

from repro.ir import OpTrace

__all__ = [
    "CONVBN_UNIT",
    "POOLING_UNIT",
    "FC_UNIT",
    "PCMM_UNIT",
    "CCMM_UNIT",
    "NONLINEAR_UNIT",
]


def _row(**counts):
    """A level-unbound trace of ``op_name=count`` entries."""
    return OpTrace([((op, None), count) for op, count in counts.items()])


#: Table I, ConvBN row: 8 Rotations, 2 PMults, 7 HAdds per kernel unit.
CONVBN_UNIT = _row(rotation=8, pmult=2, hadd=7)

#: Table I, Pooling row: 2 Rotations, 1 PMult.
POOLING_UNIT = _row(rotation=2, pmult=1)

#: Table I, FC row: 1 Rotation, 1 PMult.
FC_UNIT = _row(rotation=1, pmult=1)

#: Table I, PCMM row: 1 Rotation, 1 PMult.
PCMM_UNIT = _row(rotation=1, pmult=1)

#: Table I, CCMM row: 7 Rotations, 1 CMult, 1 PMult, 6 HAdds.
CCMM_UNIT = _row(rotation=7, cmult=1, pmult=1, hadd=6)

#: Table I, Non-linear row: 8 CMults, 15 HAdds per polynomial evaluation.
NONLINEAR_UNIT = _row(cmult=8, hadd=15)
