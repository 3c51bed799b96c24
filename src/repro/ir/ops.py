"""The typed FHE operation vocabulary.

Every layer that counts operations — the functional CKKS evaluator, the
Table I rows the scheduler maps, the cost model, the simulator — speaks this
one enum.  The first five members are exactly the paper's Table I
vocabulary; the rest are the sub-operations the cost model decomposes
them into (a Rotation is an Automorphism plus a Keyswitch; a Keyswitch
internally NTTs and mod-downs), kept in the vocabulary so traces can be
refined without inventing new strings.
"""

from __future__ import annotations

from enum import Enum

__all__ = ["FheOp", "CANONICAL_ORDER", "coerce_op"]


class FheOp(Enum):
    """One FHE operation, as counted by op traces and cost models."""

    HADD = "hadd"
    PMULT = "pmult"
    CMULT = "cmult"
    RESCALE = "rescale"
    ROTATION = "rotation"
    CONJUGATE = "conjugate"
    KEYSWITCH = "keyswitch"
    AUTOMORPHISM = "automorphism"
    NTT = "ntt"
    MOD_DOWN = "mod_down"

    def __str__(self):
        return self.value


#: Deterministic lowering/iteration order.  The first five entries are
#: the Table I vocabulary in the order ``OpCostModel.lower()`` sums a
#: row's prices (rotation, cmult, pmult, hadd, rescale); float addition
#: is order-sensitive, and the plan pins depend on that order.
CANONICAL_ORDER = (
    FheOp.ROTATION,
    FheOp.CMULT,
    FheOp.PMULT,
    FheOp.HADD,
    FheOp.RESCALE,
    FheOp.CONJUGATE,
    FheOp.KEYSWITCH,
    FheOp.AUTOMORPHISM,
    FheOp.NTT,
    FheOp.MOD_DOWN,
)

_ORDER_INDEX = {op: i for i, op in enumerate(CANONICAL_ORDER)}

_BY_VALUE = {op.value: op for op in FheOp}


def coerce_op(op):
    """Normalize ``op`` (an :class:`FheOp` or its string value)."""
    if isinstance(op, FheOp):
        return op
    try:
        return _BY_VALUE[op]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown FHE operation {op!r}; known: "
            f"{', '.join(sorted(_BY_VALUE))}"
        ) from None


def order_index(op):
    """Position of ``op`` in :data:`CANONICAL_ORDER`."""
    return _ORDER_INDEX[op]
