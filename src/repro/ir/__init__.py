"""The shared FHE-op intermediate representation.

One typed vocabulary (:class:`FheOp`) and one counting currency
(:class:`OpTrace`) for every layer that accounts for FHE operations:

* the functional CKKS evaluator *records* executed ops through
  :func:`record_op` (captured with :func:`collect_ops`);
* the scheduler *constructs* modeled traces per mapped task
  (the Table I rows in :mod:`repro.cost.ops` are traces too);
* the cost model *lowers* traces into hardware-time components
  (:meth:`repro.cost.OpCostModel.lower`);
* the simulator *aggregates* traces per card
  (``SimResult.node_ops``).

:mod:`repro.ir.check` and :mod:`repro.ir.validate` cross-validate the
two sides — executed vs modeled — and back the ``repro validate-ops``
CLI command.
"""

from repro.ir.check import (
    OpDiff,
    TraceComparison,
    compare_traces,
    modeled_bsgs_trace,
    modeled_coeff_to_slot_trace,
    modeled_conv_trace,
    modeled_polyeval_trace,
)
from repro.ir.ops import CANONICAL_ORDER, FheOp, coerce_op, order_index
from repro.ir.trace import OpTrace, collect_ops, record_op

__all__ = [
    "CANONICAL_ORDER",
    "FheOp",
    "OpDiff",
    "OpTrace",
    "TraceComparison",
    "coerce_op",
    "collect_ops",
    "compare_traces",
    "modeled_bsgs_trace",
    "modeled_coeff_to_slot_trace",
    "modeled_conv_trace",
    "modeled_polyeval_trace",
    "order_index",
    "record_op",
]
