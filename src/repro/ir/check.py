"""Executed-vs-modeled op-count cross-validation.

The reproduction's central assumption is that the analytic op arithmetic
the scheduler plans with (the Table I rows, the Eq.-1 BSGS decomposition,
the Algorithm-1 polynomial tree) counts the same operations the
functional CKKS layer actually executes.  This module makes that an
invariant that can be checked mechanically:

* the **modeled** side is a set of closed-form trace builders that
  predict, from layer *parameters only* (kernel taps, matrix diagonal
  structure, polynomial coefficients), exactly which FHE operations the
  implementation will perform — the scheduler's op arithmetic, refined
  to the implementation's documented exactness rules (identity rotations
  are free; see DESIGN.md "Op IR and cross-validation");
* the **executed** side is an :class:`~repro.ir.OpTrace` captured with
  :func:`~repro.ir.collect_ops` around the real homomorphic computation;
* :func:`compare_traces` diffs the two per op, against a per-op
  tolerance policy (default: exact).

``repro validate-ops`` drives this over a fixed tiny workload set; see
:mod:`repro.ir.validate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.ops import CANONICAL_ORDER, FheOp, coerce_op
from repro.ir.trace import OpTrace

__all__ = [
    "OpDiff",
    "TraceComparison",
    "compare_traces",
    "modeled_conv_trace",
    "modeled_bsgs_trace",
    "modeled_polyeval_trace",
    "modeled_coeff_to_slot_trace",
]

#: Default tolerance policy: every op must match exactly.  Callers pass
#: ``{op: abs_tolerance}`` overrides; the policy for the validation
#: suite is documented per-op in DESIGN.md.
EXACT = 0.0


@dataclass(frozen=True)
class OpDiff:
    """One op's executed-vs-modeled comparison row."""

    op: str
    executed: float
    modeled: float
    tolerance: float = EXACT

    @property
    def delta(self):
        return self.executed - self.modeled

    @property
    def ok(self):
        return abs(self.delta) <= self.tolerance

    def to_dict(self):
        return {
            "op": self.op,
            "executed": self.executed,
            "modeled": self.modeled,
            "delta": self.delta,
            "tolerance": self.tolerance,
            "ok": self.ok,
        }


@dataclass
class TraceComparison:
    """All per-op rows for one validated workload."""

    name: str
    rows: list = field(default_factory=list)

    @property
    def ok(self):
        return all(row.ok for row in self.rows)

    @property
    def failures(self):
        return [row for row in self.rows if not row.ok]

    def to_dict(self):
        return {
            "name": self.name,
            "ok": self.ok,
            "rows": [row.to_dict() for row in self.rows],
        }

    def render(self):
        lines = [f"{self.name}: {'OK' if self.ok else 'DIVERGED'}"]
        for row in self.rows:
            mark = "  " if row.ok else "!!"
            lines.append(
                f"  {mark} {row.op:12s} executed={row.executed:g} "
                f"modeled={row.modeled:g} delta={row.delta:+g}"
            )
        return "\n".join(lines)


def compare_traces(name, executed, modeled, tolerances=None):
    """Diff two traces per op (levels aggregated).

    ``tolerances`` maps op (name or :class:`FheOp`) to an absolute count
    tolerance; missing ops are compared exactly.  Every op present in
    either trace produces a row, so a spurious executed op (or a modeled
    op that never ran) always surfaces.
    """
    tol = {}
    for op, value in (tolerances or {}).items():
        tol[coerce_op(op)] = float(value)
    exec_totals = executed.totals()
    model_totals = modeled.totals()
    rows = []
    for op in CANONICAL_ORDER:
        e = exec_totals.get(op.value, 0)
        m = model_totals.get(op.value, 0)
        if e == 0 and m == 0 and op not in tol:
            continue
        rows.append(OpDiff(op=op.value, executed=e, modeled=m,
                           tolerance=tol.get(op, EXACT)))
    return TraceComparison(name=name, rows=rows)


# ----------------------------------------------------------------------
# Modeled trace builders (closed-form op arithmetic)
# ----------------------------------------------------------------------


def modeled_conv_trace(taps, slot_count, level=None, bias=False):
    """Op arithmetic of one packed 2-D convolution (the ConvBN kernel).

    ``taps`` is the list of ``(slot_offset, weight)`` pairs with nonzero
    weight (the structure :class:`repro.ckks.Conv2d` extracts from the
    plaintext kernel).  Per tap: one PMult and, for every offset that is
    not a multiple of the slot count, one Rotation (+ its Keyswitch);
    the tap accumulation is ``taps - 1`` HAdds; one final Rescale.  The
    bias fold is a plaintext addition, which the evaluator does not
    count as an HAdd (it touches one polynomial, not two).
    """
    rotations = sum(1 for off, _ in taps if off % slot_count != 0)
    n_taps = len(taps)
    trace = OpTrace()
    trace.record(FheOp.ROTATION, rotations, level=level)
    trace.record(FheOp.KEYSWITCH, rotations, level=level)
    trace.record(FheOp.PMULT, n_taps, level=level)
    trace.record(FheOp.HADD, n_taps - 1, level=level)
    trace.record(FheOp.RESCALE, 1, level=level)
    del bias  # documented: bias is an add_plain, never an HAdd
    return trace


def modeled_bsgs_trace(diagonal_indices, baby_steps, slot_count,
                       level=None, rescale=False):
    """Op arithmetic of one BSGS matrix-vector product (Eq. 1 refined).

    Predicts, from the matrix's nonzero generalized-diagonal indices and
    the baby-step count ``bs``, the ops of
    :meth:`repro.ckks.LinearTransform.apply`:

    * one Rotation per distinct baby step ``d mod bs`` that is not the
      identity (Eq. 1 charges all ``bs``; the implementation's identity
      baby step is free — the documented refinement);
    * per giant step: one PMult per member diagonal, ``members - 1``
      HAdds, and one Rotation unless the giant offset is the identity;
    * ``giants - 1`` HAdds folding the giant-step partial sums.
    """
    bs = int(baby_steps)
    diagonals = sorted(set(int(d) for d in diagonal_indices))
    if not diagonals:
        raise ValueError("matrix has no nonzero diagonals")
    babies = {d % bs for d in diagonals}
    baby_rotations = sum(1 for b in babies if b % slot_count != 0)
    giants = {}
    for d in diagonals:
        giants.setdefault((d // bs) * bs, []).append(d)
    giant_rotations = sum(1 for g in giants if g % slot_count != 0)
    pmults = len(diagonals)
    hadds = sum(len(members) - 1 for members in giants.values())
    hadds += len(giants) - 1
    rotations = baby_rotations + giant_rotations
    trace = OpTrace()
    trace.record(FheOp.ROTATION, rotations, level=level)
    trace.record(FheOp.KEYSWITCH, rotations, level=level)
    trace.record(FheOp.PMULT, pmults, level=level)
    trace.record(FheOp.HADD, hadds, level=level)
    if rescale:
        trace.record(FheOp.RESCALE, 1, level=level)
    return trace


def _power_tree_nodes(exponents):
    """Distinct powers the binary product tree builds for ``exponents``."""
    built = set()

    def build(k):
        if k == 1 or k in built:
            return
        half = k // 2
        build(half)
        build(k - half)
        built.add(k)

    for k in exponents:
        build(k)
    return built


def modeled_polyeval_trace(coefficients, level=None):
    """Op arithmetic of :func:`repro.ckks.evaluate_polynomial`.

    From the coefficient vector alone: the binary power tree performs
    one CMult + Rescale per distinct composite power it builds (the
    Algorithm-1 structure); the linear combination is one PMult per
    nonzero non-constant coefficient and ``terms - 1`` HAdds, then one
    Rescale.  The constant term is an add_plain (not counted).
    """
    degree = len(coefficients) - 1
    nonzero = [k for k in range(1, degree + 1) if abs(coefficients[k]) > 0]
    if not nonzero:
        # Constant polynomial: one zeroing PMult + Rescale.
        trace = OpTrace()
        trace.record(FheOp.PMULT, 1, level=level)
        trace.record(FheOp.RESCALE, 1, level=level)
        return trace
    powers = _power_tree_nodes(nonzero)
    cmults = len(powers)
    trace = OpTrace()
    trace.record(FheOp.CMULT, cmults, level=level)
    trace.record(FheOp.KEYSWITCH, cmults, level=level)
    trace.record(FheOp.RESCALE, cmults + 1, level=level)
    trace.record(FheOp.PMULT, len(nonzero), level=level)
    trace.record(FheOp.HADD, len(nonzero) - 1, level=level)
    return trace


def modeled_coeff_to_slot_trace(transforms, slot_count, level=None):
    """Op arithmetic of one CoeffToSlot bootstrap stage.

    ``transforms`` is the ``(direct, conjugate_side)`` pair of
    :class:`~repro.ckks.LinearTransform` objects (either may be None —
    the toy packing's conjugate side vanishes identically).  The stage
    is each present transform's BSGS matvec, one Conjugate (+Keyswitch)
    if the conjugate side is present, one HAdd combining the two sides,
    and the stage's final Rescale.
    """
    direct, conj_side = transforms
    present = [t for t in (direct, conj_side) if t is not None]
    if not present:
        raise ValueError("stage has no transforms")
    trace = OpTrace()
    for t in present:
        trace.update(modeled_bsgs_trace(
            t.diagonal_indices, t.baby_steps, slot_count, level=level,
        ))
    if conj_side is not None:
        trace.record(FheOp.CONJUGATE, 1, level=level)
        trace.record(FheOp.KEYSWITCH, 1, level=level)
        if direct is not None:
            trace.record(FheOp.HADD, 1, level=level)
    trace.record(FheOp.RESCALE, 1, level=level)
    return trace
