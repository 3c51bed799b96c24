"""The CKKS evaluator: homomorphic arithmetic, keyswitching, rotations.

Every method returns new :class:`~repro.ckks.ciphertext.Ciphertext` objects
and validates scale/basis compatibility, mirroring the bookkeeping Hydra's
host scheduler performs before emitting task instructions.  The operation
vocabulary (HAdd, PMult, CMult, Rescale, Keyswitch, Rotation) is exactly
the one the paper's Table I counts.

Ring products run in evaluation (NTT) form.  Switch keys are cached there,
once per extended basis; a keyswitch transforms its digits in one stacked
pass, multiply-accumulates them pointwise against both key halves, and
inverse-transforms the two sums before the mod-down.  Rotations of one
ciphertext share a single digit decomposition of ``c1`` (Halevi–Shoup
hoisting), because in evaluation form ``X -> X**g`` is an index map that
commutes with the digit lift.  Every product is exact mod ``q``, so the
output bytes are those of the coefficient-domain algorithm.
"""

from __future__ import annotations

import math

import numpy as np

from repro.ckks.ciphertext import Ciphertext, Plaintext
from repro.ir import FheOp, record_op
from repro.obs.metrics import inc as _metric_inc
from repro.obs.metrics import observe as _metric_observe
from repro.poly import RnsPoly, automorphism_evaluation

__all__ = ["Evaluator"]

_SCALE_RTOL = 1e-6

#: Histogram buckets for post-rescale scale magnitudes, in log2 units.
#: CKKS scales live around ``2**40``; anything in the bottom bucket has
#: collapsed toward 1 and is about to lose the message to rounding.
_SCALE_LOG2_BUCKETS = tuple(float(b) for b in range(0, 121, 10))


class Evaluator:
    """Homomorphic operations over one :class:`~repro.ckks.CkksContext`."""

    def __init__(self, context):
        self.context = context
        # Switch keys projected onto extended bases in evaluation form,
        # keyed by (id(key), basis).  The key object itself is stored
        # alongside the projection so its id can never be recycled while
        # cached.
        self._switch_forms = {}

    # ------------------------------------------------------------------
    # Scale / basis plumbing
    # ------------------------------------------------------------------

    @staticmethod
    def _check_scales(a, b):
        if abs(a - b) > _SCALE_RTOL * max(a, b):
            raise ValueError(f"scale mismatch: {a} vs {b}")

    def _align(self, ct_a: Ciphertext, ct_b: Ciphertext):
        """Drop the higher-level ciphertext to the lower one's basis."""
        if len(ct_a.basis) > len(ct_b.basis):
            ct_a = self.drop_to_basis(ct_a, ct_b.basis)
        elif len(ct_b.basis) > len(ct_a.basis):
            ct_b = self.drop_to_basis(ct_b, ct_a.basis)
        if ct_a.basis != ct_b.basis:
            raise ValueError(
                f"incompatible bases {ct_a.basis} and {ct_b.basis}"
            )
        return ct_a, ct_b

    def drop_to_basis(self, ct: Ciphertext, basis) -> Ciphertext:
        """Mod-switch down to a sub-basis (no scale change)."""
        basis = tuple(basis)
        if not set(basis).issubset(ct.basis):
            raise ValueError(f"{basis} is not a sub-basis of {ct.basis}")
        return Ciphertext(
            c0=ct.c0.keep_basis(basis),
            c1=ct.c1.keep_basis(basis),
            scale=ct.scale,
        )

    def drop_to_level(self, ct: Ciphertext, level) -> Ciphertext:
        return self.drop_to_basis(ct, self.context.basis_at_level(level))

    # ------------------------------------------------------------------
    # Additive operations
    # ------------------------------------------------------------------

    def add(self, ct_a: Ciphertext, ct_b: Ciphertext) -> Ciphertext:
        """Homomorphic addition (paper op: HAdd)."""
        ct_a, ct_b = self._align(ct_a, ct_b)
        record_op(FheOp.HADD, level=ct_a.level)
        self._check_scales(ct_a.scale, ct_b.scale)
        return Ciphertext(
            c0=ct_a.c0.add(ct_b.c0),
            c1=ct_a.c1.add(ct_b.c1),
            scale=max(ct_a.scale, ct_b.scale),
        )

    def sub(self, ct_a: Ciphertext, ct_b: Ciphertext) -> Ciphertext:
        ct_a, ct_b = self._align(ct_a, ct_b)
        record_op(FheOp.HADD, level=ct_a.level)
        self._check_scales(ct_a.scale, ct_b.scale)
        return Ciphertext(
            c0=ct_a.c0.sub(ct_b.c0),
            c1=ct_a.c1.sub(ct_b.c1),
            scale=max(ct_a.scale, ct_b.scale),
        )

    def negate(self, ct: Ciphertext) -> Ciphertext:
        return Ciphertext(c0=ct.c0.negate(), c1=ct.c1.negate(), scale=ct.scale)

    def add_plain(self, ct: Ciphertext, pt: Plaintext) -> Ciphertext:
        """Add an encoded plaintext (scales must match)."""
        self._check_scales(ct.scale, pt.scale)
        poly = pt.poly
        if poly.basis != ct.basis:
            poly = poly.keep_basis(ct.basis)
        return Ciphertext(c0=ct.c0.add(poly), c1=ct.c1, scale=ct.scale)

    def add_const(self, ct: Ciphertext, value) -> Ciphertext:
        """Add a scalar constant to every slot."""
        pt = self._encode_at(value, ct.scale, ct.basis)
        return self.add_plain(ct, pt)

    # ------------------------------------------------------------------
    # Multiplicative operations
    # ------------------------------------------------------------------

    def multiply_plain(self, ct: Ciphertext, pt: Plaintext) -> Ciphertext:
        """Plaintext-ciphertext multiplication (paper op: PMult)."""
        poly = pt.poly
        if poly.basis != ct.basis:
            poly = poly.keep_basis(ct.basis)
        plain = self.context.rns.ntt_forward(poly.data[None], ct.basis)
        return self.multiply_plain_sums(
            [(self.to_evaluation([ct]), plain)],
            ct.basis, ct.scale * pt.scale)[0]

    def multiply_const(self, ct: Ciphertext, value, scale=None) -> Ciphertext:
        """Multiply every slot by a scalar constant (PMult by a constant)."""
        if scale is None:
            scale = self.context.params.scale
        pt = self._encode_at(value, scale, ct.basis)
        return self.multiply_plain(ct, pt)

    def multiply(self, ct_a, ct_b, relin_key) -> Ciphertext:
        """Ciphertext-ciphertext multiplication with relinearization (CMult).

        Each operand is transformed once (one pass for a square), and the
        three tensor components share one inverse pass.
        """
        ct_a, ct_b = self._align(ct_a, ct_b)
        record_op(FheOp.CMULT, level=ct_a.level)
        rns = self.context.rns
        basis = ct_a.basis
        if ct_b is ct_a:
            a0, a1 = b0, b1 = self.to_evaluation([ct_a])[0]
        else:
            (a0, a1), (b0, b1) = self.to_evaluation([ct_a, ct_b])
        q = rns.moduli_column(basis)
        cross = a0 * b1 % q + a1 * b0 % q
        d0, d1, d2 = rns.ntt_inverse(
            np.stack([a0 * b0 % q, np.minimum(cross, cross - q),
                      a1 * b1 % q]), basis)
        p0, p1 = self._key_switch(self._digits(d2, basis), relin_key, basis)
        return Ciphertext(
            c0=RnsPoly(rns, d0, basis).add(p0),
            c1=RnsPoly(rns, d1, basis).add(p1),
            scale=ct_a.scale * ct_b.scale,
        )

    def square(self, ct, relin_key) -> Ciphertext:
        """Homomorphic squaring (a CMult with shared operand)."""
        return self.multiply(ct, ct, relin_key)

    def rescale(self, ct: Ciphertext) -> Ciphertext:
        """Divide by the last modulus, dropping one level (Rescale).

        Noise-budget telemetry: every rescale observes the *resulting*
        scale (log2) into ``ckks.rescale.scale_log2`` and bumps
        ``ckks.scale.underflow`` when the scale collapses below 1 —
        at that point the encoded message has been rounded away and
        decryption returns garbage, so serving pipelines treat the
        counter as a hard red flag.
        """
        record_op(FheOp.RESCALE, level=ct.level)
        q_last = self.context.rns.moduli[ct.basis[-1]]
        new_scale = ct.scale / q_last
        _metric_observe("ckks.rescale.scale_log2",
                        math.log2(new_scale) if new_scale > 0 else 0.0,
                        buckets=_SCALE_LOG2_BUCKETS,
                        level=ct.level - 1)
        if new_scale < 1.0:
            _metric_inc("ckks.scale.underflow", level=ct.level - 1)
        return Ciphertext(
            c0=ct.c0.rescale_by_last(),
            c1=ct.c1.rescale_by_last(),
            scale=new_scale,
        )

    def multiply_and_rescale(self, ct_a, ct_b, relin_key) -> Ciphertext:
        return self.rescale(self.multiply(ct_a, ct_b, relin_key))

    # ------------------------------------------------------------------
    # Rotations
    # ------------------------------------------------------------------

    def rotate(self, ct: Ciphertext, steps, galois_keys) -> Ciphertext:
        """Rotate slots left by ``steps`` (paper op: Rotation).

        Rotation = automorphism (index wiring in hardware) + keyswitch.
        """
        return self.rotate_many(ct, (steps,), galois_keys)[0]

    def rotate_many(self, ct: Ciphertext, steps, galois_keys):
        """Rotate ``ct`` by each entry of ``steps``; one result per entry.

        Halevi–Shoup hoisting: ``c1`` is decomposed into digits and
        transformed once, and every rotation permutes those digits in
        evaluation form before its own key product and mod-down.  Each
        non-trivial entry still records one Rotation and one Keyswitch at
        ``ct``'s level; a step that is a multiple of the slot count
        returns ``ct`` itself, as :meth:`rotate` always has.
        """
        n = self.context.params.slot_count
        digits = None
        out = []
        for step in steps:
            if step % n == 0:
                out.append(ct)
                continue
            record_op(FheOp.ROTATION, level=ct.level)
            g = self.context.galois_element_for_step(step)
            key = galois_keys.key_for(g)
            if digits is None:
                digits = self._digits(ct.c1.data, ct.basis)
            out.append(self._galois_switch(ct, digits, g, key))
        return out

    def conjugate(self, ct: Ciphertext, galois_keys) -> Ciphertext:
        """Complex-conjugate every slot."""
        record_op(FheOp.CONJUGATE, level=ct.level)
        g = self.context.conjugation_element
        return self.apply_galois(ct, g, galois_keys.key_for(g))

    def apply_galois(self, ct: Ciphertext, galois_element, switch_key):
        """Apply ``X -> X**g`` and switch back to the canonical secret."""
        digits = self._digits(ct.c1.data, ct.basis)
        return self._galois_switch(ct, digits, galois_element, switch_key)

    def _galois_switch(self, ct, digits, galois_element, switch_key):
        """``tau_g(ct)`` switched to ``s``, from ``c1``'s evaluation digits."""
        p0, p1 = self._key_switch(
            automorphism_evaluation(digits, galois_element), switch_key,
            ct.basis)
        tc0 = ct.c0.automorphism(galois_element)
        return Ciphertext(c0=tc0.add(p0), c1=p1, scale=ct.scale)

    # ------------------------------------------------------------------
    # Evaluation form
    # ------------------------------------------------------------------

    def to_evaluation(self, cts):
        """``(len(cts), 2, limbs, N)`` evaluation forms, one stacked pass.

        All ciphertexts must share one basis.
        """
        basis = cts[0].basis
        data = np.stack([np.stack([ct.c0.data, ct.c1.data]) for ct in cts])
        return self.context.rns.ntt_forward(data, basis)

    def multiply_plain_sums(self, groups, basis, scale):
        """Sums of ciphertext-plaintext products, one ciphertext per group.

        Each group is a pair ``(forms, plains)``: a ``(k, 2, limbs, N)``
        stack of ciphertexts in evaluation form (:meth:`to_evaluation`)
        and the matching ``(k, limbs, N)`` plaintexts in evaluation form,
        all over ``basis`` and multiplying to ``scale``.  Groups are read
        once, so a generator keeps only one group's stack alive.  A
        group's sum is accumulated pointwise, and all the sums share one
        inverse pass.  Op accounting is that of ``k`` :meth:`multiply_plain`
        and ``k - 1`` :meth:`add` calls per group.
        """
        rns = self.context.rns
        level = len(basis) - 1
        q = rns.moduli_column(basis)
        sums = []
        for forms, plains in groups:
            k = len(plains)
            record_op(FheOp.PMULT, level=level, count=k)
            if k > 1:
                record_op(FheOp.HADD, level=level, count=k - 1)
            sums.append((forms * plains[:, None] % q).sum(axis=0) % q)
        coeffs = rns.ntt_inverse(np.stack(sums), basis)
        return [
            Ciphertext(c0=RnsPoly(rns, c0, basis), c1=RnsPoly(rns, c1, basis),
                       scale=scale)
            for c0, c1 in coeffs
        ]

    # ------------------------------------------------------------------
    # Keyswitching core
    # ------------------------------------------------------------------

    def _digits(self, data, basis):
        """Evaluation-form digits of a coefficient-form stack over ``basis``.

        Digit ``i`` is the centered lift of limb ``i`` reduced modulo every
        modulus of the extended basis ``basis + P`` — what single-limb HPS
        base extension computes, exactly, since a one-limb source needs no
        overflow estimate.  The result has shape ``(limbs, limbs + k, N)``
        and all digits go through one stacked forward NTT.  The centered
        lift is odd (``q`` is odd), so it commutes with ``X -> X**g``:
        permuting these digits is the decomposition of ``tau_g(d)``.
        """
        rns = self.context.rns
        ext_basis = basis + rns.special_indices
        q = rns.moduli_column(basis).astype(np.int64)
        x = data.astype(np.int64)
        centered = np.where(x > q // 2, x - q, x)
        ext_q = rns.moduli_column(ext_basis).astype(np.int64)
        lifted = (centered[:, None, :] % ext_q).astype(np.uint64)
        return rns.ntt_forward(lifted, ext_basis)

    def _key_switch(self, digits, switch_key, basis):
        """Switch a polynomial (given by its digits) from ``s'`` to ``s``.

        ``digits`` come from :meth:`_digits`.  Each is multiplied into its
        switching-key pair pointwise, the products are accumulated, the two
        sums are inverse-transformed together, and the result is divided
        by ``P`` (mod-down).
        """
        record_op(FheOp.KEYSWITCH, level=len(basis) - 1)
        rns = self.context.rns
        special = rns.special_indices
        ext_basis = basis + special
        keys = self._projected_pairs(switch_key, basis, ext_basis)
        q = rns.moduli_column(ext_basis)
        acc = (keys * digits % q).sum(axis=1) % q
        acc0, acc1 = rns.ntt_inverse(acc, ext_basis)
        return (RnsPoly(rns, acc0, ext_basis).mod_down_by(special),
                RnsPoly(rns, acc1, ext_basis).mod_down_by(special))

    def _projected_pairs(self, switch_key, data_basis, ext_basis):
        """Switch-key pairs on ``ext_basis`` in evaluation form (memoized).

        Returns a ``(2, len(data_basis), len(ext_basis), N)`` array: both
        halves of the pairs named by ``data_basis``, projected onto
        ``ext_basis`` and transformed in one stacked pass.  Every keyswitch
        at the same level reuses it, so the key never re-enters an NTT.
        The cache holds derived data only; keys are stored and serialized
        in coefficient form.
        """
        cache_key = (id(switch_key), ext_basis)
        cached = self._switch_forms.get(cache_key)
        if cached is not None:
            return cached[1]
        for idx in data_basis:
            if idx >= len(switch_key.pairs):
                raise ValueError(
                    f"switch key has {len(switch_key.pairs)} limb pairs, "
                    f"needs index {idx}"
                )
        coeffs = np.stack([
            np.stack([switch_key.pairs[idx][half].keep_basis(ext_basis).data
                      for idx in data_basis])
            for half in (0, 1)
        ])
        forms = self.context.rns.ntt_forward(coeffs, ext_basis)
        if len(self._switch_forms) >= 256:
            self._switch_forms.clear()
        self._switch_forms[cache_key] = (switch_key, forms)
        return forms

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _encode_at(self, values, scale, basis) -> Plaintext:
        ctx = self.context
        poly = ctx.encoder.encode(values, scale, ctx.rns, basis)
        return Plaintext(poly=poly, scale=scale)

    def encode(self, values, scale=None, level=None) -> Plaintext:
        """Encode values at a given scale and level (defaults: params)."""
        ctx = self.context
        if scale is None:
            scale = ctx.params.scale
        if level is None:
            level = ctx.max_level
        return self._encode_at(values, scale, ctx.basis_at_level(level))
