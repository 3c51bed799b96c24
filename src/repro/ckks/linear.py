"""Homomorphic linear transforms (matrix-vector products) with BSGS.

A slot-wise linear map ``out = M @ in`` decomposes into rotated diagonals:
``out = sum_d diag_d ⊙ rot_d(in)``.  The Baby-Step Giant-Step split (paper
Section III-B, [34]) reduces the rotation count from ``O(n)`` to
``O(sqrt(n))`` — baby steps rotate the ciphertext, giant steps rotate
pre-rotated plaintext diagonals and the partial sums.

This is the computation pattern of the FC layer and of the C2S/S2C DFT
stages of bootstrapping; the scheduler in :mod:`repro.sched.fc` and
:mod:`repro.sched.bootstrap` distributes exactly this structure across
accelerator cards.

On the host the products run in evaluation (NTT) form: the encoded
diagonals are cached there once per basis, the baby-step rotations share
one hoisted decomposition, each baby-step ciphertext is transformed once,
and each giant step's inner sum is inverse-transformed once.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from repro.ckks.ciphertext import Ciphertext

__all__ = ["LinearTransform"]

_ZERO_TOL = 1e-12


class LinearTransform:
    """A precomputed homomorphic ``n x n`` complex matrix-vector product."""

    def __init__(self, context, matrix, plaintext_scale=None, baby_steps=None):
        n = context.params.slot_count
        m = np.asarray(matrix, dtype=np.complex128)
        if m.shape != (n, n):
            raise ValueError(f"matrix must be {n}x{n}, got {m.shape}")
        self.context = context
        self.plaintext_scale = (
            float(plaintext_scale)
            if plaintext_scale is not None
            else context.params.scale
        )
        self.baby_steps = (
            int(baby_steps) if baby_steps else max(1, int(math.isqrt(n)))
        )
        # Extract the generalized diagonals diag_d[j] = M[j, (j+d) mod n]
        # and pre-rotate each by its giant step offset.
        self._diagonals = {}
        cols = np.arange(n)
        for d in range(n):
            diag = m[cols, (cols + d) % n]
            if np.max(np.abs(diag)) < _ZERO_TOL:
                continue
            giant = (d // self.baby_steps) * self.baby_steps
            self._diagonals[d] = np.roll(diag, giant)
        self._giant_steps = sorted(
            {(d // self.baby_steps) * self.baby_steps for d in self._diagonals}
        )
        # Encoded diagonals in evaluation form, per basis: a
        # (diagonal_count, limbs, N) stack in ascending diagonal order.
        self._diagonal_forms = {}

    # ------------------------------------------------------------------

    def required_rotation_steps(self):
        """Slot-rotation steps whose Galois keys must exist before apply()."""
        n = self.context.params.slot_count
        babies = {d % self.baby_steps for d in self._diagonals}
        steps = {b for b in babies if b % n != 0}
        steps.update(g for g in self._giant_steps if g % n != 0)
        return sorted(steps)

    def _evaluation_diagonals(self, evaluator, basis):
        """The encoded diagonals over ``basis`` in evaluation form (memoized)."""
        forms = self._diagonal_forms.get(basis)
        if forms is None:
            coeffs = np.stack([
                evaluator._encode_at(diag, self.plaintext_scale, basis)
                .poly.data
                for diag in self._diagonals.values()
            ])
            forms = self.context.rns.ntt_forward(coeffs, basis)
            self._diagonal_forms[basis] = forms
        return forms

    def apply(self, ct: Ciphertext, evaluator, galois_keys) -> Ciphertext:
        """Return the encrypted product ``M @ slots(ct)``.

        Output scale is ``ct.scale * plaintext_scale``; callers rescale.
        """
        if not self._diagonals:
            raise ValueError("linear transform matrix is identically zero")
        n = self.context.params.slot_count
        bs = self.baby_steps
        babies = list(dict.fromkeys(d % bs for d in self._diagonals))
        rotated = evaluator.rotate_many(ct, babies, galois_keys)
        forms = evaluator.to_evaluation(rotated)
        position = {b: i for i, b in enumerate(babies)}
        diagonals = self._evaluation_diagonals(evaluator, ct.basis)

        def groups():
            # Diagonals are stored in ascending order, so each giant
            # step's diagonals are one contiguous run of the stack.
            start = 0
            for _, run in itertools.groupby(self._diagonals,
                                            key=lambda d: d // bs * bs):
                picks = [position[d % bs] for d in run]
                yield forms[picks], diagonals[start:start + len(picks)]
                start += len(picks)

        inners = evaluator.multiply_plain_sums(
            groups(), ct.basis, ct.scale * self.plaintext_scale)
        result = None
        for giant, inner in zip(self._giant_steps, inners):
            if giant % n != 0:
                inner = evaluator.rotate(inner, giant, galois_keys)
            result = inner if result is None else evaluator.add(result, inner)
        return result

    @property
    def diagonal_count(self):
        return len(self._diagonals)

    @property
    def diagonal_indices(self):
        """The nonzero generalized-diagonal indices, sorted.

        This is the structural input the analytic op model
        (:func:`repro.ir.check.modeled_bsgs_trace`) predicts from.
        """
        return sorted(self._diagonals)
