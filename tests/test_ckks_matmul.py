"""Functional tests for the CCMM building blocks."""

import numpy as np
import pytest

from repro.ckks.matmul import (
    ciphertext_dot,
    ciphertext_matrix_vector,
    required_rotation_steps_for_sum,
    sum_slots,
)

TOL = 5e-2


def _keys_for(fixture, steps):
    elements = [fixture.context.galois_element_for_step(s) for s in steps]
    return fixture.keygen.create_galois_keys(elements)


class TestSumSlots:
    def test_full_reduction(self, deep_fhe, rng):
        n = deep_fhe.params.slot_count
        gk = _keys_for(deep_fhe, required_rotation_steps_for_sum(n))
        x = rng.normal(scale=0.3, size=n)
        out = sum_slots(deep_fhe.encrypt(x), deep_fhe.evaluator, gk)
        got = deep_fhe.decrypt(out).real
        assert np.max(np.abs(got - x.sum())) < TOL

    def test_block_reduction(self, deep_fhe, rng):
        n = deep_fhe.params.slot_count
        width = 8
        gk = _keys_for(deep_fhe, required_rotation_steps_for_sum(width))
        x = rng.normal(scale=0.3, size=n)
        out = sum_slots(deep_fhe.encrypt(x), deep_fhe.evaluator, gk,
                        width=width)
        got = deep_fhe.decrypt(out).real
        # Slot 0 holds the sum of the first block.
        assert abs(got[0] - x[:width].sum()) < TOL

    def test_invalid_width(self, deep_fhe, rng):
        gk = _keys_for(deep_fhe, [1])
        ct = deep_fhe.encrypt(rng.normal(size=4))
        with pytest.raises(ValueError):
            sum_slots(ct, deep_fhe.evaluator, gk, width=3)
        with pytest.raises(ValueError):
            sum_slots(ct, deep_fhe.evaluator, gk,
                      width=4 * deep_fhe.params.slot_count)


class TestCiphertextDot:
    def test_inner_product(self, deep_fhe, rng):
        n = deep_fhe.params.slot_count
        gk = _keys_for(deep_fhe, required_rotation_steps_for_sum(n))
        a = rng.normal(scale=0.3, size=n)
        b = rng.normal(scale=0.3, size=n)
        out = ciphertext_dot(
            deep_fhe.encrypt(a), deep_fhe.encrypt(b),
            deep_fhe.evaluator, deep_fhe.relin_key, gk,
        )
        got = deep_fhe.decrypt(out).real
        assert np.max(np.abs(got - a @ b)) < TOL


class TestCiphertextMatrixVector:
    def test_encrypted_matrix_times_encrypted_vector(self, deep_fhe, rng):
        """The CCMM pattern: both operands encrypted."""
        n = deep_fhe.params.slot_count
        gk = _keys_for(deep_fhe, required_rotation_steps_for_sum(n))
        rows = 3
        m = rng.normal(scale=0.3, size=(rows, n))
        x = rng.normal(scale=0.3, size=n)
        row_cts = [deep_fhe.encrypt(m[i]) for i in range(rows)]
        ct_x = deep_fhe.encrypt(x)
        outs = ciphertext_matrix_vector(
            row_cts, ct_x, deep_fhe.evaluator, deep_fhe.relin_key, gk,
            width=n,
        )
        for i, out in enumerate(outs):
            got = deep_fhe.decrypt(out).real[0]
            assert abs(got - m[i] @ x) < TOL

    def test_empty_rows_rejected(self, deep_fhe, rng):
        gk = _keys_for(deep_fhe, [1])
        ct = deep_fhe.encrypt(rng.normal(size=4))
        with pytest.raises(ValueError):
            ciphertext_matrix_vector([], ct, deep_fhe.evaluator,
                                     deep_fhe.relin_key, gk, width=4)
