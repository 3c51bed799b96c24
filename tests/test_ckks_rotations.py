"""Functional tests for slot rotations, conjugation and keyswitching."""

import numpy as np
import pytest

TOL = 5e-3


class TestRotation:
    @pytest.mark.parametrize("steps", [1, 2, 4, 8])
    def test_left_rotation(self, toy_fhe, rng, steps):
        z = toy_fhe.random_vector(rng)
        ct = toy_fhe.encrypt(z)
        out = toy_fhe.evaluator.rotate(ct, steps, toy_fhe.galois_keys)
        assert np.max(np.abs(toy_fhe.decrypt(out) - np.roll(z, -steps))) < TOL

    def test_negative_rotation(self, toy_fhe, rng):
        z = toy_fhe.random_vector(rng)
        ct = toy_fhe.encrypt(z)
        out = toy_fhe.evaluator.rotate(ct, -1, toy_fhe.galois_keys)
        assert np.max(np.abs(toy_fhe.decrypt(out) - np.roll(z, 1))) < TOL

    def test_zero_rotation_is_identity(self, toy_fhe, rng):
        z = toy_fhe.random_vector(rng)
        ct = toy_fhe.encrypt(z)
        out = toy_fhe.evaluator.rotate(ct, 0, toy_fhe.galois_keys)
        assert out is ct

    def test_full_cycle_rotation_is_identity(self, toy_fhe, rng):
        n = toy_fhe.params.slot_count
        ct = toy_fhe.encrypt(toy_fhe.random_vector(rng))
        out = toy_fhe.evaluator.rotate(ct, n, toy_fhe.galois_keys)
        assert out is ct

    def test_rotation_composes(self, toy_fhe, rng):
        z = toy_fhe.random_vector(rng)
        ct = toy_fhe.encrypt(z)
        ev = toy_fhe.evaluator
        out = ev.rotate(ev.rotate(ct, 1, toy_fhe.galois_keys), 2,
                        toy_fhe.galois_keys)
        assert np.max(np.abs(toy_fhe.decrypt(out) - np.roll(z, -3))) < TOL

    def test_missing_key_rejected(self, toy_fhe, rng):
        ct = toy_fhe.encrypt(toy_fhe.random_vector(rng))
        with pytest.raises(KeyError):
            toy_fhe.evaluator.rotate(ct, 3, toy_fhe.galois_keys)

    def test_rotation_at_low_level(self, toy_fhe, rng):
        """Keyswitching must work on mod-switched ciphertexts too."""
        z = toy_fhe.random_vector(rng)
        ct = toy_fhe.evaluator.drop_to_level(toy_fhe.encrypt(z), 1)
        out = toy_fhe.evaluator.rotate(ct, 1, toy_fhe.galois_keys)
        assert np.max(np.abs(toy_fhe.decrypt(out) - np.roll(z, -1))) < TOL


class TestConjugation:
    def test_conjugate(self, toy_fhe, rng):
        z = toy_fhe.random_vector(rng, complex_values=True)
        ct = toy_fhe.encrypt(z)
        out = toy_fhe.evaluator.conjugate(ct, toy_fhe.galois_keys)
        assert np.max(np.abs(toy_fhe.decrypt(out) - np.conj(z))) < TOL

    def test_conjugate_is_involution(self, toy_fhe, rng):
        z = toy_fhe.random_vector(rng, complex_values=True)
        ct = toy_fhe.encrypt(z)
        ev = toy_fhe.evaluator
        out = ev.conjugate(ev.conjugate(ct, toy_fhe.galois_keys),
                           toy_fhe.galois_keys)
        assert np.max(np.abs(toy_fhe.decrypt(out) - z)) < TOL

    def test_real_extraction(self, toy_fhe, rng):
        """(z + conj(z)) / 2 = Re(z) — the split used in bootstrapping."""
        z = toy_fhe.random_vector(rng, complex_values=True)
        ct = toy_fhe.encrypt(z)
        ev = toy_fhe.evaluator
        summed = ev.add(ct, ev.conjugate(ct, toy_fhe.galois_keys))
        out = ev.rescale(ev.multiply_const(summed, 0.5))
        assert np.max(np.abs(toy_fhe.decrypt(out) - z.real)) < TOL


class TestGaloisElements:
    def test_step_element_order(self, toy_fhe):
        ctx = toy_fhe.context
        n = ctx.params.slot_count
        assert ctx.galois_element_for_step(0) == 1
        assert ctx.galois_element_for_step(n) == 1
        assert ctx.galois_element_for_step(1) == 5

    def test_negative_step_wraps(self, toy_fhe):
        ctx = toy_fhe.context
        n = ctx.params.slot_count
        assert (ctx.galois_element_for_step(-1)
                == ctx.galois_element_for_step(n - 1))
