"""Functional tests for CKKS encryption and basic evaluator operations."""

import numpy as np
import pytest

from repro.ckks import Ciphertext

TOL = 5e-3


class TestEncryptDecrypt:
    def test_fresh_roundtrip(self, toy_fhe, rng):
        z = toy_fhe.random_vector(rng)
        ct = toy_fhe.encrypt(z)
        assert np.max(np.abs(toy_fhe.decrypt(ct) - z)) < TOL

    def test_complex_values(self, toy_fhe, rng):
        z = toy_fhe.random_vector(rng, complex_values=True)
        ct = toy_fhe.encrypt(z)
        assert np.max(np.abs(toy_fhe.decrypt(ct) - z)) < TOL

    def test_fresh_level_is_max(self, toy_fhe, rng):
        ct = toy_fhe.encrypt(toy_fhe.random_vector(rng))
        assert ct.level == toy_fhe.context.max_level

    def test_encrypt_at_lower_level(self, toy_fhe, rng):
        ct = toy_fhe.encrypt(toy_fhe.random_vector(rng), level=1)
        assert ct.level == 1

    def test_ciphertexts_are_randomized(self, toy_fhe, rng):
        z = toy_fhe.random_vector(rng)
        ct1 = toy_fhe.encrypt(z)
        ct2 = toy_fhe.encrypt(z)
        assert not np.array_equal(ct1.c0.data, ct2.c0.data)


class TestAdditive:
    def test_add(self, toy_fhe, rng):
        za, zb = toy_fhe.random_vector(rng), toy_fhe.random_vector(rng)
        out = toy_fhe.evaluator.add(toy_fhe.encrypt(za), toy_fhe.encrypt(zb))
        assert np.max(np.abs(toy_fhe.decrypt(out) - (za + zb))) < TOL

    def test_sub(self, toy_fhe, rng):
        za, zb = toy_fhe.random_vector(rng), toy_fhe.random_vector(rng)
        out = toy_fhe.evaluator.sub(toy_fhe.encrypt(za), toy_fhe.encrypt(zb))
        assert np.max(np.abs(toy_fhe.decrypt(out) - (za - zb))) < TOL

    def test_negate(self, toy_fhe, rng):
        z = toy_fhe.random_vector(rng)
        out = toy_fhe.evaluator.negate(toy_fhe.encrypt(z))
        assert np.max(np.abs(toy_fhe.decrypt(out) + z)) < TOL

    def test_add_aligns_levels(self, toy_fhe, rng):
        za, zb = toy_fhe.random_vector(rng), toy_fhe.random_vector(rng)
        low = toy_fhe.encrypt(za, level=1)
        high = toy_fhe.encrypt(zb)
        out = toy_fhe.evaluator.add(low, high)
        assert out.level == 1
        assert np.max(np.abs(toy_fhe.decrypt(out) - (za + zb))) < TOL

    def test_add_const(self, toy_fhe, rng):
        z = toy_fhe.random_vector(rng)
        out = toy_fhe.evaluator.add_const(toy_fhe.encrypt(z), 1.25)
        assert np.max(np.abs(toy_fhe.decrypt(out) - (z + 1.25))) < TOL

    def test_scale_mismatch_rejected(self, toy_fhe, rng):
        z = toy_fhe.random_vector(rng)
        ct = toy_fhe.encrypt(z)
        other = toy_fhe.encrypt(z, scale=2.0 ** 20)
        with pytest.raises(ValueError):
            toy_fhe.evaluator.add(ct, other)


class TestMultiplicative:
    def test_ciphertext_multiply(self, toy_fhe, rng):
        za, zb = toy_fhe.random_vector(rng), toy_fhe.random_vector(rng)
        ev = toy_fhe.evaluator
        out = ev.rescale(
            ev.multiply(toy_fhe.encrypt(za), toy_fhe.encrypt(zb),
                        toy_fhe.relin_key)
        )
        assert np.max(np.abs(toy_fhe.decrypt(out) - za * zb)) < TOL
        assert out.level == toy_fhe.context.max_level - 1

    def test_square(self, toy_fhe, rng):
        z = toy_fhe.random_vector(rng)
        ev = toy_fhe.evaluator
        out = ev.rescale(ev.square(toy_fhe.encrypt(z), toy_fhe.relin_key))
        assert np.max(np.abs(toy_fhe.decrypt(out) - z * z)) < TOL

    def test_multiply_plain(self, toy_fhe, rng):
        z = toy_fhe.random_vector(rng)
        w = toy_fhe.random_vector(rng)
        ev = toy_fhe.evaluator
        pt = ev.encode(w)
        out = ev.rescale(ev.multiply_plain(toy_fhe.encrypt(z), pt))
        assert np.max(np.abs(toy_fhe.decrypt(out) - z * w)) < TOL

    def test_multiply_const_complex(self, toy_fhe, rng):
        z = toy_fhe.random_vector(rng)
        ev = toy_fhe.evaluator
        out = ev.rescale(ev.multiply_const(toy_fhe.encrypt(z), 1j))
        assert np.max(np.abs(toy_fhe.decrypt(out) - 1j * z)) < TOL

    def test_depth_chain(self, toy_fhe, rng):
        """Multiply down the whole level budget: (z^2)^2 at 4 levels."""
        z = rng.uniform(0.2, 0.8, toy_fhe.params.slot_count)
        ev = toy_fhe.evaluator
        ct = toy_fhe.encrypt(z)
        for _ in range(2):
            ct = ev.rescale(ev.square(ct, toy_fhe.relin_key))
        assert np.max(np.abs(toy_fhe.decrypt(ct) - z ** 4)) < TOL


class TestRescaleAndLevels:
    def test_rescale_updates_scale_and_level(self, toy_fhe, rng):
        ct = toy_fhe.encrypt(toy_fhe.random_vector(rng))
        ev = toy_fhe.evaluator
        prod = ev.multiply_const(ct, 2.0)
        dropped_q = toy_fhe.context.rns.moduli[prod.basis[-1]]
        rescaled = ev.rescale(prod)
        assert rescaled.level == ct.level - 1
        assert abs(rescaled.scale - prod.scale / dropped_q) < 1e-3

    def test_drop_to_level_preserves_value(self, toy_fhe, rng):
        z = toy_fhe.random_vector(rng)
        ct = toy_fhe.encrypt(z)
        low = toy_fhe.evaluator.drop_to_level(ct, 1)
        assert low.level == 1
        assert np.max(np.abs(toy_fhe.decrypt(low) - z)) < TOL

    def test_drop_to_non_subbasis_rejected(self, toy_fhe, rng):
        ct = toy_fhe.encrypt(toy_fhe.random_vector(rng))
        with pytest.raises(ValueError):
            toy_fhe.evaluator.drop_to_basis(ct, (99,))


class TestCiphertextInvariants:
    def test_component_basis_mismatch_rejected(self, toy_fhe, rng):
        ct = toy_fhe.encrypt(toy_fhe.random_vector(rng))
        with pytest.raises(ValueError):
            Ciphertext(c0=ct.c0, c1=ct.c1.keep_basis((0, 1)), scale=ct.scale)
