"""Unit tests for key material and parameter validation."""

import numpy as np
import pytest

from repro.ckks import (
    CkksContext,
    CkksParameters,
    Decryptor,
    Encryptor,
    KeyGenerator,
    toy_parameters,
)
from repro.ckks.params import PAPER_PARAMS
from repro.sched.bootstrap import EVALEXP_DEGREE


class TestParameterValidation:
    def test_rejects_non_power_of_two_degree(self):
        with pytest.raises(ValueError):
            CkksParameters(poly_degree=100, first_modulus_bits=29,
                           scale_bits=25, num_scale_moduli=2)

    def test_rejects_oversized_moduli(self):
        with pytest.raises(ValueError):
            CkksParameters(poly_degree=64, first_modulus_bits=40,
                           scale_bits=25, num_scale_moduli=2)

    def test_rejects_scale_above_first_modulus(self):
        with pytest.raises(ValueError):
            CkksParameters(poly_degree=64, first_modulus_bits=25,
                           scale_bits=25, num_scale_moduli=2)

    def test_derived_quantities(self):
        p = toy_parameters(poly_degree=256, num_scale_moduli=4)
        assert p.slot_count == 128
        assert p.max_level == 4
        assert p.scale == 2.0 ** 25
        assert p.log_q == 29 + 4 * 25

    def test_paper_parameter_set(self):
        assert PAPER_PARAMS.poly_degree == 2 ** 16
        assert PAPER_PARAMS.slot_count == 2 ** 15
        assert PAPER_PARAMS.log_q == 1260
        assert PAPER_PARAMS.log_pq == 1692
        assert EVALEXP_DEGREE == 59


class TestKeyGeneration:
    def test_deterministic_with_seed(self):
        params = toy_parameters(poly_degree=64, num_scale_moduli=2)
        ctx = CkksContext(params)
        kg1 = KeyGenerator(ctx, seed=5)
        kg2 = KeyGenerator(ctx, seed=5)
        assert np.array_equal(kg1.secret_key.poly.data,
                              kg2.secret_key.poly.data)

    def test_different_seeds_differ(self):
        params = toy_parameters(poly_degree=64, num_scale_moduli=2)
        ctx = CkksContext(params)
        kg1 = KeyGenerator(ctx, seed=5)
        kg2 = KeyGenerator(ctx, seed=6)
        assert not np.array_equal(kg1.secret_key.poly.data,
                                  kg2.secret_key.poly.data)

    def test_sparse_secret_hamming_weight(self):
        params = toy_parameters(poly_degree=128, num_scale_moduli=2,
                                secret_hamming_weight=8)
        ctx = CkksContext(params)
        kg = KeyGenerator(ctx, seed=0)
        coeffs = kg.secret_key.poly.to_int_coeffs()
        nonzero = sum(1 for c in coeffs if int(c) != 0)
        assert nonzero == 8
        assert all(int(c) in (-1, 0, 1) for c in coeffs)

    def test_secret_is_ternary(self, toy_fhe):
        coeffs = toy_fhe.keygen.secret_key.poly.to_int_coeffs()
        assert all(int(c) in (-1, 0, 1) for c in coeffs)

    def test_relin_key_has_pair_per_data_limb(self, toy_fhe):
        limbs = len(toy_fhe.context.rns.data_indices)
        assert len(toy_fhe.relin_key) == limbs

    def test_galois_keys_lookup_error(self, toy_fhe):
        with pytest.raises(KeyError, match="Galois"):
            toy_fhe.galois_keys.key_for(123456)

    def test_public_key_decrypts_to_noise(self, toy_fhe):
        """b + a*s must be small (the RLWE error), not random."""
        pk = toy_fhe.public_key
        s = toy_fhe.keygen.secret_key.poly.keep_basis(pk.b.basis)
        residual = pk.b.add(pk.a.multiply(s)).to_int_coeffs()
        bound = 8 * toy_fhe.params.error_stddev * np.sqrt(
            toy_fhe.params.poly_degree
        )
        assert max(abs(int(c)) for c in residual) < bound


class TestCrossKeyIsolation:
    def test_wrong_secret_fails_to_decrypt(self, rng):
        params = toy_parameters(poly_degree=64, num_scale_moduli=2)
        ctx = CkksContext(params)
        kg_a = KeyGenerator(ctx, seed=1)
        kg_b = KeyGenerator(ctx, seed=2)
        enc = Encryptor(ctx, kg_a.create_public_key(), seed=3)
        wrong = Decryptor(ctx, kg_b.secret_key)
        z = rng.normal(scale=0.5, size=params.slot_count)
        ct = enc.encrypt_values(z)
        got = wrong.decrypt_values(ct)
        # Decryption under the wrong key yields garbage, not the message.
        assert np.max(np.abs(got - z)) > 1.0
