"""Unit tests for the RNS context and base conversion."""

import numpy as np
import pytest

from repro.poly import RnsContext


@pytest.fixture(scope="module")
def rns():
    return RnsContext.create(
        poly_degree=64,
        first_modulus_bits=29,
        scale_modulus_bits=25,
        num_scale_moduli=3,
        special_modulus_bits=30,
        num_special_moduli=2,
    )


class TestConstruction:
    def test_chain_layout(self, rns):
        assert len(rns.data_moduli) == 4  # first + 3 scale primes
        assert len(rns.special_moduli) == 2
        assert rns.moduli == rns.data_moduli + rns.special_moduli
        assert rns.data_indices == (0, 1, 2, 3)
        assert rns.special_indices == (4, 5)

    def test_moduli_are_ntt_friendly(self, rns):
        for q in rns.moduli:
            assert q % (2 * rns.poly_degree) == 1

    def test_duplicate_moduli_rejected(self):
        with pytest.raises(ValueError):
            RnsContext(64, (12289, 12289), ())

    def test_modulus_product(self, rns):
        assert rns.modulus_product((0, 1)) == rns.moduli[0] * rns.moduli[1]
        assert rns.modulus_product(()) == 1


class TestBaseConvert:
    def test_exact_for_small_values(self, rns):
        """Values far from Q/2 convert exactly between bases."""
        n = rns.poly_degree
        rng = np.random.default_rng(0)
        values = rng.integers(0, 2 ** 40, n)
        from_idx = (0, 1)
        data = np.stack([
            np.array([int(v) % rns.moduli[i] for v in values], dtype=np.uint64)
            for i in from_idx
        ])
        out = rns.base_convert(data, from_idx, (2, 3))
        for row, j in enumerate((2, 3)):
            expect = np.array(
                [int(v) % rns.moduli[j] for v in values], dtype=np.uint64
            )
            assert np.array_equal(out[row], expect)

    def test_single_limb_source_is_centered(self, rns):
        """Residues above q/2 convert as their negative representative."""
        n = rns.poly_degree
        rng = np.random.default_rng(1)
        q0 = rns.moduli[0]
        q1 = rns.moduli[1]
        vals = rng.integers(0, q0, n, dtype=np.uint64)
        out = rns.base_convert(vals[None, :], (0,), (1,))
        centered = np.where(
            vals.astype(np.int64) > q0 // 2,
            vals.astype(np.int64) - q0,
            vals.astype(np.int64),
        )
        expect = np.mod(centered, q1).astype(np.uint64)
        assert np.array_equal(out[0], expect)

    def test_shape_validation(self, rns):
        with pytest.raises(ValueError):
            rns.base_convert(
                np.zeros((3, rns.poly_degree), dtype=np.uint64), (0, 1), (2,)
            )

    def test_conversion_tables_cached(self, rns):
        t1 = rns._conversion_tables((0, 1), (2,))
        t2 = rns._conversion_tables((0, 1), (2,))
        assert t1 is t2
