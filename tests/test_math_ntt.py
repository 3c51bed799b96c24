"""Unit tests for the negacyclic NTT."""

import numpy as np
import pytest

from repro.math.ntt import (
    NttContext,
    NttKernel,
    bit_reverse_permutation,
    clear_ntt_caches,
    get_ntt_context,
    get_ntt_kernel,
)
from repro.math.primes import find_ntt_primes


def _reference_negacyclic(a, b, q):
    """Schoolbook product in Z_q[X]/(X^N + 1) with exact big-int math."""
    n = len(a)
    full = np.convolve(np.array([int(x) for x in a], dtype=object),
                       np.array([int(x) for x in b], dtype=object))
    res = np.array(full[:n], dtype=object)
    res[: n - 1] = res[: n - 1] - full[n:]
    return np.array([int(c) % q for c in res], dtype=np.uint64)


class TestBitReversePermutation:
    def test_involution(self):
        perm = bit_reverse_permutation(16)
        assert np.array_equal(perm[perm], np.arange(16))

    def test_known_values(self):
        assert list(bit_reverse_permutation(8)) == [0, 4, 2, 6, 1, 5, 3, 7]

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            bit_reverse_permutation(12)


class TestNttRoundTrip:
    @pytest.mark.parametrize("degree", [16, 64, 256, 1024])
    def test_inverse_of_forward(self, degree):
        q = find_ntt_primes(degree, 28, 1)[0]
        ctx = NttContext(degree, modulus=q)
        rng = np.random.default_rng(degree)
        a = rng.integers(0, q, degree, dtype=np.uint64)
        assert np.array_equal(ctx.inverse(ctx.forward(a)), a)

    def test_forward_of_inverse(self):
        degree, q = 128, find_ntt_primes(128, 28, 1)[0]
        ctx = NttContext(degree, modulus=q)
        rng = np.random.default_rng(7)
        a = rng.integers(0, q, degree, dtype=np.uint64)
        assert np.array_equal(ctx.forward(ctx.inverse(a)), a)


class TestNegacyclicMultiply:
    @pytest.mark.parametrize("degree", [16, 128])
    def test_matches_schoolbook(self, degree):
        q = find_ntt_primes(degree, 28, 1)[0]
        ctx = NttContext(degree, modulus=q)
        rng = np.random.default_rng(degree + 1)
        a = rng.integers(0, q, degree, dtype=np.uint64)
        b = rng.integers(0, q, degree, dtype=np.uint64)
        got = ctx.negacyclic_multiply(a, b)
        assert np.array_equal(got, _reference_negacyclic(a, b, q))

    def test_x_to_the_n_is_minus_one(self):
        """X^(N/2) * X^(N/2) = X^N = -1 in the negacyclic ring."""
        degree = 64
        q = find_ntt_primes(degree, 28, 1)[0]
        ctx = NttContext(degree, modulus=q)
        half = np.zeros(degree, dtype=np.uint64)
        half[degree // 2] = 1
        prod = ctx.negacyclic_multiply(half, half)
        expected = np.zeros(degree, dtype=np.uint64)
        expected[0] = q - 1
        assert np.array_equal(prod, expected)

    def test_multiplication_by_one(self):
        degree = 32
        q = find_ntt_primes(degree, 28, 1)[0]
        ctx = NttContext(degree, modulus=q)
        one = np.zeros(degree, dtype=np.uint64)
        one[0] = 1
        rng = np.random.default_rng(3)
        a = rng.integers(0, q, degree, dtype=np.uint64)
        assert np.array_equal(ctx.negacyclic_multiply(a, one), a)


class TestNttValidation:
    def test_rejects_unfriendly_modulus(self):
        with pytest.raises(ValueError):
            NttContext(64, modulus=17)  # 17 != 1 mod 128

    def test_rejects_oversized_modulus(self):
        with pytest.raises(ValueError):
            NttContext(64, modulus=(1 << 33) + 1)

    def test_rejects_wrong_shape(self):
        q = find_ntt_primes(64, 28, 1)[0]
        ctx = NttContext(64, modulus=q)
        with pytest.raises(ValueError):
            ctx.forward(np.zeros(32, dtype=np.uint64))


class TestKeywordOnlyConstructors:
    def test_ntt_context_requires_keyword_modulus(self):
        q = find_ntt_primes(64, 30, 1)[0]
        with pytest.raises(TypeError):
            NttContext(64, q)
        assert NttContext(64, modulus=q).modulus == q

    def test_ntt_kernel_requires_keyword_moduli(self):
        q = find_ntt_primes(64, 30, 1)[0]
        with pytest.raises(TypeError):
            NttKernel(64, (q,))
        assert NttKernel(64, moduli=(q,)).moduli == (q,)


class TestSharedCaches:
    def test_context_kernel_is_the_shared_kernel(self):
        q = find_ntt_primes(64, 30, 1)[0]
        assert get_ntt_context(64, q).kernel is get_ntt_kernel(64, (q,))

    def test_clear_ntt_caches_yields_new_objects(self):
        q = find_ntt_primes(64, 30, 1)[0]
        ctx = get_ntt_context(64, q)
        kernel = get_ntt_kernel(64, (q,))
        clear_ntt_caches()
        assert get_ntt_context(64, q) is not ctx
        assert get_ntt_kernel(64, (q,)) is not kernel
