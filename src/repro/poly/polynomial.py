"""RNS polynomials in ``Z_Q[X]/(X^N + 1)``.

An :class:`RnsPoly` stores one residue polynomial per active modulus
(coefficient representation, shape ``(limbs, N)`` of ``uint64``).  All ring
operations are limb-parallel, exactly how Hydra's compute units process RNS
data: products run through the context's stacked NTT kernels (one ndarray
pass per limb chunk, not a Python loop per limb), and rescale/mod-down use
per-basis constant columns memoized on the context.  Polynomials are value
objects: every operation returns a new polynomial; in-place mutation is
never exposed.

Element-wise arithmetic (add/sub/negate/scalar-multiply/automorphism)
is plain numpy over the whole ``(limbs, N)`` stack; the conditional
subtraction ``np.minimum(x, x - q)`` is the same ``uint64`` wraparound
trick the NTT butterflies use for lazy reduction.  Only the ring
products go through the context's stacked NTT kernels.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.math.modular import mod_inverse

__all__ = ["RnsPoly"]


@lru_cache(maxsize=512)
def _automorphism_maps(n, g):
    """Destination indices and sign-flip mask for ``X -> X**g`` (memoized).

    Coefficient ``i`` lands at index ``g*i mod 2N`` with a sign flip when
    the product wraps an odd number of times — pure index wiring, which is
    exactly what Hydra's Automorphism unit hardwires.  Rotation-heavy code
    (keyswitched rotations, BSGS transforms) hits the same few Galois
    elements over and over, so the maps are cached per ``(N, g)``.
    """
    idx = np.arange(n, dtype=np.int64)
    target = idx * g % (2 * n)
    dest = target % n
    flip = target >= n
    dest.setflags(write=False)
    flip.setflags(write=False)
    return dest, flip


class RnsPoly:
    """A polynomial held in a subset of an :class:`~repro.poly.RnsContext`.

    Parameters
    ----------
    context:
        The shared :class:`~repro.poly.RnsContext`.
    data:
        ``uint64`` array of shape ``(len(basis), N)`` with residues.
    basis:
        Tuple of indices into ``context.moduli`` naming the active limbs.
    """

    __slots__ = ("context", "data", "basis")

    def __init__(self, context, data, basis):
        self.context = context
        self.basis = tuple(basis)
        arr = np.asarray(data, dtype=np.uint64)
        if arr.shape != (len(self.basis), context.poly_degree):
            raise ValueError(
                f"data shape {arr.shape} does not match basis of "
                f"{len(self.basis)} limbs and degree {context.poly_degree}"
            )
        self.data = arr

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def zeros(cls, context, basis):
        """Return the zero polynomial in the given basis."""
        shape = (len(tuple(basis)), context.poly_degree)
        return cls(context, np.zeros(shape, dtype=np.uint64), basis)

    @classmethod
    def from_int_coeffs(cls, context, coeffs, basis):
        """Build a polynomial from (possibly signed, big) integer coefficients.

        ``coeffs`` is any sequence of Python ints of length ``N``; each is
        reduced into every modulus of ``basis``.  Coefficients that fit in
        ``int64`` reduce in one vectorized pass; big integers fall back to
        exact per-limb Python reduction.
        """
        basis = tuple(basis)
        n = context.poly_degree
        if len(coeffs) != n:
            raise ValueError(f"expected {n} coefficients, got {len(coeffs)}")
        try:
            arr = np.asarray(coeffs, dtype=np.int64)
        except (OverflowError, TypeError, ValueError):
            data = np.empty((len(basis), n), dtype=np.uint64)
            for row, idx in enumerate(basis):
                q = context.moduli[idx]
                data[row] = np.array(
                    [int(c) % q for c in coeffs], dtype=np.uint64
                )
            return cls(context, data, basis)
        q_col = context.moduli_column(basis).astype(np.int64)
        # NumPy's % matches Python's sign convention, so the result of
        # reducing an int64 row by a positive modulus is already in [0, q).
        data = (arr[None, :] % q_col).astype(np.uint64)
        return cls(context, data, basis)

    @classmethod
    def random_uniform(cls, context, basis, rng):
        """Uniformly random polynomial (the ``a`` component of ciphertexts)."""
        basis = tuple(basis)
        n = context.poly_degree
        data = np.empty((len(basis), n), dtype=np.uint64)
        # A single uniform big sample per coefficient would be more faithful,
        # but independent per-limb sampling is statistically identical for a
        # uniform distribution over the CRT product.
        for row, idx in enumerate(basis):
            data[row] = rng.integers(
                0, context.moduli[idx], n, dtype=np.uint64
            )
        return cls(context, data, basis)

    @classmethod
    def random_ternary(cls, context, basis, rng, hamming_weight=None):
        """Random ternary polynomial in {-1, 0, 1} (secret keys)."""
        n = context.poly_degree
        if hamming_weight is None:
            coeffs = rng.integers(-1, 2, n)
        else:
            coeffs = np.zeros(n, dtype=np.int64)
            positions = rng.choice(n, size=hamming_weight, replace=False)
            coeffs[positions] = rng.choice([-1, 1], size=hamming_weight)
        return cls.from_int_coeffs(context, [int(c) for c in coeffs], basis)

    @classmethod
    def random_error(cls, context, basis, rng, stddev=3.2):
        """Discrete-Gaussian-style error polynomial."""
        n = context.poly_degree
        coeffs = np.rint(rng.normal(0.0, stddev, n)).astype(np.int64)
        return cls.from_int_coeffs(context, [int(c) for c in coeffs], basis)

    # ------------------------------------------------------------------
    # Basic ring arithmetic
    # ------------------------------------------------------------------

    def _check_compatible(self, other):
        # Contexts are compatible when they describe the same ring —
        # identity is the fast path; structural equality covers contexts
        # rebuilt from serialized parameters (client/server settings).
        if self.context is not other.context and (
            self.context.poly_degree != other.context.poly_degree
            or self.context.moduli != other.context.moduli
        ):
            raise ValueError("polynomials belong to different rings")
        if self.basis != other.basis:
            raise ValueError(
                f"basis mismatch: {self.basis} vs {other.basis}"
            )

    def _moduli_column(self):
        return self.context.moduli_column(self.basis)

    def add(self, other):
        """Return ``self + other``."""
        self._check_compatible(other)
        q = self._moduli_column()
        out = self.data + other.data
        return RnsPoly(self.context, np.minimum(out, out - q), self.basis)

    def sub(self, other):
        """Return ``self - other``."""
        self._check_compatible(other)
        q = self._moduli_column()
        out = self.data + (q - other.data)
        return RnsPoly(self.context, np.minimum(out, out - q), self.basis)

    def negate(self):
        """Return ``-self``."""
        q = self._moduli_column()
        out = q - self.data
        return RnsPoly(self.context, np.minimum(out, out - q), self.basis)

    def multiply(self, other):
        """Negacyclic product ``self * other`` (limb-batched NTT multiply)."""
        self._check_compatible(other)
        out = self.context.negacyclic_multiply(
            self.data, other.data, self.basis
        )
        return RnsPoly(self.context, out, self.basis)

    def multiply_scalar(self, scalar):
        """Return ``self * scalar`` for an integer scalar."""
        scalar = int(scalar)
        q = self._moduli_column()
        s_col = np.array(
            [scalar % self.context.moduli[idx] for idx in self.basis],
            dtype=np.uint64,
        )[:, None]
        return RnsPoly(self.context, self.data * s_col % q, self.basis)

    # ------------------------------------------------------------------
    # Automorphisms (rotations / conjugation)
    # ------------------------------------------------------------------

    def automorphism(self, galois_element):
        """Apply ``X -> X**galois_element`` (``galois_element`` odd).

        This is what Hydra's Automorphism unit computes with pure index
        wiring: coefficient ``i`` lands at index ``g*i mod 2N`` with a sign
        flip when the product wraps an odd number of times.
        """
        n = self.context.poly_degree
        g = int(galois_element) % (2 * n)
        if g % 2 == 0:
            raise ValueError(f"galois element must be odd, got {galois_element}")
        dest, flip = _automorphism_maps(n, g)
        q = self._moduli_column()
        neg = q - self.data
        src = np.where(flip[None, :], np.minimum(neg, neg - q), self.data)
        out = np.empty_like(self.data)
        out[:, dest] = src
        return RnsPoly(self.context, out, self.basis)

    # ------------------------------------------------------------------
    # Basis management: extension, rescale, mod-down
    # ------------------------------------------------------------------

    def extend_basis(self, extra_indices):
        """Fast base extension: add limbs for ``extra_indices`` (mod-up)."""
        extra = tuple(extra_indices)
        if any(i in self.basis for i in extra):
            raise ValueError("extension indices overlap the current basis")
        converted = self.context.base_convert(self.data, self.basis, extra)
        data = np.concatenate([self.data, converted], axis=0)
        return RnsPoly(self.context, data, self.basis + extra)

    def keep_basis(self, indices):
        """Project onto a sub-basis (drop limbs; no value change mod kept q)."""
        indices = tuple(indices)
        rows = [self.basis.index(i) for i in indices]
        return RnsPoly(self.context, self.data[rows].copy(), indices)

    def rescale_by_last(self):
        """Exact divide-and-round by the last modulus in the basis.

        Computes ``(x - [x]_{q_last}) / q_last`` in every remaining limb,
        using the centered representative of the dropped limb so the result
        is the correctly rounded quotient up to ±1.
        """
        if len(self.basis) < 2:
            raise ValueError("cannot rescale a single-limb polynomial")
        last_idx = self.basis[-1]
        q_last = self.context.moduli[last_idx]
        # Centered lift of the dropped residue: r in (-q_last/2, q_last/2].
        last_signed = self.data[-1].astype(np.int64)
        r = np.where(last_signed > q_last // 2, last_signed - q_last, last_signed)
        out_basis = self.basis[:-1]
        q = self.context.moduli_column(out_basis)
        inv = self.context.modinv_column(q_last, out_basis)
        r_mod_q = (r[None, :] % q.astype(np.int64)).astype(np.uint64)
        diff = self.data[:-1] + (q - r_mod_q)
        diff = np.minimum(diff, diff - q)
        return RnsPoly(self.context, diff * inv % q, out_basis)

    def mod_down_by(self, special_indices):
        """Divide by the product of the special moduli (keyswitch mod-down).

        ``self`` must contain ``special_indices`` as its trailing limbs.
        Returns the polynomial ``round(self / P)`` in the remaining basis.
        """
        special = tuple(special_indices)
        if self.basis[-len(special):] != special:
            raise ValueError(
                f"special indices {special} are not the trailing limbs of "
                f"basis {self.basis}"
            )
        keep = self.basis[: -len(special)]
        p_part = self.data[-len(special):]
        converted = self.context.base_convert(p_part, special, keep)
        big_p = self.context.modulus_product(special)
        q = self.context.moduli_column(keep)
        inv = self.context.modinv_column(big_p, keep)
        diff = self.data[: len(keep)] + (q - converted)
        diff = np.minimum(diff, diff - q)
        return RnsPoly(self.context, diff * inv % q, keep)

    # ------------------------------------------------------------------
    # Reconstruction (for decoding / debugging)
    # ------------------------------------------------------------------

    def to_int_coeffs(self, centered=True):
        """CRT-reconstruct the coefficients as Python ints.

        With ``centered=True`` coefficients land in ``(-Q/2, Q/2]``.
        """
        big_q = self.context.modulus_product(self.basis)
        n = self.context.poly_degree
        total = np.zeros(n, dtype=object)
        for row, idx in enumerate(self.basis):
            q = self.context.moduli[idx]
            qhat = big_q // q
            qhat_inv = mod_inverse(qhat % q, q)
            factor = qhat * qhat_inv
            total = total + self.data[row].astype(object) * factor
        total = total % big_q
        if centered:
            total = np.array(
                [c - big_q if c > big_q // 2 else c for c in total],
                dtype=object,
            )
        return total

    def __repr__(self):
        return (
            f"RnsPoly(degree={self.context.poly_degree}, "
            f"limbs={len(self.basis)}, basis={self.basis})"
        )
