"""The RNS moduli chain and fast base conversion.

A CKKS context owns one :class:`RnsContext` holding the ordered list of
primes ``[q_0, ..., q_L, p_0, ..., p_{k-1}]`` (data moduli followed by
special keyswitching moduli), a negacyclic NTT per prime, and the constants
needed for the HPS-style approximate base conversion used in keyswitching
(mod-up to the extended basis and mod-down by the special product ``P``).

Limb loops are batched: NTTs run through stacked
:class:`~repro.math.ntt.NttKernel` passes that process a chunk of limbs in
single ndarray ops (chunk size bounded by :data:`_CHUNK_ELEMENTS` so the
working set stays cache-resident at large ``N``), and the per-basis
constant columns every operation needs are memoized on the context.
The kernels themselves come from the process-wide
:func:`~repro.math.ntt.get_ntt_kernel` cache; base conversion is plain
numpy here.
"""

from __future__ import annotations

import numpy as np

from repro.math.modular import mod_inverse
from repro.math.ntt import get_ntt_context, get_ntt_kernel
from repro.math.primes import find_ntt_primes
from repro.obs.metrics import inc as _metric_inc

__all__ = ["RnsContext"]

#: Upper bound on ``limbs * N`` per stacked NTT pass.  Larger stacks thrash
#: the cache and lose to processing limbs chunk by chunk (measured ~2x at
#: ``N = 16384``); smaller degrees gain ~4x from full stacking.
_CHUNK_ELEMENTS = 32768


class RnsContext:
    """Moduli chain with per-prime NTT tables and base-conversion constants.

    Parameters
    ----------
    poly_degree:
        Ring dimension ``N`` (power of two).
    data_moduli:
        The ciphertext moduli ``q_0 .. q_L`` (ordered; ``q_0`` first).
    special_moduli:
        The keyswitch extension moduli ``p_0 .. p_{k-1}``.
    """

    def __init__(self, poly_degree, data_moduli, special_moduli):
        self.poly_degree = int(poly_degree)
        self.data_moduli = tuple(int(q) for q in data_moduli)
        self.special_moduli = tuple(int(p) for p in special_moduli)
        self.moduli = self.data_moduli + self.special_moduli
        if len(set(self.moduli)) != len(self.moduli):
            raise ValueError("moduli chain contains duplicates")
        self.ntts = tuple(
            get_ntt_context(self.poly_degree, q) for q in self.moduli
        )
        self.data_indices = tuple(range(len(self.data_moduli)))
        self.special_indices = tuple(
            range(len(self.data_moduli), len(self.moduli))
        )
        self._conv_cache = {}
        self._column_cache = {}
        self._modinv_cache = {}
        self._kernel_cache = {}

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        poly_degree,
        first_modulus_bits,
        scale_modulus_bits,
        num_scale_moduli,
        special_modulus_bits=None,
        num_special_moduli=1,
    ):
        """Build a chain ``[q_0, scale primes..., special primes...]``.

        ``q_0`` is the wide base modulus that survives to level 0;
        the scale primes sit near ``2**scale_modulus_bits`` so rescaling
        divides out almost exactly one scale factor.
        """
        if special_modulus_bits is None:
            special_modulus_bits = first_modulus_bits
        first = find_ntt_primes(poly_degree, first_modulus_bits, 1)
        scales = find_ntt_primes(
            poly_degree, scale_modulus_bits, num_scale_moduli, exclude=first
        )
        specials = find_ntt_primes(
            poly_degree,
            special_modulus_bits,
            num_special_moduli,
            exclude=tuple(first) + tuple(scales),
        )
        return cls(poly_degree, first + scales, specials)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def modulus_product(self, indices):
        """Return the product of the moduli at ``indices`` as a Python int."""
        prod = 1
        for i in indices:
            prod *= self.moduli[i]
        return prod

    def log2_modulus_product(self, indices):
        """Return ``log2`` of the product of moduli at ``indices``."""
        total = 0.0
        for i in indices:
            total += float(np.log2(self.moduli[i]))
        return total

    # ------------------------------------------------------------------
    # Memoized per-basis constants and kernels
    # ------------------------------------------------------------------

    def moduli_column(self, basis):
        """Read-only ``(len(basis), 1)`` uint64 column of the basis moduli."""
        basis = tuple(basis)
        col = self._column_cache.get(basis)
        if col is None:
            col = np.array(
                [self.moduli[i] for i in basis], dtype=np.uint64
            )[:, None]
            col.setflags(write=False)
            self._column_cache[basis] = col
        return col

    def modinv_column(self, value, basis):
        """Read-only column of ``value^{-1} mod q`` for each ``q`` in basis.

        ``value`` may be an arbitrarily large Python int (e.g. the special
        product ``P``); it must be invertible modulo every basis prime.
        """
        basis = tuple(basis)
        key = (int(value), basis)
        col = self._modinv_cache.get(key)
        if col is None:
            col = np.array(
                [mod_inverse(value % self.moduli[i], self.moduli[i])
                 for i in basis],
                dtype=np.uint64,
            )[:, None]
            col.setflags(write=False)
            if len(self._modinv_cache) >= 256:
                self._modinv_cache.clear()
            self._modinv_cache[key] = col
        return col

    def kernel_chunks(self, basis):
        """Stacked NTT kernels covering ``basis`` in cache-sized limb chunks.

        Returns a list of ``(row_slice, kernel)`` pairs; concatenating the
        slices covers ``range(len(basis))`` in order.
        """
        basis = tuple(basis)
        chunks = self._kernel_cache.get(basis)
        if chunks is None:
            step = max(1, _CHUNK_ELEMENTS // self.poly_degree)
            chunks = []
            for start in range(0, len(basis), step):
                part = basis[start : start + step]
                kernel = get_ntt_kernel(
                    self.poly_degree,
                    tuple(self.moduli[i] for i in part),
                )
                chunks.append((slice(start, start + len(part)), kernel))
            if len(self._kernel_cache) >= 64:
                self._kernel_cache.clear()
            self._kernel_cache[basis] = chunks
        return chunks

    # ------------------------------------------------------------------
    # Stacked NTT passes
    # ------------------------------------------------------------------

    def ntt_forward(self, data, basis):
        """Forward NTT of a residue stack over ``basis``.

        ``data`` has shape ``(..., len(basis), N)``: any number of
        polynomials over the same basis (a ciphertext's two components, a
        keyswitch's digits) are transformed together, so the butterfly
        network runs once per cache-sized chunk rather than once per
        polynomial.  Output residues are fully reduced.
        """
        return self._stacked(data, basis, "forward")

    def ntt_inverse(self, data, basis):
        """Inverse NTT of a ``(..., len(basis), N)`` stack over ``basis``."""
        return self._stacked(data, basis, "inverse")

    def _stacked(self, data, basis, direction):
        n = self.poly_degree
        polys = data.reshape(-1, len(basis), n)
        _metric_inc("math.ntt.calls", polys.shape[0] * len(basis),
                    direction=direction)
        out = np.empty_like(polys)
        budget = max(1, _CHUNK_ELEMENTS // n)
        for rows, kernel in self.kernel_chunks(basis):
            transform = getattr(kernel, direction)
            # As many polynomials per pass as keep the chunk cache-sized.
            per = max(1, budget // (rows.stop - rows.start))
            for start in range(0, len(polys), per):
                batch = slice(start, start + per)
                out[batch, rows] = transform(polys[batch, rows])
        return out.reshape(data.shape)

    # ------------------------------------------------------------------
    # Fast (HPS) base conversion
    # ------------------------------------------------------------------

    def _conversion_tables(self, from_idx, to_idx):
        """Precompute and cache the constants for ``from_idx -> to_idx``.

        Returns ``(qhat_inv, qhat_mod_target, prod_mod_target, from_col,
        to_col, from_inv)`` where ``qhat_inv[i] = (Q/q_i)^{-1} mod q_i`` and
        ``qhat_mod_target[i][j] = (Q/q_i) mod t_j``.
        """
        key = (tuple(from_idx), tuple(to_idx))
        cached = self._conv_cache.get(key)
        if cached is not None:
            return cached
        from_moduli = [self.moduli[i] for i in from_idx]
        to_moduli = [self.moduli[j] for j in to_idx]
        big_q = 1
        for q in from_moduli:
            big_q *= q
        qhat = [big_q // q for q in from_moduli]
        qhat_inv = np.array(
            [mod_inverse(h % q, q) for h, q in zip(qhat, from_moduli)],
            dtype=np.uint64,
        )[:, None]
        qhat_mod_target = np.array(
            [[h % t for t in to_moduli] for h in qhat], dtype=np.uint64
        )
        prod_mod_target = np.array(
            [big_q % t for t in to_moduli], dtype=np.uint64
        )[:, None]
        from_col = np.array(from_moduli, dtype=np.uint64)[:, None]
        to_col = np.array(to_moduli, dtype=np.uint64)[:, None]
        from_inv = 1.0 / from_col.astype(np.float64)
        tables = (qhat_inv, qhat_mod_target, prod_mod_target,
                  from_col, to_col, from_inv)
        self._conv_cache[key] = tables
        return tables

    def base_convert(self, data, from_idx, to_idx):
        """Approximately convert residues between RNS bases.

        ``data`` has shape ``(len(from_idx), N)``.  Returns an array of shape
        ``(len(to_idx), N)`` holding the residues of the *centered*
        representative of the input modulo each target modulus, using the
        HPS floating-point correction for the multiple-of-Q overshoot.  The
        result can be off by a small additive error (bounded by the number
        of source limbs), which is absorbed by CKKS noise — exactly the
        approximation FHE hardware implements.
        """
        data = np.asarray(data, dtype=np.uint64)
        if data.shape[0] != len(from_idx):
            raise ValueError(
                f"data has {data.shape[0]} limbs, basis has {len(from_idx)}"
            )
        (qhat_inv, qhat_mod_target, prod_mod_target,
         from_col, to_col, from_inv) = self._conversion_tables(from_idx,
                                                               to_idx)
        # t_i = x_i * (Q/q_i)^{-1} mod q_i, all limbs in one pass.
        t = data * qhat_inv % from_col
        # v counts how many multiples of Q the CRT sum overshoots by.
        frac = (t.astype(np.float64) * from_inv).sum(axis=0)
        v = np.rint(frac).astype(np.uint64)
        out = np.zeros((to_col.shape[0], data.shape[1]), dtype=np.uint64)
        for i in range(t.shape[0]):
            # acc and the reduced product are both < p, so the sum is
            # < 2p and one wraparound-minimum replaces the second ``%``.
            s = out + t[i][None, :] * qhat_mod_target[i][:, None] % to_col
            out = np.minimum(s, s - to_col)
        correction = v[None, :] * prod_mod_target % to_col
        out += to_col - correction
        return np.minimum(out, out - to_col)
