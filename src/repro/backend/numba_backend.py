"""Numba-compiled kernel provider (``numba``).

Compiles the Harvey lazy-reduction radix-2 butterfly network with
``numba.njit(parallel=True)``: one scalar butterfly loop per limb,
``prange`` across the limb stack (the same limb-level parallelism
Hydra's 512-lane NTT unit exploits spatially).  Outputs are byte-
identical to the numpy provider — both implement the same transform
with fully reduced ``[0, q)`` results — so the parity suite pins it.

numba is an *optional* dependency.  When it is not installed the
registry falls back to the numpy provider with a ``RuntimeWarning``
(requesting a compiled backend on a box without a compiler should
degrade, not crash); availability is reported by ``repro backend list``
and the parity tests skip themselves.

Compilation is lazy: the jitted functions are built on the first kernel
use, so importing this module never triggers a JIT pass.
"""

from __future__ import annotations

import importlib.util

import numpy as np

from repro.backend.provider import BackendUnavailable, KernelProvider

__all__ = ["NumbaProvider", "NumbaNttKernel"]

_JIT = None  # (forward, inverse) compiled pair, built once per process


def _compiled():
    """Build (once) the jitted forward/inverse limb-parallel passes."""
    global _JIT
    if _JIT is None:
        try:
            from numba import njit, prange
        except ImportError as exc:  # pragma: no cover - guarded upstream
            raise BackendUnavailable(
                "the numba backend requires the optional numba package"
            ) from exc

        @njit(parallel=True, nogil=True)
        def forward(a, psi, q, reduce_output):
            limbs, n = a.shape
            for li in prange(limbs):
                row = a[li]
                tw = psi[li]
                qq = q[li]
                t = n
                m = 1
                while m < n:
                    t //= 2
                    for i in range(m):
                        s = tw[m + i]
                        j1 = 2 * i * t
                        for j in range(j1, j1 + t):
                            u = row[j]
                            if u >= qq:          # exact reduce to [0, q)
                                u -= qq
                            vr = row[j + t] * s % qq
                            row[j] = u + vr      # < 2q
                            row[j + t] = u + (qq - vr)
                    m *= 2
                if reduce_output:
                    for j in range(n):
                        if row[j] >= qq:
                            row[j] -= qq
            return a

        @njit(parallel=True, nogil=True)
        def inverse(a, psi_inv, q, n_inv):
            limbs, n = a.shape
            for li in prange(limbs):
                row = a[li]
                tw = psi_inv[li]
                qq = q[li]
                t = 1
                m = n // 2
                while m >= 1:
                    for i in range(m):
                        s = tw[m + i]
                        j1 = 2 * i * t
                        for j in range(j1, j1 + t):
                            u = row[j]
                            v = row[j + t]
                            if u >= qq:
                                u -= qq
                            if v >= qq:
                                v -= qq
                            row[j] = u + v                   # < 2q
                            row[j + t] = (u + qq - v) * s % qq
                    t *= 2
                    m //= 2
                scale = n_inv[li]
                for j in range(n):
                    row[j] = row[j] * scale % qq
            return a

        _JIT = (forward, inverse)
    return _JIT


class NumbaNttKernel:
    """Stacked negacyclic NTT over ``(limbs, N)`` residues, numba-jitted.

    Same contract as :class:`~repro.math.ntt.NttKernel`: inputs hold
    residues in ``[0, q)`` per limb (``inverse`` accepts ``[0, 2q)``),
    ``forward(reduce_output=False)`` returns lazy ``[0, 2q)`` values,
    everything else is fully reduced.
    """

    def __init__(self, poly_degree, *, moduli, contexts):
        self.poly_degree = int(poly_degree)
        self.moduli = tuple(int(q) for q in moduli)
        # Private NttContext tables owned by this provider's context
        # cache — never shared with another backend's kernels.
        self._psi = np.stack([c._psi_rev for c in contexts])
        self._psi_inv = np.stack([c._psi_inv_rev for c in contexts])
        self._q = np.array(self.moduli, dtype=np.uint64)
        self._q1 = self._q[:, None]
        self._n_inv = np.array(
            [c._degree_inv for c in contexts], dtype=np.uint64
        )

    def forward(self, data, reduce_output=True):
        fwd, _ = _compiled()
        return fwd(data.copy(), self._psi, self._q, reduce_output)

    def inverse(self, data):
        _, inv = _compiled()
        return inv(data.copy(), self._psi_inv, self._q, self._n_inv)

    def negacyclic_multiply(self, a, b):
        fwd, inv = _compiled()
        fa = fwd(a.copy(), self._psi, self._q, False)
        fb = fwd(b.copy(), self._psi, self._q, False)
        # fa, fb < 2q < 2**32: the pointwise product fits in uint64.
        return inv(fa * fb % self._q1, self._psi_inv, self._q, self._n_inv)


class NumbaProvider(KernelProvider):
    """Compiled provider: njit'd Harvey butterflies, parallel over limbs."""

    name = "numba"

    def __init__(self):
        super().__init__()
        if importlib.util.find_spec("numba") is None:
            raise BackendUnavailable(
                "the numba backend requires the optional numba package "
                "(pip install numba)"
            )

    @classmethod
    def availability(cls):
        if importlib.util.find_spec("numba") is None:
            return False, "numba is not installed (pip install numba)"
        import numba

        return True, f"numba {numba.__version__}"

    def make_kernel(self, poly_degree, moduli):
        contexts = tuple(self.get_context(poly_degree, q) for q in moduli)
        return NumbaNttKernel(poly_degree, moduli=moduli, contexts=contexts)
