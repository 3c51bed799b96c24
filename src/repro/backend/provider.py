"""The kernel-provider protocol behind the NTT hot path.

A :class:`KernelProvider` is the seam between the FHE dataflow (CKKS
contexts, RNS polynomials, evaluators) and the arithmetic engine that
executes its transforms.  The paper's performance story rests on
exactly this separation: Hydra swaps a hand-built FPGA compute unit
under an unchanged host dataflow, and FAB treats NTT/keyswitch as a
replaceable accelerator block.  In this repository the same boundary
lets a numba-compiled engine replace the numpy NTT kernels without
touching a single line above :mod:`repro.poly`.

A provider is a kernel factory and nothing more.  It owns

* a **context cache** mapping ``(degree, modulus)`` to an
  :class:`~repro.math.ntt.NttContext` (the twiddle tables), and
* a **kernel cache** mapping ``(degree, moduli)`` to a stacked kernel
  operating on ``(limbs, N)`` residue arrays.

The caches are *provider-scoped* on purpose: two backends must never
share cached twiddle tables or kernels, because a provider is free to
store its tables in a different layout (transposed stages, device
buffers).  :func:`repro.backend.clear_caches` empties every provider's
caches at once.  Element-wise RNS arithmetic (add, negate, automorphism,
base conversion) is plain numpy in :mod:`repro.poly` and does not go
through the provider.
"""

from __future__ import annotations

from repro.math.ntt import NttContext, NttKernel

__all__ = ["BackendUnavailable", "KernelProvider"]


class BackendUnavailable(RuntimeError):
    """Raised when a backend's runtime dependency is missing."""


class KernelProvider:
    """Base class / protocol for pluggable kernel backends.

    Subclasses must set :attr:`name` and may override
    :meth:`make_kernel` and :meth:`availability`.
    """

    #: Registry name; subclasses must override.
    name = None

    def __init__(self):
        self._context_cache = {}
        self._kernel_cache = {}

    def __repr__(self):
        return f"<{type(self).__name__} name={self.name!r}>"

    # ------------------------------------------------------------------
    # Availability
    # ------------------------------------------------------------------

    @classmethod
    def availability(cls):
        """Return ``(available, detail)`` without importing heavy deps."""
        return True, "always available"

    # ------------------------------------------------------------------
    # Construction hook (the provider seam)
    # ------------------------------------------------------------------

    def make_kernel(self, poly_degree, moduli):
        """Build a fresh stacked kernel over ``(limbs, N)`` residues.

        The returned object must implement ``forward(data,
        reduce_output=True)``, ``inverse(data)`` and
        ``negacyclic_multiply(a, b)``.
        """
        contexts = tuple(self.get_context(poly_degree, q) for q in moduli)
        return NttKernel(poly_degree, moduli=moduli, contexts=contexts)

    # ------------------------------------------------------------------
    # Provider-scoped caches
    # ------------------------------------------------------------------

    def get_context(self, poly_degree, modulus):
        """Cached per-prime context; one table build per (degree, q)."""
        key = (int(poly_degree), int(modulus))
        ctx = self._context_cache.get(key)
        if ctx is None:
            ctx = NttContext(key[0], modulus=key[1], provider=self)
            self._context_cache[key] = ctx
        return ctx

    def get_kernel(self, poly_degree, moduli):
        """Cached stacked kernel; one build per (degree, moduli) tuple."""
        key = (int(poly_degree), tuple(int(q) for q in moduli))
        kernel = self._kernel_cache.get(key)
        if kernel is None:
            kernel = self.make_kernel(*key)
            self._kernel_cache[key] = kernel
        return kernel

    def clear_caches(self):
        """Drop every memoized context and kernel of this provider."""
        self._context_cache.clear()
        self._kernel_cache.clear()
