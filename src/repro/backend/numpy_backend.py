"""The default pure-numpy kernel provider.

This provider *is* the pre-backend behavior: it builds the exact
:class:`~repro.math.ntt.NttContext` / :class:`~repro.math.ntt.NttKernel`
objects the hot path has always used (Harvey lazy-reduction butterflies,
transposed small-span stages, stacked multi-limb passes), inheriting
:meth:`~repro.backend.provider.KernelProvider.make_kernel` unchanged.
Its output is byte-identical to the seed kernels by construction — the
parity suite pins every other provider against it.
"""

from __future__ import annotations

from repro.backend.provider import KernelProvider

__all__ = ["NumpyProvider"]


class NumpyProvider(KernelProvider):
    """Reference provider: vectorized numpy, always available."""

    name = "numpy"

    @classmethod
    def availability(cls):
        import numpy

        return True, f"numpy {numpy.__version__} (default)"
