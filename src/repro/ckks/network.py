"""Composable encrypted neural-network layers on the CKKS substrate.

Assembles the functional kernels — :class:`~repro.ckks.convolution.Conv2d`,
the BSGS :class:`~repro.ckks.linear.LinearTransform`, and polynomial
activations — into an :class:`EncryptedNetwork` that runs a whole small
CNN homomorphically: the computation the Hydra hardware accelerates,
executed in real ciphertext arithmetic at laptop scale.  The live
server's workers and the ``validate-ops`` attention block run this
class.
"""

from __future__ import annotations

import numpy as np

from repro.ckks.approx import relu_coefficients
from repro.ckks.convolution import Conv2d, average_pool_kernel
from repro.ckks.linear import LinearTransform
from repro.ckks.polyeval import evaluate_polynomial, power_tree_depth

__all__ = ["EncryptedNetwork", "ConvLayer", "ActivationLayer",
           "PoolLayer", "DenseLayer"]


class ConvLayer:
    """One ConvBN layer (single channel at toy scale)."""

    def __init__(self, kernel, height, width, bias=0.0):
        self.kernel = np.asarray(kernel, dtype=np.float64)
        self.height = height
        self.width = width
        self.bias = bias
        self._conv = None

    def bind(self, context):
        self._conv = Conv2d(context, self.kernel, self.height,
                            self.width, bias=self.bias)

    def required_rotation_steps(self):
        return self._conv.required_rotation_steps()

    def levels(self):
        return 1

    def apply(self, ct, evaluator, keys):
        return self._conv.apply(ct, evaluator, keys.galois_keys)

    def reference(self, x):
        img = x.reshape(self.height, self.width)
        return self._conv.reference(img).reshape(-1)


class PoolLayer(ConvLayer):
    """Average pooling as a uniform-kernel convolution (paper III-A)."""

    def __init__(self, k, height, width):
        super().__init__(average_pool_kernel(k), height, width)


class ActivationLayer:
    """Polynomial activation (the Non-linear layer of Table I)."""

    def __init__(self, coefficients=None, degree=7, bound=1.0):
        if coefficients is None:
            coefficients = relu_coefficients(degree=degree, bound=bound)
        self.coefficients = np.asarray(coefficients, dtype=np.complex128)

    def bind(self, context):
        pass

    def required_rotation_steps(self):
        return []

    def levels(self):
        degree = len(self.coefficients) - 1
        return power_tree_depth(degree) + 1

    def apply(self, ct, evaluator, keys):
        return evaluate_polynomial(ct, self.coefficients, evaluator,
                                   keys.relin_key)

    def reference(self, x):
        return sum(c.real * x ** k
                   for k, c in enumerate(self.coefficients))


class DenseLayer:
    """Fully connected layer (PCMM against plaintext weights).

    A rectangular ``(rows, cols)`` weight matrix is zero-padded into the
    slot grid and applied as one BSGS :class:`LinearTransform`, exposed
    as ``transform`` once bound; the output lands in slots ``[0, rows)``.
    """

    def __init__(self, weights):
        self.weights = np.asarray(weights, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ValueError("weights must be 2-D")
        self.transform = None

    def bind(self, context):
        n = context.params.slot_count
        rows, cols = self.weights.shape
        if rows > n or cols > n:
            raise ValueError(
                f"weights {self.weights.shape} exceed the {n}-slot grid"
            )
        padded = np.zeros((n, n))
        padded[:rows, :cols] = self.weights
        self.transform = LinearTransform(context, padded)

    def required_rotation_steps(self):
        return self.transform.required_rotation_steps()

    def levels(self):
        return 1

    def apply(self, ct, evaluator, keys):
        return evaluator.rescale(
            self.transform.apply(ct, evaluator, keys.galois_keys))

    def reference(self, x):
        rows, cols = self.weights.shape
        padded = np.zeros(max(cols, x.shape[0]))
        padded[: x.shape[0]] = x
        out = self.weights @ padded[:cols]
        return out


class EncryptedNetwork:
    """A sequential encrypted model.

    Usage::

        net = EncryptedNetwork([ConvLayer(k, 8, 8), ActivationLayer(),
                                DenseLayer(w)])
        net.bind(context)
        keys = net.create_keys(keygen)
        ct_out = net.apply(ct_in, evaluator, keys)
    """

    class Keys:
        def __init__(self, relin_key, galois_keys):
            self.relin_key = relin_key
            self.galois_keys = galois_keys

    def __init__(self, layers):
        if not layers:
            raise ValueError("network needs at least one layer")
        self.layers = list(layers)
        self._context = None

    def bind(self, context):
        """Precompute all layer transforms for one context."""
        self._context = context
        for layer in self.layers:
            layer.bind(context)
        return self

    def required_levels(self):
        """Multiplicative depth of one forward pass."""
        return sum(layer.levels() for layer in self.layers)

    def create_keys(self, keygen):
        """Generate exactly the key material this network needs.

        The relin key first, then Galois keys by ascending rotation
        step: ``keygen`` draws its randomness in that order, so the key
        bytes (and the live worker's pinned reply) depend on it.
        """
        if self._context is None:
            raise RuntimeError("bind() the network before creating keys")
        steps = set()
        for layer in self.layers:
            steps.update(layer.required_rotation_steps())
        ctx = self._context
        elements = [ctx.galois_element_for_step(s) for s in sorted(steps)]
        return self.Keys(
            relin_key=keygen.create_relin_key(),
            galois_keys=keygen.create_galois_keys(elements),
        )

    def apply(self, ct, evaluator, keys):
        """Run the encrypted forward pass."""
        if self._context is None:
            raise RuntimeError("bind() the network before applying it")
        if ct.level < self.required_levels():
            raise ValueError(
                f"ciphertext at level {ct.level} cannot absorb the "
                f"network's {self.required_levels()} levels"
            )
        for layer in self.layers:
            ct = layer.apply(ct, evaluator, keys)
        return ct

    def reference(self, x):
        """Plaintext forward pass for validation."""
        out = np.asarray(x, dtype=np.float64)
        for layer in self.layers:
            out = layer.reference(out)
        return out
