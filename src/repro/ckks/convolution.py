"""Functional homomorphic 2-D convolution (the ConvBN kernel).

An encrypted feature map is packed row-major into the slot vector; a
``k x k`` plaintext kernel becomes ``k*k - 1`` slot rotations plus
per-tap plaintext multiplies and additions — exactly the Table-I ConvBN
unit (a 3x3 kernel costs 8 Rotations, with the BN fold adding the extra
PMult/HAdd).  Boundaries wrap cyclically (the packed implementations of
[12] mask borders during repacking; the masking is orthogonal to the
computation pattern this module demonstrates).
"""

from __future__ import annotations

import numpy as np

from repro.ckks.ciphertext import Ciphertext

__all__ = ["Conv2d", "pack_image", "unpack_image", "average_pool_kernel"]


def pack_image(image):
    """Flatten an ``H x W`` image row-major into a slot vector."""
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("image must be 2-D")
    return arr.reshape(-1)


def unpack_image(slots, height, width):
    """Recover an ``H x W`` image from decoded slots."""
    flat = np.asarray(slots)[: height * width]
    return flat.reshape(height, width)


def average_pool_kernel(k):
    """The paper's AvgPool-as-convolution kernel: all taps ``1/k**2``.

    (Section III-A: "regard the averaging operation as a two-dimensional
    convolution of the input with a convolution kernel with 1/k^2 values
    for all elements".)
    """
    if k < 1:
        raise ValueError("pool size must be >= 1")
    return np.full((k, k), 1.0 / (k * k))


class Conv2d:
    """Cyclic 2-D convolution of one encrypted channel.

    Parameters
    ----------
    context:
        The CKKS context; ``height * width`` must fit the slot count.
    kernel:
        ``k x k`` plaintext weights (``k`` odd).
    height, width:
        Feature-map geometry of the packed ciphertext.
    bias:
        Optional scalar folded in after the taps (the BN fold of ConvBN).
    """

    def __init__(self, context, kernel, height, width, bias=0.0):
        k = np.asarray(kernel, dtype=np.float64)
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise ValueError("kernel must be square")
        if k.shape[0] % 2 == 0:
            raise ValueError("kernel size must be odd")
        if height * width > context.params.slot_count:
            raise ValueError(
                f"{height}x{width} image exceeds "
                f"{context.params.slot_count} slots"
            )
        self.context = context
        self.kernel = k
        self.height = height
        self.width = width
        self.bias = float(bias)
        r = k.shape[0] // 2
        self._taps = [
            (dy * width + dx, k[dy + r, dx + r])
            for dy in range(-r, r + 1)
            for dx in range(-r, r + 1)
            if abs(k[dy + r, dx + r]) > 0
        ]

    def required_rotation_steps(self):
        """Rotation steps needing Galois keys (8 for a dense 3x3)."""
        return sorted({off for off, _ in self._taps if off != 0})

    def apply(self, ct: Ciphertext, evaluator, galois_keys) -> Ciphertext:
        """Convolve the encrypted feature map; returns a rescaled ct."""
        scale = evaluator.context.params.scale
        shifted = evaluator.rotate_many(
            ct, [offset for offset, _ in self._taps], galois_keys)
        acc = None
        for rotated, (_, weight) in zip(shifted, self._taps):
            term = evaluator.multiply_const(rotated, weight, scale=scale)
            acc = term if acc is None else evaluator.add(acc, term)
        if acc is None:
            raise ValueError("kernel has no non-zero taps")
        out = evaluator.rescale(acc)
        if self.bias:
            out = evaluator.add_const(out, self.bias)
        return out

    def reference(self, image):
        """Plaintext cyclic convolution for validation."""
        img = np.asarray(image, dtype=np.float64)
        if img.shape != (self.height, self.width):
            raise ValueError(
                f"expected {(self.height, self.width)}, got {img.shape}"
            )
        out = np.zeros_like(img)
        flat = img.reshape(-1)
        n = flat.size
        for offset, weight in self._taps:
            out += weight * np.roll(flat, -offset).reshape(img.shape)
        return out + self.bias
