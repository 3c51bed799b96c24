"""Functional CCMM building blocks on the CKKS substrate.

Paper Section III-A describes the transformer kernels of [13]:

* **PCMM** (plaintext-ciphertext matrix multiplication): encrypted
  activations against plaintext weights — slot-wise this is the BSGS
  :class:`~repro.ckks.linear.LinearTransform`, zero-padded from a
  rectangular matrix by :class:`~repro.ckks.network.DenseLayer`.
* **CCMM** (ciphertext-ciphertext matrix multiplication): both operands
  encrypted; built from slot products plus rotate-and-sum reductions —
  each reduction is the Table-I CCMM unit's "multiple rotations".

These run the real cryptography at toy sizes; the performance model costs
the same structure at paper scale.
"""

from __future__ import annotations

__all__ = ["sum_slots", "ciphertext_dot", "ciphertext_matrix_vector"]


def sum_slots(ct, evaluator, galois_keys, width=None):
    """Rotate-and-sum: every slot of the result holds the slot total.

    ``width`` (a power of two, default: all slots) limits the reduction
    to the first ``width`` slots when data is packed in blocks.
    Uses ``log2(width)`` rotations — the reduction pattern inside CCMM.
    """
    n = evaluator.context.params.slot_count
    if width is None:
        width = n
    if width < 1 or width & (width - 1):
        raise ValueError(f"width must be a power of two, got {width}")
    if width > n:
        raise ValueError(f"width {width} exceeds slot count {n}")
    step = 1
    while step < width:
        ct = evaluator.add(ct, evaluator.rotate(ct, step, galois_keys))
        step *= 2
    return ct


def ciphertext_dot(ct_a, ct_b, evaluator, relin_key, galois_keys,
                   width=None):
    """Inner product of two encrypted vectors (1 CMult + log rotations).

    The result appears in every slot (of the reduced block).
    """
    prod = evaluator.rescale(evaluator.multiply(ct_a, ct_b, relin_key))
    return sum_slots(prod, evaluator, galois_keys, width=width)


def required_rotation_steps_for_sum(width):
    """Rotation steps :func:`sum_slots` needs keys for."""
    steps = []
    step = 1
    while step < width:
        steps.append(step)
        step *= 2
    return steps


def ciphertext_matrix_vector(row_cts, ct_vector, evaluator, relin_key,
                             galois_keys, width):
    """CCMM building block: encrypted matrix (list of encrypted rows)
    times encrypted vector.

    Returns one ciphertext per output element, each holding the dot
    product broadcast across its reduced block.  This is the
    row-packing formulation the paper attributes to [13]; at paper scale
    one ciphertext packs many rows, here each toy row is one ciphertext.
    """
    if not row_cts:
        raise ValueError("need at least one matrix row")
    return [
        ciphertext_dot(row, ct_vector, evaluator, relin_key, galois_keys,
                       width=width)
        for row in row_cts
    ]
