"""CKKS parameter sets.

Two regimes are used throughout the repository:

* **Functional parameters** (small ``N``, ~25–30-bit moduli): run the real
  scheme in Python to validate semantics — encode/encrypt/evaluate/decrypt,
  rotations, linear transforms, bootstrapping.
* **Paper parameters** (``N = 2**16``, ``log(PQ) = 1692``, ``logQ = 1260``,
  as in SHARP/Hydra): too large to execute in Python, used by the cost
  model to size ciphertexts, limb counts and operator counts.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CkksParameters", "PAPER_PARAMS", "toy_parameters"]


@dataclass(frozen=True)
class CkksParameters:
    """Static CKKS scheme parameters.

    Attributes
    ----------
    poly_degree:
        Ring dimension ``N``.
    first_modulus_bits:
        Bit size of the base modulus ``q_0``.
    scale_bits:
        log2 of the encoding scale; scale primes are chosen near
        ``2**scale_bits`` so rescaling divides out one scale exactly.
    num_scale_moduli:
        Number of rescale levels ``L`` (fresh ciphertexts allow this many
        multiplications before bootstrapping).
    special_modulus_bits / num_special_moduli:
        Size and count of keyswitch extension primes.
    error_stddev:
        Standard deviation of the RLWE error distribution.
    secret_hamming_weight:
        Hamming weight of the ternary secret (``None`` = dense ternary).
        Bootstrapping requires a sparse secret to bound the modular
        overflow count ``I``.
    """

    poly_degree: int
    first_modulus_bits: int
    scale_bits: int
    num_scale_moduli: int
    special_modulus_bits: int = 30
    num_special_moduli: int = 2
    error_stddev: float = 3.2
    secret_hamming_weight: int = None

    def __post_init__(self):
        n = self.poly_degree
        if n < 8 or n & (n - 1):
            raise ValueError(f"poly_degree must be a power of two >= 8, got {n}")
        if self.first_modulus_bits > 31 or self.special_modulus_bits > 31:
            raise ValueError("functional moduli must fit in 31 bits")
        if self.scale_bits >= self.first_modulus_bits:
            raise ValueError("scale must be smaller than the first modulus")

    @property
    def slot_count(self):
        """Number of complex slots (``N/2``)."""
        return self.poly_degree // 2

    @property
    def scale(self):
        """The default encoding scale ``2**scale_bits``."""
        return float(2 ** self.scale_bits)

    @property
    def max_level(self):
        """Highest level of a fresh ciphertext (= number of scale moduli)."""
        return self.num_scale_moduli

    @property
    def log_q(self):
        """Approximate ``log2`` of the full data modulus ``Q``."""
        return self.first_modulus_bits + self.scale_bits * self.num_scale_moduli

    @property
    def log_pq(self):
        """Approximate ``log2`` of the extended modulus ``PQ``."""
        return self.log_q + self.special_modulus_bits * self.num_special_moduli


def toy_parameters(
    poly_degree=256,
    num_scale_moduli=6,
    scale_bits=25,
    secret_hamming_weight=None,
):
    """Small functional parameters for tests and examples."""
    return CkksParameters(
        poly_degree=poly_degree,
        first_modulus_bits=29,
        scale_bits=scale_bits,
        num_scale_moduli=num_scale_moduli,
        special_modulus_bits=30,
        num_special_moduli=2,
        secret_hamming_weight=secret_hamming_weight,
    )


@dataclass(frozen=True)
class PaperParameterSet:
    """The evaluation parameters shared by Hydra and SHARP (paper Table I).

    These drive the *cost model*, not the functional scheme: at
    ``N = 2**16`` a ciphertext polynomial pair is tens of megabytes and a
    single bootstrap is billions of modular operations.
    """

    poly_degree: int = 2 ** 16
    log_q: int = 1260
    log_pq: int = 1692
    modulus_word_bits: int = 36  # SHARP-style short words
    scale_bits: int = 45

    @property
    def slot_count(self):
        return self.poly_degree // 2

    @property
    def data_limbs(self):
        """Number of RNS limbs carrying the data modulus ``Q``."""
        return -(-self.log_q // self.modulus_word_bits)

    @property
    def total_limbs(self):
        """Limbs of the extended modulus ``PQ`` (during keyswitching)."""
        return -(-self.log_pq // self.modulus_word_bits)

    @property
    def special_limbs(self):
        return self.total_limbs - self.data_limbs

    def ciphertext_bytes(self, limbs=None):
        """Size of a (c0, c1) ciphertext with ``limbs`` active limbs.

        Residues are stored in 64-bit machine words, matching the >20 MB
        ciphertext size the paper quotes for fresh ciphertexts.
        """
        if limbs is None:
            limbs = self.data_limbs
        return 2 * self.poly_degree * limbs * 8

    @property
    def max_level(self):
        """Usable multiplicative levels (limbs above the base modulus)."""
        return self.data_limbs - 1


PAPER_PARAMS = PaperParameterSet()
