"""The CKKS context: moduli chain, NTT tables, encoder and helpers."""

from __future__ import annotations

from repro.ckks.encoder import CkksEncoder
from repro.ckks.params import CkksParameters
from repro.poly import RnsContext

__all__ = ["CkksContext"]


class CkksContext:
    """Owns everything derived from a :class:`CkksParameters` set.

    The context is shared by keys, plaintexts and ciphertexts; it provides
    the level → RNS-basis mapping and the Galois-element arithmetic used
    for slot rotations.
    """

    def __init__(self, params: CkksParameters):
        self.params = params
        self.rns = RnsContext.create(
            poly_degree=params.poly_degree,
            first_modulus_bits=params.first_modulus_bits,
            scale_modulus_bits=params.scale_bits,
            num_scale_moduli=params.num_scale_moduli,
            special_modulus_bits=params.special_modulus_bits,
            num_special_moduli=params.num_special_moduli,
        )
        self.encoder = CkksEncoder(params.poly_degree)
        self._galois_cache = {}

    # ------------------------------------------------------------------
    # Levels and bases
    # ------------------------------------------------------------------

    @property
    def max_level(self):
        return self.params.max_level

    def basis_at_level(self, level):
        """RNS basis (moduli indices) for a ciphertext at ``level``."""
        if not 0 <= level <= self.max_level:
            raise ValueError(
                f"level must be in [0, {self.max_level}], got {level}"
            )
        return self.rns.data_indices[: level + 1]

    def level_of_basis(self, basis):
        return len(basis) - 1

    def scale_modulus_at_level(self, level):
        """The modulus divided out when rescaling *from* ``level``."""
        basis = self.basis_at_level(level)
        return self.rns.moduli[basis[-1]]

    # ------------------------------------------------------------------
    # Galois elements
    # ------------------------------------------------------------------

    def galois_element_for_step(self, steps):
        """Galois element implementing a left slot-rotation by ``steps``.

        Memoized: rotation-heavy code (BSGS transforms, bootstrapping)
        resolves the same handful of steps over and over.
        """
        n = self.params.slot_count
        steps = steps % n
        element = self._galois_cache.get(steps)
        if element is None:
            two_n = 2 * self.params.poly_degree
            element = pow(5, steps, two_n)
            self._galois_cache[steps] = element
        return element

    @property
    def conjugation_element(self):
        """Galois element implementing complex conjugation of slots."""
        return 2 * self.params.poly_degree - 1

    def rotation_steps_for_elements(self, steps_list):
        """Deduplicated Galois elements for a list of rotation steps."""
        return sorted({self.galois_element_for_step(s) for s in steps_list
                       if s % self.params.slot_count != 0})
