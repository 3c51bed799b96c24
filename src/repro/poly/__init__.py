"""RNS polynomial arithmetic over the CKKS moduli chain.

Hydra's compute units operate limb-wise on residue-number-system (RNS)
polynomials: every FHE ciphertext polynomial is stored as one residue
polynomial per prime modulus, and NTT / MA / MM / Automorphism units each
process one limb at a time.  This package provides the software equivalent:

* :class:`repro.poly.rns.RnsContext` — the moduli chain (data primes +
  special keyswitching primes), per-modulus NTT tables, and precomputed
  base-conversion constants.
* :class:`repro.poly.polynomial.RnsPoly` — an immutable-shape polynomial in
  a subset of the chain's moduli, with ring arithmetic, automorphisms,
  rescaling and fast base extension.
* :func:`repro.poly.polynomial.automorphism_evaluation` — ``X -> X**g`` on
  evaluation-form residues, a pure index map.
"""

from repro.poly.polynomial import RnsPoly, automorphism_evaluation
from repro.poly.rns import RnsContext

__all__ = ["RnsContext", "RnsPoly", "automorphism_evaluation"]
