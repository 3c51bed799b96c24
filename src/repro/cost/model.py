"""Per-operation latency model.

Every FHE operation decomposes into passes of the four compute units over
RNS limbs (one pass = ``N / lanes`` cycles streaming one limb through a
unit) plus HBM traffic.  Latency is ``max(compute, memory)`` — the FPGA
overlaps its streaming datapath with HBM prefetch, so whichever is slower
paces the pipeline.  This is the standard first-order model for
memory-intensive FHE accelerators (FAB, MAD, Poseidon all reason this way).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

from repro.ckks.params import PAPER_PARAMS
from repro.ir import coerce_op

__all__ = ["OpComponents", "OpCostModel"]

_WORD_BYTES = 8


@dataclass(frozen=True)
class OpComponents:
    """Busy time per compute unit plus memory and network traffic.

    ``seconds`` is the wall-clock latency of the operation on the card it
    was priced for; per-unit times and byte counts feed the energy model.
    """

    ntt_s: float = 0.0
    mm_s: float = 0.0
    ma_s: float = 0.0
    auto_s: float = 0.0
    hbm_bytes: float = 0.0
    hbm_s: float = 0.0

    @property
    def compute_s(self):
        """Pacing compute time: the four CUs stream concurrently, so the
        slowest unit paces the dataflow (paper Fig. 4: each CU has its own
        buffers and operates independently)."""
        return max(self.ntt_s, self.mm_s, self.ma_s, self.auto_s)

    @property
    def seconds(self):
        return max(self.compute_s, self.hbm_s)

    def __add__(self, other):
        return OpComponents(
            ntt_s=self.ntt_s + other.ntt_s,
            mm_s=self.mm_s + other.mm_s,
            ma_s=self.ma_s + other.ma_s,
            auto_s=self.auto_s + other.auto_s,
            hbm_bytes=self.hbm_bytes + other.hbm_bytes,
            hbm_s=self.hbm_s + other.hbm_s,
        )

    def scaled(self, factor):
        return OpComponents(
            ntt_s=self.ntt_s * factor,
            mm_s=self.mm_s * factor,
            ma_s=self.ma_s * factor,
            auto_s=self.auto_s * factor,
            hbm_bytes=self.hbm_bytes * factor,
            hbm_s=self.hbm_s * factor,
        )

    def to_dict(self):
        """JSON-serializable form (exact float round-trip)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data):
        return cls(**data)


def _per_level(method):
    """Memoize an op price: it is pure in (card, params, level), and
    :class:`OpComponents` is frozen, so every caller can share it."""
    name = method.__name__

    @functools.wraps(method)
    def priced(self, level):
        key = (name, level)
        price = self._prices.get(key)
        if price is None:
            price = self._prices[key] = method(self, level)
        return price

    return priced


class OpCostModel:
    """Prices FHE operations on one :class:`repro.hw.CardSpec`.

    Parameters default to the paper's evaluation setting
    (``N = 2**16``, ``logQ = 1260``, ``log(PQ) = 1692``, 36-bit words).
    Per-level op prices are computed once per model.
    """

    def __init__(self, card, params=PAPER_PARAMS):
        self.card = card
        self.params = params
        self._t_pass = (
            params.poly_degree / card.lanes
        ) / (card.frequency_hz * card.pipeline_efficiency)
        self._t_ntt_limb = card.ntt_stage_passes * self._t_pass
        self._limb_bytes = params.poly_degree * _WORD_BYTES
        self._special = params.special_limbs
        self._prices = {}

    # ------------------------------------------------------------------
    # Sizing helpers
    # ------------------------------------------------------------------

    def limbs(self, level):
        """Active data limbs of a ciphertext at ``level``."""
        if not 0 <= level <= self.params.max_level:
            raise ValueError(
                f"level must be in [0, {self.params.max_level}], got {level}"
            )
        return level + 1

    def dnum(self, level):
        """Keyswitch digit count at ``level`` (hybrid decomposition)."""
        return max(1, math.ceil(self.limbs(level) / self._special))

    def ciphertext_bytes(self, level):
        """Size of one (c0, c1) ciphertext at ``level``."""
        return 2 * self.limbs(level) * self._limb_bytes

    # ------------------------------------------------------------------
    # Elementary pieces
    # ------------------------------------------------------------------

    def _hbm_seconds(self, limb_passes, key_limb_passes):
        """HBM time for data traffic (scratchpad-filtered) plus key streams.

        Switching keys are streamed once per keyswitch and are far larger
        than any on-chip cache, so they never benefit from reuse; ordinary
        operand traffic is filtered by the card's scratchpad_reuse (the MAD
        optimization Hydra adopts, paper Section IV-B).
        """
        traffic = (
            limb_passes * (1.0 - self.card.scratchpad_reuse)
            + key_limb_passes
        ) * self._limb_bytes
        return traffic, traffic / self.card.effective_hbm_bandwidth

    def _make(self, ntt_limbs=0.0, mm_passes=0.0, ma_passes=0.0,
              auto_passes=0.0, hbm_limb_passes=0.0, key_limb_passes=0.0):
        bytes_, hbm_s = self._hbm_seconds(hbm_limb_passes, key_limb_passes)
        return OpComponents(
            ntt_s=ntt_limbs * self._t_ntt_limb,
            mm_s=mm_passes * self._t_pass,
            ma_s=ma_passes * self._t_pass,
            auto_s=auto_passes * self._t_pass,
            hbm_bytes=bytes_,
            hbm_s=hbm_s,
        )

    # ------------------------------------------------------------------
    # FHE operations
    # ------------------------------------------------------------------

    @_per_level
    def hadd(self, level):
        """Homomorphic addition: 2 polys of limb-wise modular adds."""
        l = self.limbs(level)
        return self._make(ma_passes=2 * l, hbm_limb_passes=6 * l)

    @_per_level
    def pmult(self, level):
        """Plaintext-ciphertext multiply: 2 polys of limb-wise modmuls."""
        l = self.limbs(level)
        return self._make(mm_passes=2 * l, hbm_limb_passes=5 * l)

    @_per_level
    def rescale(self, level):
        """Divide-and-round by the last modulus (both polys)."""
        l = self.limbs(level)
        return self._make(ntt_limbs=2, mm_passes=2 * l, ma_passes=2 * l,
                          hbm_limb_passes=6 * l)

    @_per_level
    def keyswitch(self, level):
        """Hybrid keyswitch: digit decomposition + key inner product.

        Per digit: inverse-NTT the digit's source limbs, base-extend to
        the ``Q_l ∪ P`` basis, forward-NTT the extension, then a 2-poly
        multiply-accumulate against the key; finally mod-down by ``P``.
        The switching-key stream dominates HBM traffic.
        """
        l = self.limbs(level)
        k = self._special
        d = self.dnum(level)
        ext = l + k
        digit_src = math.ceil(l / d)
        ntt_limbs = d * (digit_src + ext) + 2 * k
        mm_passes = d * (ext + 2 * ext) + 2 * l
        ma_passes = d * 2 * ext + 2 * l
        data_passes = d * ext + 6 * l  # digit staging + ct read/write
        key_passes = d * 2 * ext  # switching-key stream, never cached
        return self._make(ntt_limbs=ntt_limbs, mm_passes=mm_passes,
                          ma_passes=ma_passes, hbm_limb_passes=data_passes,
                          key_limb_passes=key_passes)

    @_per_level
    def automorphism(self, level):
        """Index permutation of both polys (the Automorphism unit)."""
        l = self.limbs(level)
        return self._make(auto_passes=2 * l, hbm_limb_passes=4 * l)

    @_per_level
    def rotation(self, level):
        """Slot rotation = automorphism + keyswitch."""
        return self.automorphism(level) + self.keyswitch(level)

    @_per_level
    def cmult(self, level):
        """Ciphertext-ciphertext multiply incl. relinearization."""
        l = self.limbs(level)
        tensor = self._make(mm_passes=4 * l, ma_passes=3 * l,
                            hbm_limb_passes=8 * l)
        return tensor + self.keyswitch(level)

    def conjugate(self, level):
        """Complex conjugation — costed identically to a rotation."""
        return self.rotation(level)

    def op(self, name, level):
        """Dispatch by operation (:class:`~repro.ir.FheOp` or its name)."""
        name = coerce_op(name).value
        table = {
            "hadd": self.hadd,
            "pmult": self.pmult,
            "cmult": self.cmult,
            "rotation": self.rotation,
            "rescale": self.rescale,
            "keyswitch": self.keyswitch,
            "automorphism": self.automorphism,
            "conjugate": self.conjugate,
        }
        try:
            return table[name](level)
        except KeyError:
            raise ValueError(
                f"cost model has no lowering for FHE operation {name!r}"
            ) from None

    # ------------------------------------------------------------------
    # IR lowering (op traces, Table I rows included)
    # ------------------------------------------------------------------

    def lower(self, trace, level=None):
        """Lower an :class:`~repro.ir.OpTrace` to :class:`OpComponents`.

        ``level`` binds trace entries whose level is unbound (``None``);
        entries carrying their own level are priced at it.  Iteration
        follows the IR's canonical op order, whatever order the trace was
        built in, so the sum is the same float however a row is written
        (float addition is order-sensitive, and plan pins depend on the
        bytes).
        """
        total = OpComponents()
        for (op, lvl), count in trace.items():
            if not count:
                continue
            effective = lvl if lvl is not None else level
            if effective is None:
                raise ValueError(
                    f"trace entry {op.value!r} has no level and no default "
                    "was given"
                )
            total = total + self.op(op, effective).scaled(count)
        return total
