"""Published ASIC reference points (CraterLake, BTS, ARK, SHARP).

The paper compares against these simulated ASICs using their published
numbers ("data is sourced from precise simulations based on the specific
architectures", Section V-B); re-deriving four proprietary ASIC designs is
out of scope, so we carry the same reference values (Tables II and III).

Unlike the FPGA baselines (``OpCostModel(FAB_CARD)`` /
``OpCostModel(POSEIDON_CARD)``, which lower the same ``repro.ir`` traces
as Hydra's card, so any cost delta is attributable to hardware), there
is deliberately no ``repro.ir`` lowering here: these rows are
published end-to-end numbers, not per-op models, so routing an ``OpTrace``
through them would fabricate a granularity the sources do not provide.
"""

from __future__ import annotations

from repro.cost.edap import PUBLISHED_ASIC_EDAP, PUBLISHED_ASIC_RUNTIME

__all__ = ["ASIC_ACCELERATORS", "asic_runtime", "asic_edap"]

ASIC_ACCELERATORS = tuple(PUBLISHED_ASIC_RUNTIME)


def asic_runtime(accelerator, benchmark):
    """Published full-system runtime in seconds (paper Table II)."""
    try:
        return PUBLISHED_ASIC_RUNTIME[accelerator][benchmark]
    except KeyError:
        raise KeyError(
            f"no published runtime for {accelerator!r} / {benchmark!r}"
        ) from None


def asic_edap(accelerator, benchmark):
    """Published EDAP (paper Table III)."""
    try:
        return PUBLISHED_ASIC_EDAP[accelerator][benchmark]
    except KeyError:
        raise KeyError(
            f"no published EDAP for {accelerator!r} / {benchmark!r}"
        ) from None
