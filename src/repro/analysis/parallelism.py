"""Application-level parallelism census (paper Table I).

Walks a model graph and reports, per layer type, the min/max parallelism
and the FHE operations each parallel unit comprises — the evidence behind
the paper's scale-out argument (Section II-A).
"""

from __future__ import annotations

from repro.cost.ops import (
    CCMM_UNIT,
    CONVBN_UNIT,
    FC_UNIT,
    NONLINEAR_UNIT,
    PCMM_UNIT,
    POOLING_UNIT,
)

__all__ = ["parallelism_census", "PAPER_TABLE1"]

_KIND_LABELS = {
    "convbn": "ConvBN",
    "pooling": "Pooling",
    "fc": "FC",
    "pcmm": "PCMM",
    "ccmm": "CCMM",
    "nonlinear": "Non-linear",
    "norm": "Non-linear",
    "bootstrap": "Ciphertext",
}

_KIND_ROWS = {
    "ConvBN": CONVBN_UNIT,
    "Pooling": POOLING_UNIT,
    "FC": FC_UNIT,
    "PCMM": PCMM_UNIT,
    "CCMM": CCMM_UNIT,
    "Non-linear": NONLINEAR_UNIT,
}

#: Paper Table I reference values: {model: {row: (min, max)}}.
PAPER_TABLE1 = {
    "resnet18": {
        "ConvBN": (384, 1024), "Pooling": (6, 64), "FC": (1511, 1511),
        "Non-linear": (4, 128), "Ciphertext": (1, 32),
    },
    "resnet50": {
        "ConvBN": (384, 1024), "Pooling": (12, 256), "FC": (3047, 3047),
        "Non-linear": (4, 128), "Ciphertext": (1, 32),
    },
    "bert_base": {
        "PCMM": (98_304, 393_216), "CCMM": (384, 384),
        "Non-linear": (4, 48), "Ciphertext": (1, 12),
    },
    "opt_6_7b": {
        "PCMM": (153_600, 614_400), "CCMM": (1000, 1000),
        "Non-linear": (8, 72), "Ciphertext": (2, 18),
    },
}


def parallelism_census(model):
    """Return {row_label: {"min", "max", "ops": OpTrace-or-None}}.

    Unit-parallel rows report their unit counts; "Non-linear" reports
    polynomial-evaluation jobs; "Ciphertext" reports live activation
    ciphertexts (bootstrap jobs), matching Table I's last row.
    """
    census = {}

    def account(label, value):
        row = census.setdefault(
            label, {"min": value, "max": value,
                    "ops": _KIND_ROWS.get(label)}
        )
        row["min"] = min(row["min"], value)
        row["max"] = max(row["max"], value)

    for step in model.steps:
        if step.kind == "bootstrap":
            account("Ciphertext", step.jobs)
            continue
        account(_KIND_LABELS[step.kind],
                step.units if step.is_unit_parallel else step.jobs)
        if step.is_unit_parallel:
            # Activation ciphertexts live in every layer; Table I's last
            # row reports their range across the whole model.
            account("Ciphertext", step.output_ciphertexts)
    return census
