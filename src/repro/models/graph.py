"""The workload IR: a model is an ordered list of steps.

A :class:`Step` is the unit of host-level scheduling (paper Procedure 2):
a Conv layer, a Boot pass, an Attention sub-block.  Steps execute with a
barrier between them; inside a step, the mapping strategies distribute
work across cards with overlapped communication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.ckks.params import PAPER_PARAMS

__all__ = [
    "BOOT_CONSUMES",
    "BOOT_THRESHOLD",
    "LevelCursor",
    "ModelGraph",
    "Step",
]

#: Levels a bootstrap consumes: 3 C2S + ~6 EvaExp + 2 DAF + 3 S2C.
BOOT_CONSUMES = 14
#: A step that would leave the ciphertext below this level is preceded
#: by a bootstrap.
BOOT_THRESHOLD = 8
#: log2 of the paper parameters' slot count (bootstrap DFT sizing).
_SLOTS_LOG = int(math.log2(PAPER_PARAMS.slot_count))

_UNIT_KINDS = ("convbn", "pooling", "fc", "pcmm", "ccmm")
_POLY_KINDS = ("nonlinear", "norm")
_ALL_KINDS = _UNIT_KINDS + _POLY_KINDS + ("bootstrap",)


@dataclass(frozen=True)
class Step:
    """One host-scheduled computation step.

    Attributes
    ----------
    kind:
        One of convbn / pooling / fc / pcmm / ccmm (unit-parallel steps),
        nonlinear / norm (polynomial evaluations), bootstrap.
    name:
        Unique step name within the model.
    procedure:
        Reporting bucket used by paper Fig. 6 (e.g. "ConvBN", "ReLU",
        "Boot", "Attention", "FFN", "Norm").
    units:
        Table-I-style parallel unit count (unit-parallel kinds only).
    jobs:
        Independent ciphertext-level evaluations (poly kinds and
        bootstrap: the number of activation ciphertexts / bootstraps).
    degree:
        Polynomial degree (poly kinds).
    level:
        Ciphertext level the step executes at.
    output_ciphertexts:
        Activation ciphertexts the step produces (drives broadcast
        volume of unit-parallel steps).
    slots_log:
        log2(slot count) used by bootstrap DFT sizing.
    unit_work:
        Work multiplier per unit.  The paper's implementations group
        multiple kernel computations into one schedulable unit (Table I
        caps ConvBN at 1024 and fixes PCMM unit counts); ``unit_work``
        preserves the total operation count under that grouping.
    """

    kind: str
    name: str
    procedure: str
    level: int
    units: int = 0
    jobs: int = 0
    degree: int = 0
    output_ciphertexts: int = 1
    slots_log: int = _SLOTS_LOG
    unit_work: float = 1.0

    def __post_init__(self):
        if self.kind not in _ALL_KINDS:
            raise ValueError(f"unknown step kind {self.kind!r}")
        if self.kind in _UNIT_KINDS and self.units < 1:
            raise ValueError(f"{self.kind} step needs units >= 1")
        if self.kind in _POLY_KINDS and (self.jobs < 1 or self.degree < 1):
            raise ValueError(f"{self.kind} step needs jobs and degree")
        if self.kind == "bootstrap" and self.jobs < 1:
            raise ValueError("bootstrap step needs jobs >= 1")
        if self.level < 0:
            raise ValueError("level must be non-negative")
        if self.unit_work <= 0:
            raise ValueError("unit_work must be positive")

    @property
    def is_unit_parallel(self):
        return self.kind in _UNIT_KINDS

    @property
    def is_polynomial(self):
        return self.kind in _POLY_KINDS


@dataclass
class ModelGraph:
    """An ordered workload with per-model calibration hooks."""

    name: str
    display_name: str
    steps: list = field(default_factory=list)
    #: packing-efficiency calibration (see repro.cost.calibration)
    work_scale: float = 1.0

    def add(self, step: Step):
        if any(s.name == step.name for s in self.steps):
            raise ValueError(f"duplicate step name {step.name!r}")
        self.steps.append(step)
        return step

    @property
    def procedures(self):
        return sorted({s.procedure for s in self.steps})

    def steps_of_kind(self, kind):
        return [s for s in self.steps if s.kind == kind]


class LevelCursor:
    """Adds steps to a graph in order while tracking the ciphertext level.

    Every builder (ResNet, :class:`~repro.models.CnnBuilder`, the
    transformer) adds its steps through one cursor.  A step runs at the
    current level and consumes ``levels`` of it.  When that would leave
    the ciphertext below :data:`BOOT_THRESHOLD`, a bootstrap over the
    ``live_cts`` live ciphertexts goes first and restores the chain minus
    its own consumption (the depth accounting of [12]/[30]).  Steps are
    named ``<prefix>_<n>``, numbered in the order they are added.
    """

    def __init__(self, graph, max_level=None):
        self.graph = graph
        self.max_level = max_level or PAPER_PARAMS.max_level
        self.level = self.max_level - 1
        self._count = 0

    def _name(self, prefix):
        self._count += 1
        return f"{prefix}_{self._count}"

    def add(self, kind, prefix, procedure, *, levels, live_cts, **fields):
        """Add one ``kind`` step that consumes ``levels``; ``fields``
        are its other :class:`Step` attributes."""
        if self.level - levels < BOOT_THRESHOLD:
            self.graph.add(Step(
                kind="bootstrap",
                name=self._name("boot"),
                procedure="Boot",
                level=self.max_level,
                jobs=live_cts,
            ))
            self.level = self.max_level - BOOT_CONSUMES
        self.graph.add(Step(
            kind=kind,
            name=self._name(prefix),
            procedure=procedure,
            level=self.level,
            **fields,
        ))
        self.level -= levels
