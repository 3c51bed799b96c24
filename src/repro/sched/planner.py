"""The planner: model graph → mapped programs → simulation → statistics.

Implements the Procedure-2 scheduling contract: steps execute with a
barrier between them (servers only exchange a completion signal, which is
negligible), while inside a step all cards of all servers run their
preloaded task queues with hardware-level synchronization.  The planner
therefore simulates one step at a time and sums the makespans, recording
per-procedure spans (paper Fig. 6), communication overhead shares
(Figs. 8-9), and the component stream for the energy model (Fig. 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from repro.ckks.params import PAPER_PARAMS
from repro.cost.calibration import DEFAULT_CALIBRATION
from repro.obs.metrics import inc as _metric_inc
from repro.obs.spans import span as _span
from repro.cost.energy import EnergyAccumulator, EnergyModel
from repro.cost.model import OpCostModel
from repro.cost.ops import (
    CCMM_UNIT,
    CONVBN_UNIT,
    FC_UNIT,
    PCMM_UNIT,
    POOLING_UNIT,
)
from repro.sched.bootstrap import (
    choose_boot_group_size,
    map_bootstrap,
    optimal_dft_parameters,
)
from repro.sched.conv import map_distributed_units
from repro.sched.groups import group_assignments
from repro.sched.nonlinear import map_polynomial_tree
from repro.sim.engine import Simulator
from repro.sim.program import ProgramBuilder
from repro.sim.result import SimResult

__all__ = ["Planner", "ModelRunResult"]

# Table I rows (level-unbound traces) by step kind; the unit mapper
# binds the step's level.
_UNIT_TRACES = {
    "convbn": CONVBN_UNIT,
    "pooling": POOLING_UNIT,
    "fc": FC_UNIT,
    "pcmm": PCMM_UNIT,
    "ccmm": CCMM_UNIT,
}


def _step_shape(step):
    """A step's structural key: every field but its name."""
    return tuple(getattr(step, f.name) for f in fields(step)
                 if f.name != "name")


@dataclass
class ModelRunResult:
    """Aggregated outcome of one model inference on one cluster."""

    model_name: str
    cluster_name: str
    total_seconds: float = 0.0
    procedure_span: dict = field(default_factory=dict)
    procedure_compute: dict = field(default_factory=dict)
    #: per-procedure communication-exposed seconds (span - mean compute)
    procedure_comm: dict = field(default_factory=dict)
    bytes_transferred: float = 0.0
    sim: SimResult = None
    energy: EnergyAccumulator = None

    @property
    def comm_overhead_fraction(self):
        if self.total_seconds <= 0:
            return 0.0
        comm = sum(self.procedure_comm.values())
        return comm / self.total_seconds

    def speedup_over(self, other):
        """How much faster this run is than ``other`` (same model)."""
        if self.total_seconds <= 0:
            raise ValueError("cannot compute speedup of a zero-time run")
        return other.total_seconds / self.total_seconds

    def to_dict(self):
        """Full-fidelity JSON form for the persistent runtime cache.

        Python's ``repr``-based float JSON encoding round-trips exactly,
        so ``from_dict(to_dict(r))`` reproduces every number bit for bit.
        """
        return {
            "model_name": self.model_name,
            "cluster_name": self.cluster_name,
            "total_seconds": self.total_seconds,
            "procedure_span": dict(self.procedure_span),
            "procedure_compute": dict(self.procedure_compute),
            "procedure_comm": dict(self.procedure_comm),
            "bytes_transferred": self.bytes_transferred,
            "sim": None if self.sim is None else self.sim.to_dict(),
            "energy": None if self.energy is None else self.energy.to_dict(),
        }

    @classmethod
    def from_dict(cls, data):
        sim = data.get("sim")
        energy = data.get("energy")
        return cls(
            model_name=data["model_name"],
            cluster_name=data["cluster_name"],
            total_seconds=data["total_seconds"],
            procedure_span=dict(data["procedure_span"]),
            procedure_compute=dict(data["procedure_compute"]),
            procedure_comm=dict(data["procedure_comm"]),
            bytes_transferred=data["bytes_transferred"],
            sim=None if sim is None else SimResult.from_dict(sim),
            energy=(
                None if energy is None
                else EnergyAccumulator.from_dict(energy)
            ),
        )


class Planner:
    """Maps and simulates model graphs on one cluster."""

    def __init__(self, cluster, params=PAPER_PARAMS,
                 calibration=DEFAULT_CALIBRATION, rounds=4):
        self.cluster = cluster
        self.params = params
        self.calibration = calibration
        self.cost = OpCostModel(cluster.card, params)
        self.simulator = Simulator(cluster)
        self.rounds = rounds
        self._dft_cache = {}
        # Effective inter-card bandwidth for the boot/DFT cost model:
        # Hydra uses the DTU line rate; FAB's host path is bounded by its
        # slowest hop (the 10 Gb/s LAN).
        if cluster.fabric == "hydra-switch":
            self.comm_bandwidth = cluster.card.dtu_bandwidth
        elif cluster.fabric == "fab-host":
            self.comm_bandwidth = min(cluster.card.pcie_bandwidth,
                                      cluster.network.lan_bandwidth)
        else:
            self.comm_bandwidth = float("inf")

    # ------------------------------------------------------------------

    def run_model(self, model, with_energy=True, trace=False):
        """Simulate a full model inference; returns a ModelRunResult.

        With ``trace=True`` every step is simulated with event recording
        on, and the merged result carries one step-labeled, time-shifted
        ``TraceEvent`` stream for the whole run (Gantt / Chrome-trace
        material; costs memory proportional to task count).

        Under Procedure 2 every step starts from a reset fabric, so a
        step's result depends only on its shape (every field but its
        name).  Each distinct shape is mapped and simulated once per
        call; repeats replay the stored step-local result, with trace
        events relabeled to the repeating step's name, and count as
        ``sim.engine.memo_hits``.
        """
        scale = self.work_scale(model)
        result = ModelRunResult(
            model_name=model.name, cluster_name=self.cluster.name
        )
        merged = SimResult()
        simulator = (Simulator(self.cluster, trace=True) if trace
                     else self.simulator)
        energy_model = EnergyModel(self.cluster.card, self.calibration)
        energy = EnergyAccumulator()
        memo = {}
        for step in model.steps:
            key = _step_shape(step)
            sim = memo.get(key)
            if sim is None:
                builder = ProgramBuilder(self.cluster.total_cards)
                self.map_step(step, builder, scale)
                with _span("sim.step", category="sim", step=step.name,
                           procedure=step.procedure):
                    sim = memo[key] = simulator.run(builder.build(),
                                                    step=step.name)
            else:
                _metric_inc("sim.engine.memo_hits")
                if sim.trace:
                    sim = replace(sim, trace=[
                        replace(ev, step=step.name)
                        for ev in sim.trace
                    ])
            _metric_inc("sched.procedure.seconds", sim.makespan,
                        procedure=step.procedure)
            merged.merge_sequential(sim)
            proc = step.procedure
            result.procedure_span[proc] = (
                result.procedure_span.get(proc, 0.0) + sim.makespan
            )
            result.procedure_compute[proc] = (
                result.procedure_compute.get(proc, 0.0)
                + sim.mean_compute_busy
            )
            result.procedure_comm[proc] = (
                result.procedure_comm.get(proc, 0.0)
                + max(0.0, sim.makespan - sim.mean_compute_busy)
            )
            if with_energy and sim.components_total is not None:
                energy_model.energy_of(sim.components_total, energy)
            if with_energy:
                energy_model.communication_energy(
                    sim.bytes_transferred, energy
                )
        result.total_seconds = merged.makespan
        result.bytes_transferred = merged.bytes_transferred
        result.sim = merged
        if with_energy:
            energy_model.static_energy(
                merged.makespan, self.cluster.total_cards, energy
            )
            result.energy = energy
        return result

    # ------------------------------------------------------------------

    def work_scale(self, model):
        """The ``scale`` :meth:`map_step` applies to ``model``'s steps.

        Phase-qualified LLM graphs ("bert_base#prefill") share the base
        model's packing calibration — the phase split changes the step
        mix, not the ciphertext-packing efficiency.
        """
        return model.work_scale * self.calibration.work_scale.get(
            model.name.partition("#")[0], 1.0
        )

    def map_step(self, step, builder, scale):
        """Emit ``step``'s task programs into ``builder`` (public API).

        ``scale`` is the packing work multiplier for unit-parallel steps,
        :meth:`work_scale` of the step's model; pass 1.0 to price a step
        at face value.  This is the supported
        way to map a single step for tracing/profiling — the CLI's
        ``trace`` and ``profile`` commands route through it.
        """
        _metric_inc("sched.planner.steps_mapped", kind=step.kind)
        with _span("plan.step", category="planner", step=step.name,
                   kind=step.kind, procedure=step.procedure,
                   cards=builder.num_nodes):
            self._map_step_inner(step, builder, scale)

    def _map_step_inner(self, step, builder, scale):
        # The packing calibration (work_scale) only applies to
        # unit-parallel steps: their Table-I unit counts abstract over the
        # implementation's ciphertext packing.  Polynomial evaluations and
        # bootstraps operate on actual activation ciphertexts and are
        # priced at face value.
        if step.is_unit_parallel:
            map_distributed_units(
                builder,
                self.cost,
                units=step.units,
                unit_trace=_UNIT_TRACES[step.kind],
                level=step.level,
                output_ciphertexts=step.output_ciphertexts,
                tag=step.procedure,
                rounds=self.rounds,
                work_scale=scale * step.unit_work,
            )
        elif step.is_polynomial:
            for group, count in group_assignments(builder.num_nodes,
                                                  step.jobs):
                for _ in range(count):
                    map_polynomial_tree(
                        builder, self.cost, group, step.degree,
                        step.level, tag=step.procedure,
                    )
        elif step.kind == "bootstrap":
            n = builder.num_nodes
            g = self._boot_group_size(n, step.jobs, step.slots_log,
                                      step.level)
            concurrent = n // g
            groups = [list(range(i * g, (i + 1) * g))
                      for i in range(concurrent)]
            params = self._dft_params(step.slots_log, g, step.level)
            base, extra = divmod(step.jobs, concurrent)
            for i, group in enumerate(groups):
                for _ in range(base + (1 if i < extra else 0)):
                    map_bootstrap(
                        builder, self.cost, group, tag=step.procedure,
                        slots_log=step.slots_log, start_level=step.level,
                        params=params,
                    )
        else:  # pragma: no cover - Step validates kinds
            raise ValueError(f"unmappable step kind {step.kind!r}")

    def _boot_group_size(self, num_nodes, jobs, slots_log, level):
        key = ("group", num_nodes, jobs, slots_log, level)
        if key not in self._dft_cache:
            self._dft_cache[key] = choose_boot_group_size(
                self.cost, num_nodes, jobs, slots_log, level=level,
                comm_bandwidth=self.comm_bandwidth,
            )
        return self._dft_cache[key]

    def _dft_params(self, slots_log, group_size, level):
        key = (slots_log, group_size, level)
        if key not in self._dft_cache:
            self._dft_cache[key], _ = optimal_dft_parameters(
                self.cost, slots_log, group_size, level=level,
                comm_bandwidth=self.comm_bandwidth,
            )
        return self._dft_cache[key]
