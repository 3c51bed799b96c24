"""The planner's per-call step memo against an unmemoized reference.

``Planner.run_model`` maps and simulates each distinct step shape once
and replays the stored result for repeats.  The reference here maps
every step through the public ``Planner.map_step`` into a fresh
``ProgramBuilder``, simulates it on a fresh ``Simulator`` and merges
with ``merge_sequential`` — the pre-memo planning loop — and the two
must agree byte for byte.
"""

import dataclasses
import json

import pytest

from repro.core import HydraSystem
from repro.cost.energy import EnergyAccumulator, EnergyModel
from repro.obs import MetricsRegistry, use_registry
from repro.sched.planner import ModelRunResult
from repro.sim import ProgramBuilder, Simulator, SimResult

CASES = [
    (system, model)
    for system in ("Hydra-S", "Hydra-M", "FAB-M")
    for model in ("resnet18", "bert_base#decode")
]


def _reference(planner, model, trace):
    """Map and simulate every step from scratch, then merge."""
    cluster, calibration = planner.cluster, planner.calibration
    scale = model.work_scale * calibration.work_scale.get(
        model.name.partition("#")[0], 1.0)
    result = ModelRunResult(model_name=model.name,
                            cluster_name=cluster.name)
    merged = SimResult()
    energy_model = EnergyModel(cluster.card, calibration)
    energy = EnergyAccumulator()
    for step in model.steps:
        builder = ProgramBuilder(cluster.total_cards)
        planner.map_step(step, builder, scale)
        sim = Simulator(cluster, trace=trace).run(builder.build(),
                                                  step=step.name)
        merged.merge_sequential(sim)
        proc = step.procedure
        result.procedure_span[proc] = (
            result.procedure_span.get(proc, 0.0) + sim.makespan)
        result.procedure_compute[proc] = (
            result.procedure_compute.get(proc, 0.0)
            + sim.mean_compute_busy)
        result.procedure_comm[proc] = (
            result.procedure_comm.get(proc, 0.0)
            + max(0.0, sim.makespan - sim.mean_compute_busy))
        if sim.components_total is not None:
            energy_model.energy_of(sim.components_total, energy)
        energy_model.communication_energy(sim.bytes_transferred, energy)
    energy_model.static_energy(merged.makespan, cluster.total_cards,
                               energy)
    result.total_seconds = merged.makespan
    result.bytes_transferred = merged.bytes_transferred
    result.sim = merged
    result.energy = energy
    return result


def _bytes(result):
    return json.dumps(result.to_dict(), sort_keys=True)


def _distinct_shapes(model):
    return len({dataclasses.replace(s, name="") for s in model.steps})


@pytest.fixture(scope="module", params=CASES, ids="/".join)
def case(request):
    system_name, model_name = request.param
    system = HydraSystem.named(system_name)
    return system.planner, system.build_model(model_name)


def test_model_repeats_step_shapes(case):
    _, model = case
    assert _distinct_shapes(model) < len(model.steps)


def test_memoized_run_is_byte_identical(case):
    planner, model = case
    assert _bytes(planner.run_model(model)) == _bytes(
        _reference(planner, model, trace=False))


def test_traced_replays_carry_their_own_step_names(case):
    planner, model = case
    memoized = planner.run_model(model, trace=True)
    reference = _reference(planner, model, trace=True)
    assert memoized.sim.trace == reference.sim.trace
    assert _bytes(memoized) == _bytes(reference)
    # Every step contributes events under its own name, in order.
    names = [step.name for step in model.steps]
    seen = list(dict.fromkeys(ev.step for ev in memoized.sim.trace))
    assert seen == names


def test_engine_counters_count_real_simulations(case):
    planner, model = case
    registry = MetricsRegistry()
    with use_registry(registry):
        planner.run_model(model)
    counters = registry.snapshot()["counters"]
    runs = counters["sim.engine.runs"][""]
    hits = counters["sim.engine.memo_hits"][""]
    assert runs == _distinct_shapes(model)
    assert runs + hits == len(model.steps)
