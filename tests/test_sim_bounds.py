"""Analytic bounds on the simulated makespan of every Table I step kind.

For the first step of each kind in resnet18 and bert_base, mapped on
Hydra-M and on FAB-M, the simulated makespan must be

* at least the busiest card's compute time (a card's compute engine is
  sequential);
* on Hydra, at least the busiest card's summed send sizes over the DTU
  rate (one TX port per card; a broadcast occupies it once);
* covered, with no gap, by the union of compute intervals and
  send-to-delivery windows: the engine only moves on at a compute end or
  a delivery, so some task or transfer is in progress at every instant
  of [0, makespan].  The makespan therefore never exceeds the sum of
  those intervals.
"""

import pytest

from repro.core import HydraSystem
from repro.obs.report import _union
from repro.sim import ProgramBuilder, SendTask, Simulator

GRAPH_KINDS = {
    "resnet18": ("bootstrap", "convbn", "fc", "nonlinear", "pooling"),
    "bert_base": ("bootstrap", "ccmm", "nonlinear", "norm", "pcmm"),
}
CASES = [(system, graph, kind)
         for system in ("Hydra-M", "FAB-M")
         for graph, kinds in GRAPH_KINDS.items()
         for kind in kinds]

_REL = 1e-12


@pytest.fixture(scope="module")
def simulated():
    runs = {}
    for system_name in ("Hydra-M", "FAB-M"):
        system = HydraSystem.named(system_name)
        planner = system.planner
        simulator = Simulator(system.cluster, trace=True)
        for graph, kinds in GRAPH_KINDS.items():
            model = system.build_model(graph)
            for kind in kinds:
                step = model.steps_of_kind(kind)[0]
                builder = ProgramBuilder(system.total_cards)
                planner.map_step(step, builder, planner.work_scale(model))
                programs = builder.build()
                runs[(system_name, graph, kind)] = (
                    system.cluster, programs,
                    simulator.run(programs, step=step.name),
                )
    return runs


def test_every_step_kind_is_covered():
    assert {kind for _, _, kind in CASES} == {
        "bootstrap", "convbn", "fc", "pooling", "nonlinear", "norm",
        "pcmm", "ccmm",
    }


@pytest.mark.parametrize("system,graph,kind", CASES)
def test_makespan_bounds(simulated, system, graph, kind):
    cluster, programs, result = simulated[(system, graph, kind)]
    span = result.makespan
    assert span > 0
    busiest_compute = max(node.compute_busy for node in result.nodes)
    assert span >= busiest_compute * (1 - _REL)
    if cluster.fabric == "hydra-switch":
        busiest_tx = max(
            sum(t.size for t in p.comm if isinstance(t, SendTask))
            for p in programs
        ) / cluster.card.dtu_bandwidth
        assert span >= busiest_tx * (1 - _REL)

    intervals = [(ev.start, ev.end) for ev in result.trace]
    covered = _union(intervals)
    assert covered[0][0] == 0.0
    assert len(covered) == 1, (
        f"idle gap in [{covered[0][1]}, {covered[1][0]}]"
    )
    assert covered[0][1] == span
    assert span <= sum(end - start for start, end in intervals)
