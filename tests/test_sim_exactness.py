"""The event engine is exact: it replays the reference engine event for
event, and the plans it produces keep their pinned bytes.

``tests/reference_engine.py`` is the engine as it was before wakes were
skipped, handshake checks resumed and deliveries grouped (one heap event
per wake and per receiver, a full rescan of every receiver on each
sender wake).  Random programs with many same-time ties run through both
on Hydra and FAB clusters, with and without link latencies; the results
and the traced event streams must match exactly.
"""

import hashlib
import json
import random

import pytest

from repro.hw import NetworkSpec, fab_cluster, hydra_cluster
from repro.sim import ProgramBuilder, Simulator
from tests.reference_engine import Simulator as ReferenceSimulator

_ZERO_LATENCY = NetworkSpec(
    intra_server_latency=0.0, inter_server_latency=0.0, lan_latency=0.0,
    pcie_latency=0.0, host_forward_latency=0.0,
)

CLUSTERS = {
    "hydra-4": hydra_cluster(2, 2),
    "hydra-8": hydra_cluster(2, 4),
    "hydra-4-zero": hydra_cluster(2, 2, network=_ZERO_LATENCY),
    "hydra-8-zero": hydra_cluster(2, 4, network=_ZERO_LATENCY),
    "fab-4": fab_cluster(4),
    "fab-8": fab_cluster(8),
    "fab-4-zero": fab_cluster(4, network=_ZERO_LATENCY),
    "fab-8-zero": fab_cluster(8, network=_ZERO_LATENCY),
}

#: 8 clusters x 250 programs = 2,000 random programs.
PROGRAMS_PER_CLUSTER = 250

# Few distinct values, so equal timestamps are common.
_DURATIONS = (0.0, 0.0, 1e-6, 2e-6, 3e-6)
_SIZES = (0.0, 0.0, 1.25e3, 12.5e3, 25e3)


def random_programs(rng, n):
    """A random well-formed program set for ``n`` cards.

    Every dependency (a send's producing task, a receive's send, a CT_d
    task's receive) points at an earlier emitted task, so emission order
    is a topological order and no program set deadlocks.
    """
    b = ProgramBuilder(n)
    recvs = [0] * n
    consumed = [0] * n

    def compute(node, needs_recv=False):
        if needs_recv:
            consumed[node] += 1
        b.compute(node, rng.choice(_DURATIONS), tag=f"c{node}",
                  needs_recv=needs_recv)

    for _ in range(rng.randint(4, 28)):
        if rng.random() < 0.35:
            node = rng.randrange(n)
            compute(node, consumed[node] < recvs[node]
                    and rng.random() < 0.6)
            continue
        src = rng.randrange(n)
        others = [d for d in range(n) if d != src]
        produced = len(b.programs[src].compute)
        after = (rng.randrange(produced)
                 if produced and rng.random() < 0.7 else None)
        size = rng.choice(_SIZES)
        kind = rng.random()
        if kind < 0.4:
            dsts = [rng.choice(others)]
            b.transfer(src, dsts[0], size, after=after, tag="p2p")
        elif kind < 0.7:
            dsts = others
            b.broadcast(src, size, after=after, tag="bcast")
        else:
            dsts = rng.sample(others, rng.randint(1, n - 1))
            b.multicast(src, dsts, size, after=after, tag="mcast")
        for dst in dsts:
            recvs[dst] += 1
            if rng.random() < 0.5:
                compute(dst, needs_recv=True)  # Compute-After-Receive
    return b.build()


@pytest.mark.parametrize("name", sorted(CLUSTERS))
def test_matches_reference_engine(name):
    cluster = CLUSTERS[name]
    rng = random.Random(f"sim-exactness-{name}")
    fast = Simulator(cluster, trace=True)
    reference = ReferenceSimulator(cluster, trace=True)
    for i in range(PROGRAMS_PER_CLUSTER):
        programs = random_programs(rng, cluster.total_cards)
        got = fast.run(programs, step=f"p{i}")
        want = reference.run(programs, step=f"p{i}")
        assert got.trace == want.trace, f"program {i}: event streams differ"
        assert got.to_dict() == want.to_dict(), f"program {i}"


# sha256 of the canonical JSON of ModelRunResult.to_dict(), energy
# included, as produced by the reference engine.
PLAN_DIGESTS = {
    ("resnet18", "Hydra-M"):
        "819d778b0bfc620645bcae8cc6067d2af383b183b65057776e3b97825360026e",
    ("resnet18", "FAB-M"):
        "38988eb96973aa324c634dfebf66dc5abfc6461aeb3e9ba13493e834e3674c8a",
    ("resnet50", "Hydra-M"):
        "887efc30272b9b98ff1461ee80528f1dfdc1541d73be30a8aa367bca2646de9e",
    ("resnet50", "FAB-M"):
        "858931d905db1ae6e747fb983765d8ad94c993efbda3af5cff323640b0cfdd94",
    ("bert_base#decode", "Hydra-M"):
        "50e1ed4e39a387e002a0fa1d37ed0e79076dbfecdf94574144ed7fdec1b93d49",
    ("bert_base#decode", "FAB-M"):
        "1a06c2e516e9300bd33d39f4148ffc534d8d6e75cfd5d5e64d916405ef603a62",
    ("bert_base#prefill", "Hydra-M"):
        "ab28884902cf9a71e7f1ca422611d5b6271af9b881b592755bc0b0ba0718f7ed",
    ("bert_base#prefill", "FAB-M"):
        "1eb1bf2deae392cd988d8e853547eea9286d3dca2cd86d6431d9a53cf4612c75",
}


# (sim.engine.events, sim.engine.idle_wakes) of each pinned plan.  An
# engine that pops same-time events out of order can keep a plan's bytes
# and still change these.
PLAN_EVENTS = {
    ("resnet18", "Hydra-M"): (13_229, 5_346),
    ("resnet18", "FAB-M"): (13_974, 3_830),
    ("resnet50", "Hydra-M"): (18_420, 7_369),
    ("resnet50", "FAB-M"): (20_722, 5_646),
    ("bert_base#decode", "Hydra-M"): (9_575, 3_974),
    ("bert_base#decode", "FAB-M"): (11_102, 3_362),
    ("bert_base#prefill", "Hydra-M"): (11_171, 4_275),
    ("bert_base#prefill", "FAB-M"): (14_335, 3_791),
}


@pytest.mark.parametrize("graph,system", sorted(PLAN_DIGESTS))
def test_plan_bytes_are_pinned(graph, system):
    import repro.llm  # noqa: F401 - phase graphs resolve through it
    from repro.core import HydraSystem
    from repro.obs import MetricsRegistry, use_registry

    registry = MetricsRegistry()
    with use_registry(registry):
        result = HydraSystem.named(system).run(graph, with_energy=True,
                                               use_cache=False)
    text = json.dumps(result.to_dict(), sort_keys=True,
                      separators=(",", ":"))
    assert (hashlib.sha256(text.encode()).hexdigest()
            == PLAN_DIGESTS[(graph, system)])
    counters = registry.snapshot()["counters"]
    assert ((counters["sim.engine.events"][""],
             counters["sim.engine.idle_wakes"][""])
            == PLAN_EVENTS[(graph, system)])
