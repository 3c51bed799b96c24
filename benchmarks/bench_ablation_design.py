"""Ablations of Hydra's design choices (beyond the paper's figures).

Three of the paper's core mechanisms, each switched off to measure its
contribution:

1. **Computation/communication overlap** (paper Figs. 1-2): chunked
   per-round broadcasts vs a single end-of-layer broadcast.
2. **Bootstrapping group-size optimization** (paper Section V-G): the
   Eq. 1-driven group choice vs naive all-cards groups.
3. **System-aware DFT parameters** (paper Table V): the multi-card
   optimum vs reusing the single-card algorithmic optimum.
"""

from _harness import run  # noqa: F401

from repro.analysis import format_table
from repro.cost import CONVBN_UNIT, OpCostModel
from repro.hw import HYDRA_CARD, HYDRA_L, HYDRA_M
from repro.sched import (
    dft_time_model,
    map_bootstrap,
    map_distributed_units,
    optimal_dft_parameters,
)
from repro.sim import ProgramBuilder, Simulator


def _conv_layer_time(cluster, rounds):
    cost = OpCostModel(cluster.card)
    builder = ProgramBuilder(cluster.total_cards)
    map_distributed_units(
        builder, cost, units=1024, unit_trace=CONVBN_UNIT, level=25,
        output_ciphertexts=8, tag="ConvBN", rounds=rounds,
    )
    return Simulator(cluster).run(builder.build()).makespan


def _boot_time(cluster, group_size):
    cost = OpCostModel(cluster.card)
    n = cluster.total_cards
    builder = ProgramBuilder(n)
    concurrent = n // group_size
    jobs = 8  # a Table-I-typical bootstrap batch
    base, extra = divmod(jobs, concurrent)
    for i in range(concurrent):
        group = list(range(i * group_size, (i + 1) * group_size))
        for _ in range(base + (1 if i < extra else 0)):
            map_bootstrap(builder, cost, group, tag="Boot")
    return Simulator(cluster).run(builder.build()).makespan


def build_ablations():
    data = {}
    # 1. Overlap granularity on Hydra-M.
    for rounds in (1, 2, 4, 16):
        data[("overlap", rounds)] = _conv_layer_time(HYDRA_M, rounds)
    # 2. Bootstrap group size on Hydra-L (64 cards, 8 bootstraps).
    for group in (1, 2, 8, 64):
        data[("bootgroup", group)] = _boot_time(HYDRA_L, group)
    # 3. DFT parameters: multi-card optimum vs single-card optimum.
    cost = OpCostModel(HYDRA_CARD)
    for cards in (8, 64):
        single, _ = optimal_dft_parameters(cost, 15, 1)
        multi, multi_t = optimal_dft_parameters(cost, 15, cards)
        naive_t = sum(
            dft_time_model(cost, max(0, cost.params.max_level - i), r, b,
                           cards)
            for i, (r, b) in enumerate(zip(single.radices,
                                           single.baby_steps))
        )
        data[("dft", cards)] = (naive_t, multi_t)
    return data


def test_ablation_design_choices(benchmark):
    data = benchmark.pedantic(build_ablations, rounds=1, iterations=1)

    print()
    print(format_table(
        ["Broadcast rounds", "Layer time (ms)"],
        [[r, data[("overlap", r)] * 1e3] for r in (1, 2, 4, 16)],
        title="Ablation 1 — overlap granularity (ConvBN, 8 cards)",
    ))
    print()
    print(format_table(
        ["Boot group size", "Batch time (ms)"],
        [[g, data[("bootgroup", g)] * 1e3] for g in (1, 2, 8, 64)],
        title="Ablation 2 — bootstrap group size (64 cards, 8 boots)",
    ))
    print()
    rows = []
    for cards in (8, 64):
        naive, opt = data[("dft", cards)]
        rows.append([cards, naive * 1e3, opt * 1e3, naive / opt])
    print(format_table(
        ["Cards", "Single-card params (ms)", "System optimum (ms)",
         "Gain"],
        rows,
        title="Ablation 3 — DFT parameter selection (Eq. 1)",
    ))

    # Overlap: chunking beats one end-of-layer broadcast, and the gains
    # saturate (more rounds stop helping once transfers hide).
    assert data[("overlap", 4)] < data[("overlap", 1)]
    assert data[("overlap", 16)] < data[("overlap", 1)]
    # Boot grouping: the extremes lose against a balanced group size.
    best = min(data[("bootgroup", g)] for g in (1, 2, 8, 64))
    assert data[("bootgroup", 64)] > best * 1.15
    # System-aware DFT parameters never lose to the single-card optimum.
    for cards in (8, 64):
        naive, opt = data[("dft", cards)]
        assert opt <= naive * (1 + 1e-9)
