"""Kernel-partitioned mapping with overlapped result broadcast.

This is the ConvBN strategy of paper Figs. 1-2, and — because Pooling,
FC, PCMM and CCMM all decompose into independent parallel units whose
results every card needs for the next step — the same machinery maps all
of them, parameterized by the per-unit operation trace (Table I row) and
the aggregate output volume.

Each card receives an equal share of the units and processes it in
``rounds`` chunks; after each chunk it broadcasts that chunk's share of
the layer output while already computing the next chunk.  When the
per-chunk compute time exceeds the transfer time, communication is fully
hidden and only the final chunk's broadcast is exposed — exactly the
overlap argument of Section III-A.
"""

from __future__ import annotations

__all__ = ["map_distributed_units"]


def map_distributed_units(
    builder,
    cost,
    units,
    unit_trace,
    level,
    output_ciphertexts,
    tag,
    rounds=4,
    work_scale=1.0,
):
    """Emit the distributed-units program onto ``builder``.

    Parameters
    ----------
    builder:
        :class:`repro.sim.ProgramBuilder` covering the whole cluster.
    cost:
        :class:`repro.cost.OpCostModel` for the card.
    units:
        Total parallel units in the layer (paper Table I parallelism).
    unit_trace:
        FHE ops per unit, an :class:`repro.ir.OpTrace` such as a Table I
        row of :mod:`repro.cost.ops`; its level-less entries run at
        ``level``.
    level:
        Ciphertext level the layer executes at.
    output_ciphertexts:
        Number of ciphertexts the layer produces in total; each card
        broadcasts its proportional share so every card holds the full
        activation for the next step.
    rounds:
        Chunks per card (communication/computation overlap granularity).
        The paper broadcasts after every unit; chunking batches units per
        broadcast to keep the event count tractable without changing the
        overlap structure.
    work_scale:
        Benchmark-level packing calibration (see repro.cost.calibration).
    """
    n = builder.num_nodes
    if units < 1:
        raise ValueError("layer must have at least one unit")
    unit_trace = unit_trace.at_level(level)
    unit_components = cost.lower(unit_trace).scaled(work_scale)
    unit_ops = unit_trace.scaled(work_scale)
    unit_time = unit_components.seconds
    ct_bytes = cost.ciphertext_bytes(level)
    base = units // n
    extra = units % n
    node_units = [base + (1 if node < extra else 0) for node in range(n)]
    active = [node for node in range(n) if node_units[node] > 0]
    node_rounds = min(rounds, max(node_units))

    # Per-node chunk sizes per round (some nodes may skip late rounds).
    chunks = {}
    for node in active:
        cb, ce = divmod(node_units[node], node_rounds)
        chunks[node] = [cb + (1 if r < ce else 0) for r in range(node_rounds)]

    # Emit compute chunks (per-node queues keep their own order).
    compute_idx = {}
    for node in active:
        compute_idx[node] = []
        for r in range(node_rounds):
            if chunks[node][r] == 0:
                compute_idx[node].append(None)
                continue
            compute_idx[node].append(builder.compute(
                node,
                chunks[node][r] * unit_time,
                tag=tag,
                components=unit_components.scaled(chunks[node][r]),
                ops=unit_ops.scaled(chunks[node][r]),
            ))

    # Emit broadcasts round-major (the Fig. 2 interleaving): within each
    # round every node broadcasts its fresh chunk while already computing
    # the next one.  Node-major emission would serialize the handshake —
    # a receiver only signals ready when it reaches the recv in its queue.
    if n > 1:
        for r in range(node_rounds):
            for node in active:
                if compute_idx[node][r] is None:
                    continue
                out_share = (output_ciphertexts * node_units[node] / units)
                size = ct_bytes * out_share / node_rounds
                builder.broadcast(node, size, after=compute_idx[node][r],
                                  tag=tag)
    return unit_time * units  # total single-card-equivalent work
