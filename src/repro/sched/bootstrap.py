"""Bootstrapping task mapping: DFT parameter selection + pipeline.

Paper Section III-B / Fig. 3: bootstrapping = CoeffToSlot (homomorphic
DFT), Modulus Reduction (EvaExp polynomial + Double-Angle Formula), and
SlotToCoeff (inverse DFT).  The DFT splits into ``levels`` matrix-vector
multiplications whose Radix / bs / gs parameters trade rotation count
against multiplicative depth; Eq. 1 models their multi-card execution
time, and the optimizer below reproduces the paper's Table V parameter
choices (bs shrinks as card count grows, because a larger gs can exploit
more parallel cards).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.ir import FheOp, OpTrace
from repro.sched.fc import map_bsgs_matvec
from repro.sched.nonlinear import map_polynomial_tree

__all__ = [
    "DftParameters",
    "dft_time_model",
    "optimal_dft_parameters",
    "map_bootstrap",
]

#: Multiplication depth the paper budgets per DFT pass ([12], [30]).
DFT_LEVELS = 3

#: Degree of the EvaExp polynomial (paper Section III-B).
EVALEXP_DEGREE = 59

#: Double-angle squarings after EvaExp.
DAF_ITERATIONS = 2


@dataclass(frozen=True)
class DftParameters:
    """One DFT pass configuration: per-level (radix, bs) choices."""

    radices: tuple
    baby_steps: tuple

    def __post_init__(self):
        if len(self.radices) != len(self.baby_steps):
            raise ValueError("radices and baby_steps must align")
        for r, b in zip(self.radices, self.baby_steps):
            if 2 * r % b:
                raise ValueError(
                    f"bs={b} must divide 2*radix={2 * r}"
                )

    @property
    def giant_steps(self):
        return tuple(2 * r // b for r, b in zip(self.radices,
                                                self.baby_steps))


def dft_time_model(cost, level, radix, bs, num_cards, work_scale=1.0,
                   comm_bandwidth=None):
    """Eq. 1: execution time of one DFT matvec level on ``num_cards``.

    ``gs_s = 2r / (C_n * b)`` giant steps per card; baby steps replicate;
    aggregation is a ``log2(C_n)``-round tree of transfer + HAdd.
    ``comm_bandwidth`` defaults to the card's DTU line rate; host-mediated
    fabrics (FAB) pass their effective inter-card bandwidth instead.
    """
    if comm_bandwidth is None:
        comm_bandwidth = cost.card.dtu_bandwidth
    if bs < 1 or 2 * radix % bs:
        raise ValueError(f"invalid bs={bs} for radix={radix}")
    t_rot = cost.rotation(level).seconds * work_scale
    t_pmult = cost.pmult(level).seconds * work_scale
    t_hadd = cost.hadd(level).seconds * work_scale
    gs = 2 * radix // bs
    gs_s = math.ceil(gs / num_cards)
    t_bs = bs * t_rot
    t_gs = (bs * t_pmult + (bs - 1) * t_hadd + t_rot) * gs_s
    if num_cards > 1:
        t_com = (cost.ciphertext_bytes(level)
                 / max(comm_bandwidth, 1e-9))
        t_acc = ((gs_s - 1) * t_hadd
                 + (math.log2(num_cards) + 1) * t_com)
    else:
        t_acc = (gs_s - 1) * t_hadd
    return t_bs + t_gs + t_acc


def _compositions(total, parts):
    """All ways to write ``total`` as ``parts`` positive integers."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def optimal_dft_parameters(cost, slots_log, num_cards, level=None,
                           levels=DFT_LEVELS, work_scale=1.0,
                           comm_bandwidth=None):
    """Search (radix, bs) per level minimizing the Eq. 1 total.

    Radices are powers of two whose exponents sum to ``slots_log`` (the
    DFT factorizes the full transform); candidate baby steps are the
    power-of-two divisors of ``2 * radix``.
    """
    if level is None:
        level = cost.params.max_level
    # A composition's total is a sum of independent per-position minima,
    # so each (level, radix) cell is priced once per search.
    cells = {}

    def cell(lvl, r):
        best_cell = cells.get((lvl, r))
        if best_cell is None:
            candidates = []
            b = 1
            while b <= 2 * r:
                candidates.append(b)
                b *= 2
            best_cell = cells[(lvl, r)] = min(
                (dft_time_model(cost, lvl, r, b, num_cards, work_scale,
                                comm_bandwidth=comm_bandwidth), b)
                for b in candidates
            )
        return best_cell

    best = None
    best_time = math.inf
    for exponents in _compositions(slots_log, levels):
        radices = tuple(2 ** e for e in exponents)
        time_total = 0.0
        baby = []
        for i, r in enumerate(radices):
            t_min, b_min = cell(max(0, level - i), r)
            time_total += t_min
            baby.append(b_min)
        if time_total < best_time:
            best_time = time_total
            best = DftParameters(radices=radices, baby_steps=tuple(baby))
    return best, best_time


def estimate_bootstrap_time(cost, slots_log, group_size, level=None,
                            work_scale=1.0, comm_bandwidth=None):
    """Analytic estimate of one bootstrap on a ``group_size``-card group.

    Used to choose the group size: beyond some width, the per-matvec tree
    aggregation and result multicast outweigh the extra giant-step
    parallelism (the paper's Section V-G observation that the
    algorithmically optimal parameters are not optimal for the system).
    """
    if level is None:
        level = cost.params.max_level
    if comm_bandwidth is None:
        comm_bandwidth = cost.card.dtu_bandwidth
    _, dft_time = optimal_dft_parameters(
        cost, slots_log, group_size, level=level, work_scale=work_scale,
        comm_bandwidth=comm_bandwidth,
    )
    cmult = cost.cmult(max(0, level - DFT_LEVELS)).seconds * work_scale
    poly_depth = math.ceil(math.log2(EVALEXP_DEGREE + 1))
    tree_depth = min(poly_depth - 2,
                     int(math.log2(group_size)) if group_size > 1 else 0)
    serial_chain = (poly_depth - 1) * cmult
    shared = (2 ** max(0, poly_depth - tree_depth - 1)) * cmult
    t_com = (cost.ciphertext_bytes(level)
             / max(comm_bandwidth, 1e-9)) if group_size > 1 else 0.0
    agg = tree_depth * (cmult + t_com)
    evalexp = serial_chain + shared + agg
    daf = DAF_ITERATIONS * cmult
    multicast = t_com if group_size > 1 else 0.0
    return 2 * dft_time + evalexp + daf + multicast


def choose_boot_group_size(cost, num_nodes, num_jobs, slots_log,
                           level=None, work_scale=1.0,
                           comm_bandwidth=None):
    """Pick the power-of-two group size minimizing total bootstrap time.

    Total time = rounds(g) * per-boot(g) with ``num_nodes // g``
    concurrent groups.
    """
    best_g, best_t = 1, math.inf
    g = 1
    while g <= num_nodes:
        concurrent = num_nodes // g
        rounds = -(-num_jobs // concurrent)
        total = rounds * estimate_bootstrap_time(
            cost, slots_log, g, level=level, work_scale=work_scale,
            comm_bandwidth=comm_bandwidth,
        )
        if total < best_t - 1e-12:
            best_t, best_g = total, g
        g *= 2
    return best_g


def map_bootstrap(
    builder,
    cost,
    nodes,
    tag="Boot",
    slots_log=None,
    start_level=None,
    params=None,
    work_scale=1.0,
):
    """Emit one full bootstrap for the card group ``nodes``.

    Pipeline: C2S (``levels`` BSGS matvecs) → EvaExp (Algorithm-1
    polynomial tree, degree 59) → DAF (local squarings, replicated to
    skip a broadcast) → S2C (``levels`` matvecs).  Each matvec consumes
    one level; EvaExp consumes its tree depth.
    """
    if slots_log is None:
        slots_log = int(math.log2(cost.params.slot_count))
    if start_level is None:
        start_level = cost.params.max_level
    n = len(nodes)
    if params is None:
        params, _ = optimal_dft_parameters(
            cost, slots_log, n, level=start_level, work_scale=work_scale
        )

    level = start_level
    # --- CoeffToSlot ---------------------------------------------------
    for radix, bs in zip(params.radices, params.baby_steps):
        gs = 2 * radix // bs
        map_bsgs_matvec(builder, cost, nodes, max(0, level), bs, gs,
                        tag=tag, broadcast_result=True,
                        work_scale=work_scale)
        level -= 1

    # --- EvaExp (Modulus Reduction, part 1) -----------------------------
    exp_level = max(0, level)
    root_idx = map_polynomial_tree(builder, cost, nodes, EVALEXP_DEGREE,
                                   exp_level, tag=tag,
                                   work_scale=work_scale)
    level -= math.ceil(math.log2(EVALEXP_DEGREE + 1))
    # Distribute the EvaExp result so every card can run DAF + S2C baby
    # steps locally.
    if n > 1:
        root = nodes[0]
        ct_bytes = cost.ciphertext_bytes(max(0, level))
        builder.multicast(root, nodes[1:], ct_bytes, after=root_idx,
                          tag=tag)
        for node in nodes[1:]:
            builder.compute(node, 0.0, tag=tag, needs_recv=True)

    # --- DAF (Modulus Reduction, part 2): replicated local squarings ----
    daf_level = max(0, level)
    daf_ops = OpTrace.single(FheOp.CMULT, DAF_ITERATIONS * work_scale,
                             level=daf_level)
    for node in nodes:
        daf = cost.cmult(daf_level).scaled(DAF_ITERATIONS * work_scale)
        builder.compute(node, daf.seconds, tag=tag, components=daf,
                        ops=daf_ops)
    level -= DAF_ITERATIONS

    # --- SlotToCoeff -----------------------------------------------------
    for radix, bs in zip(params.radices, params.baby_steps):
        gs = 2 * radix // bs
        map_bsgs_matvec(builder, cost, nodes, max(0, level), bs, gs,
                        tag=tag, broadcast_result=True,
                        work_scale=work_scale)
        level -= 1
    return max(0, level)
