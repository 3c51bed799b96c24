"""Unit tests for the task-mapping strategies (paper Section III)."""

import pytest

from repro.cost import CONVBN_UNIT, OpCostModel
from repro.hw import HYDRA_CARD, hydra_cluster
from repro.sched import (
    group_assignments,
    map_bsgs_matvec,
    map_distributed_units,
    map_polynomial_tree,
    partition_groups,
)
from repro.sched.nonlinear import polynomial_tree_depth
from repro.sim import ProgramBuilder, Simulator


@pytest.fixture(scope="module")
def cost():
    return OpCostModel(HYDRA_CARD)


def _simulate(builder, n):
    return Simulator(hydra_cluster(1, n)).run(builder.build())


class TestGroups:
    def test_fewer_jobs_than_nodes(self):
        groups, rounds = partition_groups(8, 2)
        assert rounds == 1
        assert [len(g) for g in groups] == [4, 4]
        assert groups[0] == [0, 1, 2, 3]

    def test_group_sizes_are_powers_of_two(self):
        groups, _ = partition_groups(12, 5)
        for g in groups:
            assert len(g) & (len(g) - 1) == 0

    def test_more_jobs_than_nodes(self):
        groups, rounds = partition_groups(4, 10)
        assert rounds == 3
        assert [len(g) for g in groups] == [1, 1, 1, 1]

    def test_assignments_cover_all_jobs_exactly(self):
        for nodes, jobs in ((8, 3), (8, 8), (4, 10), (64, 18), (2, 1)):
            total = sum(c for _, c in group_assignments(nodes, jobs))
            assert total == jobs, (nodes, jobs)

    def test_validation(self):
        with pytest.raises(ValueError):
            partition_groups(0, 1)
        with pytest.raises(ValueError):
            partition_groups(4, 0)


class TestDistributedUnits:
    def test_single_node_runs_everything(self, cost):
        b = ProgramBuilder(1)
        work = map_distributed_units(
            b, cost, units=100, unit_trace=CONVBN_UNIT, level=20,
            output_ciphertexts=8, tag="ConvBN",
        )
        res = _simulate(b, 1)
        assert res.makespan == pytest.approx(work)
        assert res.bytes_transferred == 0

    def test_near_linear_speedup(self, cost):
        times = {}
        for n in (1, 4, 8):
            b = ProgramBuilder(n)
            map_distributed_units(
                b, cost, units=1024, unit_trace=CONVBN_UNIT, level=20,
                output_ciphertexts=8, tag="ConvBN",
            )
            times[n] = _simulate(b, n).makespan
        assert times[1] / times[4] > 3.2
        assert times[1] / times[8] > 6.0

    def test_uneven_units_distributed(self, cost):
        b = ProgramBuilder(4)
        map_distributed_units(
            b, cost, units=7, unit_trace=CONVBN_UNIT, level=20,
            output_ciphertexts=4, tag="x",
        )
        res = _simulate(b, 4)
        # 7 units over 4 nodes: busiest node has 2.
        unit = cost.lower(CONVBN_UNIT, 20).seconds
        assert res.makespan >= 2 * unit

    def test_communication_mostly_hidden(self, cost):
        """Paper Section III-A: conv transfers overlap with computation."""
        b = ProgramBuilder(8)
        map_distributed_units(
            b, cost, units=1024, unit_trace=CONVBN_UNIT, level=20,
            output_ciphertexts=8, tag="x",
        )
        res = _simulate(b, 8)
        assert res.comm_overhead_fraction < 0.15

    def test_zero_units_rejected(self, cost):
        b = ProgramBuilder(2)
        with pytest.raises(ValueError):
            map_distributed_units(
                b, cost, units=0, unit_trace=CONVBN_UNIT, level=20,
                output_ciphertexts=1, tag="x",
            )


class TestBsgsMatvec:
    def test_single_node(self, cost):
        b = ProgramBuilder(1)
        map_bsgs_matvec(b, cost, [0], level=20, bs=4, gs=8, tag="FC")
        res = _simulate(b, 1)
        rot = cost.rotation(20).seconds
        assert res.makespan > 4 * rot  # at least the baby steps

    def test_giant_steps_distribute(self, cost):
        t1 = ProgramBuilder(1)
        map_bsgs_matvec(t1, cost, [0], level=20, bs=2, gs=32, tag="FC")
        one = _simulate(t1, 1).makespan
        t4 = ProgramBuilder(4)
        map_bsgs_matvec(t4, cost, [0, 1, 2, 3], level=20, bs=2, gs=32,
                        tag="FC")
        four = _simulate(t4, 4).makespan
        # Replicated baby steps and the aggregation tree bound the
        # speedup below card count (Eq. 1's structure).
        assert one / four > 1.7

    def test_baby_steps_do_not_distribute(self, cost):
        """bs replicates on every card (paper Section III-B point 1)."""
        b = ProgramBuilder(2)
        map_bsgs_matvec(b, cost, [0, 1], level=20, bs=8, gs=2, tag="FC")
        res = _simulate(b, 2)
        rot = cost.rotation(20).seconds
        for node_stats in res.nodes:
            assert node_stats.compute_busy >= 8 * rot * 0.9

    def test_tree_aggregation_transfers(self, cost):
        b = ProgramBuilder(4)
        map_bsgs_matvec(b, cost, [0, 1, 2, 3], level=20, bs=2, gs=8,
                        tag="FC", broadcast_result=False)
        res = _simulate(b, 4)
        # Tree over 4 nodes: 2 + 1 = 3 aggregation transfers.
        assert res.transfers == 3

    def test_group_size_must_be_power_of_two(self, cost):
        b = ProgramBuilder(3)
        with pytest.raises(ValueError):
            map_bsgs_matvec(b, cost, [0, 1, 2], level=20, bs=2, gs=4,
                            tag="FC")

    def test_invalid_bs_gs(self, cost):
        b = ProgramBuilder(1)
        with pytest.raises(ValueError):
            map_bsgs_matvec(b, cost, [0], level=20, bs=0, gs=4, tag="FC")


class TestPolynomialTree:
    def test_depth_rule(self):
        """tree_depth = min(poly_depth - 2, card_depth) from Alg. 1."""
        assert polynomial_tree_depth(degree=59, num_cards=64) == 4
        assert polynomial_tree_depth(degree=59, num_cards=4) == 2
        assert polynomial_tree_depth(degree=7, num_cards=64) == 1
        assert polynomial_tree_depth(degree=3, num_cards=64) == 0

    def test_single_card(self, cost):
        b = ProgramBuilder(1)
        map_polynomial_tree(b, cost, [0], degree=59, level=20, tag="NL")
        res = _simulate(b, 1)
        assert res.makespan > 0
        assert res.bytes_transferred == 0

    def test_multi_card_faster_than_single(self, cost):
        b1 = ProgramBuilder(1)
        map_polynomial_tree(b1, cost, [0], degree=59, level=20, tag="NL")
        one = _simulate(b1, 1).makespan
        b4 = ProgramBuilder(4)
        map_polynomial_tree(b4, cost, [0, 1, 2, 3], degree=59, level=20,
                            tag="NL")
        four = _simulate(b4, 4).makespan
        assert four < one

    def test_small_degree_never_decomposes(self, cost):
        """Sub-polynomials of degree <= 4 stay on one card (Alg. 1)."""
        b = ProgramBuilder(8)
        map_polynomial_tree(b, cost, list(range(8)), degree=3, level=20,
                            tag="NL")
        res = _simulate(b, 8)
        assert res.bytes_transferred == 0

    def test_result_lands_on_group_root(self, cost):
        b = ProgramBuilder(4)
        idx = map_polynomial_tree(b, cost, [0, 1, 2, 3], degree=15,
                                  level=20, tag="NL")
        assert idx == len(b.programs[0].compute) - 1

    def test_invalid_degree(self, cost):
        b = ProgramBuilder(1)
        with pytest.raises(ValueError):
            map_polynomial_tree(b, cost, [0], degree=0, level=20, tag="NL")
