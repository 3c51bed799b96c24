"""Unit tests for the planner (Procedure-2 step scheduling)."""

import pytest

from repro.hw import FAB_M, HYDRA_M, HYDRA_S
from repro.models import ModelGraph, Step
from repro.sched import Planner


def _tiny_model():
    g = ModelGraph(name="tiny", display_name="Tiny")
    g.add(Step(kind="convbn", name="c1", procedure="ConvBN", level=20,
               units=64, output_ciphertexts=4))
    g.add(Step(kind="nonlinear", name="r1", procedure="ReLU", level=18,
               jobs=4, degree=9))
    g.add(Step(kind="bootstrap", name="b1", procedure="Boot", level=30,
               jobs=2))
    g.add(Step(kind="fc", name="f1", procedure="FC", level=16,
               units=128, output_ciphertexts=1))
    return g


class TestPlannerBasics:
    def test_runs_all_step_kinds(self):
        r = Planner(HYDRA_M).run_model(_tiny_model())
        assert set(r.procedure_span) == {"ConvBN", "ReLU", "Boot", "FC"}
        assert r.total_seconds > 0

    def test_step_barrier_makespans_add(self):
        """Procedure 2: total = sum of per-step makespans."""
        r = Planner(HYDRA_M).run_model(_tiny_model())
        assert sum(r.procedure_span.values()) == pytest.approx(
            r.total_seconds
        )

    def test_single_card_never_communicates(self):
        r = Planner(HYDRA_S).run_model(_tiny_model())
        assert r.bytes_transferred == 0

    def test_multi_card_is_faster(self):
        one = Planner(HYDRA_S).run_model(_tiny_model())
        eight = Planner(HYDRA_M).run_model(_tiny_model())
        assert eight.total_seconds < one.total_seconds

    def test_energy_optional(self):
        r = Planner(HYDRA_M).run_model(_tiny_model(), with_energy=False)
        assert r.energy is None
        r2 = Planner(HYDRA_M).run_model(_tiny_model(), with_energy=True)
        assert r2.energy is not None and r2.energy.total > 0


class TestFabricAwareness:
    def test_comm_bandwidth_selection(self):
        assert Planner(HYDRA_S).comm_bandwidth == float("inf")
        assert Planner(HYDRA_M).comm_bandwidth == pytest.approx(12.5e9)
        assert Planner(FAB_M).comm_bandwidth == pytest.approx(1.25e9)

    def test_fab_slower_than_hydra_same_mapping(self):
        hydra = Planner(HYDRA_M).run_model(_tiny_model())
        fab = Planner(FAB_M).run_model(_tiny_model())
        assert fab.total_seconds > hydra.total_seconds


class TestWorkScale:
    def test_scale_applies_to_unit_steps_only(self):
        from repro.cost.calibration import Calibration
        g = _tiny_model()
        base = Planner(HYDRA_S).run_model(g, with_energy=False)
        doubled = Planner(
            HYDRA_S,
            calibration=Calibration(work_scale={"tiny": 2.0}),
        ).run_model(g, with_energy=False)
        # Unit-parallel spans double; boot and non-linear do not change.
        assert doubled.procedure_span["ConvBN"] == pytest.approx(
            2 * base.procedure_span["ConvBN"], rel=1e-6
        )
        assert doubled.procedure_span["Boot"] == pytest.approx(
            base.procedure_span["Boot"], rel=1e-6
        )
        assert doubled.procedure_span["ReLU"] == pytest.approx(
            base.procedure_span["ReLU"], rel=1e-6
        )

    def test_unit_work_multiplier(self):
        g1 = ModelGraph(name="a", display_name="A")
        g1.add(Step(kind="convbn", name="c", procedure="C", level=20,
                    units=64, output_ciphertexts=1))
        g2 = ModelGraph(name="b", display_name="B")
        g2.add(Step(kind="convbn", name="c", procedure="C", level=20,
                    units=64, unit_work=3.0, output_ciphertexts=1))
        p = Planner(HYDRA_S)
        t1 = p.run_model(g1, with_energy=False).total_seconds
        t2 = p.run_model(g2, with_energy=False).total_seconds
        assert t2 == pytest.approx(3 * t1, rel=1e-6)


class TestSpeedupHelper:
    def test_speedup_over(self):
        one = Planner(HYDRA_S).run_model(_tiny_model())
        eight = Planner(HYDRA_M).run_model(_tiny_model())
        assert eight.speedup_over(one) > 1.0
        assert one.speedup_over(one) == pytest.approx(1.0)


class TestTable1RowsAreShared:
    """The Table I rows are module-level traces every mapped step reads;
    planning must bind levels on copies and leave the rows as Table I
    prints them."""

    def test_mapping_leaves_rows_unbound_and_unchanged(self):
        from repro.core import HydraSystem
        from repro.cost.ops import (
            CCMM_UNIT,
            CONVBN_UNIT,
            FC_UNIT,
            NONLINEAR_UNIT,
            PCMM_UNIT,
            POOLING_UNIT,
        )

        system = HydraSystem.named("Hydra-M")
        for benchmark in ("resnet18", "bert_base#decode"):
            system.run(benchmark, with_energy=False, use_cache=False)
        table1 = [
            (CONVBN_UNIT, {"rotation": 8, "pmult": 2, "hadd": 7}),
            (POOLING_UNIT, {"rotation": 2, "pmult": 1}),
            (FC_UNIT, {"rotation": 1, "pmult": 1}),
            (PCMM_UNIT, {"rotation": 1, "pmult": 1}),
            (CCMM_UNIT, {"rotation": 7, "cmult": 1, "pmult": 1, "hadd": 6}),
            (NONLINEAR_UNIT, {"cmult": 8, "hadd": 15}),
        ]
        for row, counts in table1:
            assert row.totals() == counts
            assert all(level is None for (_, level), _ in row.items())
