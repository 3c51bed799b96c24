"""Unit tests for the baseline accelerator definitions."""

import pytest

from repro.baselines import (
    ASIC_ACCELERATORS,
    FAB_L,
    FAB_M,
    FAB_S,
    POSEIDON,
    asic_edap,
    asic_runtime,
)
from repro.hw import fab_cluster
from repro.sched import Planner


class TestFabBaseline:
    def test_published_sizes(self):
        assert FAB_S.total_cards == 1
        assert FAB_M.total_cards == 8
        assert FAB_L.total_cards == 64

    def test_fab_uses_host_fabric(self):
        assert FAB_M.fabric == "fab-host"
        assert FAB_L.fabric == "fab-host"

    def test_fab_planner_comm_bandwidth_is_lan_bound(self):
        p = Planner(fab_cluster(8))
        assert p.comm_bandwidth == pytest.approx(1.25e9)

    def test_fab_card_slower_than_hydra(self):
        from repro.cost import CONVBN_UNIT, OpCostModel
        from repro.hw import HYDRA_CARD
        fab = OpCostModel(FAB_M.card).lower(CONVBN_UNIT, 20).seconds
        hydra = OpCostModel(HYDRA_CARD).lower(CONVBN_UNIT, 20).seconds
        assert fab > 2 * hydra


class TestPoseidonBaseline:
    def test_single_card_only(self):
        assert POSEIDON.total_cards == 1
        assert POSEIDON.fabric == "none"

    def test_planner_builds(self):
        p = Planner(POSEIDON)
        assert p.cluster is POSEIDON


class TestAsicReferences:
    def test_four_asics(self):
        assert set(ASIC_ACCELERATORS) == {"CraterLake", "BTS", "ARK",
                                          "SHARP"}

    def test_sharp_is_fastest_asic(self):
        for bench in ("resnet18", "resnet50", "bert_base", "opt_6_7b"):
            sharp = asic_runtime("SHARP", bench)
            for other in ("CraterLake", "BTS", "ARK"):
                assert sharp < asic_runtime(other, bench)

    def test_runtime_and_edap_orderings_differ(self):
        # BTS is slowest AND least efficient.
        assert asic_runtime("BTS", "resnet18") > \
            asic_runtime("CraterLake", "resnet18")
        assert asic_edap("BTS", "resnet18") > \
            asic_edap("CraterLake", "resnet18")

    def test_unknown_keys_raise(self):
        with pytest.raises(KeyError):
            asic_runtime("F1", "resnet18")
        with pytest.raises(KeyError):
            asic_edap("SHARP", "vgg16")
