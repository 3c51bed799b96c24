"""Unit tests for hardware descriptions: cards, clusters, resources."""

import pytest

from repro.hw import (
    FAB_CARD,
    HYDRA_CARD,
    POSEIDON_CARD,
    CardSpec,
    FpgaResourceModel,
    HYDRA_L,
    HYDRA_M,
    HYDRA_S,
    NetworkSpec,
    U280_RESOURCES,
    fab_cluster,
    hydra_cluster,
)
from repro.hw.cluster import ClusterSpec


class TestCardSpec:
    def test_hydra_card_has_dtu(self):
        assert HYDRA_CARD.dtu_bandwidth > 0

    def test_baseline_cards_have_no_dtu(self):
        assert FAB_CARD.dtu_bandwidth == 0
        assert POSEIDON_CARD.dtu_bandwidth == 0

    def test_without_dtu(self):
        stripped = HYDRA_CARD.without_dtu()
        assert stripped.dtu_bandwidth == 0
        assert stripped.lanes == HYDRA_CARD.lanes

    def test_effective_hbm_bandwidth(self):
        assert (HYDRA_CARD.effective_hbm_bandwidth
                == HYDRA_CARD.hbm_bandwidth * HYDRA_CARD.hbm_efficiency)

    def test_memory_hierarchy_ordering(self):
        """Hydra's data flow beats Poseidon's beats FAB's (Section V-B)."""
        assert (HYDRA_CARD.scratchpad_reuse
                > POSEIDON_CARD.scratchpad_reuse
                > FAB_CARD.scratchpad_reuse)

    def test_validation(self):
        with pytest.raises(ValueError):
            CardSpec(name="bad", scratchpad_reuse=1.5)
        with pytest.raises(ValueError):
            CardSpec(name="bad", lanes=0)


class TestClusterSpec:
    def test_prototype_sizes(self):
        assert HYDRA_S.total_cards == 1
        assert HYDRA_M.total_cards == 8
        assert HYDRA_L.total_cards == 64
        assert HYDRA_L.servers == 8

    def test_single_card_has_no_fabric_and_no_dtu(self):
        assert HYDRA_S.fabric == "none"
        assert HYDRA_S.card.dtu_bandwidth == 0

    def test_server_mapping(self):
        assert HYDRA_L.server_of(0) == 0
        assert HYDRA_L.server_of(7) == 0
        assert HYDRA_L.server_of(8) == 1

    def test_server_of_range_check(self):
        with pytest.raises(ValueError):
            HYDRA_M.server_of(8)

    def test_fab_cluster_is_single_server(self):
        fab = fab_cluster(16)
        assert fab.servers == 1
        assert fab.fabric == "fab-host"

    def test_invalid_fabric_rejected(self):
        with pytest.raises(ValueError):
            ClusterSpec(name="x", servers=1, cards_per_server=2,
                        card=HYDRA_CARD, network=NetworkSpec(),
                        fabric="token-ring")

    def test_single_card_cluster_must_use_none_fabric(self):
        with pytest.raises(ValueError):
            ClusterSpec(name="x", servers=1, cards_per_server=1,
                        card=HYDRA_CARD, network=NetworkSpec(),
                        fabric="hydra-switch")

    def test_custom_hydra_cluster(self):
        c = hydra_cluster(4, 16)
        assert c.total_cards == 64
        assert c.fabric == "hydra-switch"


class TestResourceModel:
    def test_matches_paper_table4(self):
        """The structural model reproduces the published utilization."""
        util = U280_RESOURCES.utilization()
        expected = {
            "LUTs (k)": 76.5,
            "FFs (k)": 52.7,
            "DSP": 96.5,
            "BRAM": 76.2,
            "URAMs": 79.8,
        }
        for key, pct in expected.items():
            assert abs(util[key][2] - pct) < 1.0, key

    def test_design_fits_device(self):
        assert U280_RESOURCES.fits()

    def test_oversized_design_does_not_fit(self):
        assert not FpgaResourceModel(lanes=1024).fits()

    def test_table_rendering(self):
        table = U280_RESOURCES.table()
        assert "DSP" in table
        assert "96.5" in table
