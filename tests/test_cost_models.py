"""Unit tests for the operation cost, energy and EDAP models."""

import pytest

from repro.ckks.params import PAPER_PARAMS
from repro.cost import (
    CONVBN_UNIT,
    EdapModel,
    EnergyAccumulator,
    EnergyModel,
    NONLINEAR_UNIT,
    OpCostModel,
)
from repro.cost.edap import PUBLISHED_ASIC_EDAP
from repro.hw import FAB_CARD, HYDRA_CARD, POSEIDON_CARD


@pytest.fixture(scope="module")
def hydra():
    return OpCostModel(HYDRA_CARD)


class TestPaperParameters:
    def test_limb_counts(self):
        # logQ = 1260 at 36-bit words -> 35 data limbs; log(PQ) = 1692.
        assert PAPER_PARAMS.data_limbs == 35
        assert PAPER_PARAMS.total_limbs == 47
        assert PAPER_PARAMS.special_limbs == 12

    def test_fresh_ciphertext_exceeds_20mb(self):
        """The paper quotes >20 MB ciphertexts (Section II-B)."""
        assert PAPER_PARAMS.ciphertext_bytes() > 20e6


class TestOpCostModel:
    def test_costs_grow_with_level(self, hydra):
        for op in ("hadd", "pmult", "cmult", "rotation", "rescale"):
            low = hydra.op(op, 5).seconds
            high = hydra.op(op, 30).seconds
            assert high > low, op

    def test_op_ordering(self, hydra):
        """CMult >= Rotation >> PMult >= HAdd at any level.

        CMult and Rotation are both paced by the keyswitch NTT passes, so
        they may tie under the dataflow-overlap composition; both must
        dwarf the elementwise operations.
        """
        lvl = PAPER_PARAMS.max_level // 2  # mid-chain
        assert (hydra.cmult(lvl).seconds
                >= hydra.rotation(lvl).seconds
                > 3 * hydra.pmult(lvl).seconds)
        assert hydra.pmult(lvl).seconds >= hydra.hadd(lvl).seconds * 0.5

    def test_keyswitch_dominates_rotation(self, hydra):
        lvl = 20
        ks = hydra.keyswitch(lvl).seconds
        rot = hydra.rotation(lvl).seconds
        assert ks <= rot < ks * 1.2

    def test_unknown_op_rejected(self, hydra):
        with pytest.raises(ValueError):
            hydra.op("teleport", 10)

    def test_level_bounds(self, hydra):
        with pytest.raises(ValueError):
            hydra.limbs(-1)
        with pytest.raises(ValueError):
            hydra.limbs(PAPER_PARAMS.max_level + 1)

    def test_ciphertext_bytes(self, hydra):
        lvl = 10
        expected = 2 * (lvl + 1) * PAPER_PARAMS.poly_degree * 8
        assert hydra.ciphertext_bytes(lvl) == expected

    def test_bundle_composition(self, hydra):
        lvl = 15
        total = hydra.lower(CONVBN_UNIT, lvl)
        manual = (hydra.rotation(lvl).scaled(8)
                  + hydra.pmult(lvl).scaled(2)
                  + hydra.hadd(lvl).scaled(7))
        assert total.seconds == pytest.approx(manual.seconds)

    def test_components_additive(self, hydra):
        a = hydra.hadd(10)
        b = hydra.pmult(10)
        s = a + b
        assert s.ma_s == pytest.approx(a.ma_s + b.ma_s)
        assert s.hbm_bytes == pytest.approx(a.hbm_bytes + b.hbm_bytes)

    def test_scaled(self, hydra):
        c = hydra.rotation(10)
        assert c.scaled(3).ntt_s == pytest.approx(3 * c.ntt_s)


class TestBaselineCalibration:
    """The card-model ratios behind paper Table II's single-card column."""

    def _mix_time(self, card):
        m = OpCostModel(card)
        return (0.7 * m.lower(CONVBN_UNIT, 17).seconds
                + 0.3 * m.lower(NONLINEAR_UNIT, 17).seconds)

    def test_fab_ratio(self):
        ratio = self._mix_time(FAB_CARD) / self._mix_time(HYDRA_CARD)
        assert 2.6 < ratio < 4.0  # paper: 2.8-3.2x

    def test_poseidon_ratio(self):
        ratio = self._mix_time(POSEIDON_CARD) / self._mix_time(HYDRA_CARD)
        assert 1.15 < ratio < 1.6  # paper: ~1.3x


class TestEnergyModel:
    def test_accumulation(self):
        m = OpCostModel(HYDRA_CARD)
        em = EnergyModel(HYDRA_CARD)
        acc = em.energy_of(m.rotation(20))
        assert acc.total > 0
        assert acc.joules["ntt"] > 0
        assert acc.joules["hbm"] > 0

    def test_memory_dominates_compute(self):
        """Paper Fig. 7: memory access takes the largest share."""
        m = OpCostModel(HYDRA_CARD)
        em = EnergyModel(HYDRA_CARD)
        acc = EnergyAccumulator()
        for op in ("rotation", "cmult", "pmult", "hadd"):
            em.energy_of(m.op(op, 25), acc)
        cu = sum(acc.joules[c] for c in ("ntt", "mm", "ma", "auto"))
        assert acc.joules["hbm"] > cu

    def test_ma_is_negligible(self):
        """Paper Fig. 7: MA's energy is minimal among the CUs."""
        m = OpCostModel(HYDRA_CARD)
        em = EnergyModel(HYDRA_CARD)
        acc = em.energy_of(m.lower(CONVBN_UNIT, 25))
        assert acc.joules["ma"] < acc.joules["ntt"]
        assert acc.joules["ma"] < acc.joules["mm"]

    def test_communication_energy(self):
        em = EnergyModel(HYDRA_CARD)
        acc = em.communication_energy(1e9)
        assert acc.joules["dtu"] > 0

    def test_breakdown_sums_to_one(self):
        em = EnergyModel(HYDRA_CARD)
        m = OpCostModel(HYDRA_CARD)
        acc = em.energy_of(m.cmult(20))
        em.static_energy(1.0, 8, acc)
        assert sum(acc.breakdown().values()) == pytest.approx(1.0)

    def test_unknown_component_rejected(self):
        with pytest.raises(ValueError):
            EnergyAccumulator().add("flux-capacitor", 1.0)

    def test_merge(self):
        a = EnergyAccumulator()
        a.add("ntt", 1.0)
        b = EnergyAccumulator()
        b.add("ntt", 2.0)
        b.add("hbm", 3.0)
        a.merge(b)
        assert a.joules["ntt"] == 3.0
        assert a.total == pytest.approx(6.0)


class TestEdapModel:
    def test_area_scales_with_cards(self):
        m = EdapModel()
        assert m.area_mm2(8) == pytest.approx(8 * m.area_mm2(1))

    def test_edap_units(self):
        m = EdapModel()
        one = m.hydra_edap(delay_s=1.0, cards=1)
        # E = P*t, EDAP = P * t^2 * A, with area in m^2 (Table III unit).
        assert one == pytest.approx(
            m.cal.hydra_card_power_w * m.cal.hydra_card_area_mm2 * 1e-6
        )

    def test_published_values_accessible(self):
        m = EdapModel()
        assert m.published("SHARP", "resnet18") == 0.09
        with pytest.raises(KeyError):
            m.published("SHARP", "alexnet")

    def test_published_table_complete(self):
        benches = {"resnet18", "resnet50", "bert_base", "opt_6_7b"}
        for accel, rows in PUBLISHED_ASIC_EDAP.items():
            assert set(rows) == benches, accel
