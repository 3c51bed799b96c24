"""Executed-vs-modeled cross-validation: the `repro validate-ops` gate.

The functional tests here run real homomorphic layers with an op
collector active and require the closed-form builders in
``repro.ir.check`` to predict the executed counts *exactly* (the
tolerance policy in DESIGN.md).  The lowering tests pin
``OpCostModel.lower`` byte-for-byte to the legacy ``bundle()`` if-chain.
"""

import numpy as np
import pytest

from repro.ir import FheOp, OpTrace, collect_ops, compare_traces
from repro.ir.check import (
    modeled_bsgs_trace,
    modeled_conv_trace,
    modeled_polyeval_trace,
)


class TestCompareTraces:
    def test_exact_match_ok(self):
        t = OpTrace.single(FheOp.HADD, 3, level=1)
        cmp = compare_traces("w", t, t.scaled(1))
        assert cmp.ok and not cmp.failures

    def test_spurious_executed_op_surfaces(self):
        executed = OpTrace.single(FheOp.HADD, 1) + OpTrace.single(
            FheOp.ROTATION, 1)
        modeled = OpTrace.single(FheOp.HADD, 1)
        cmp = compare_traces("w", executed, modeled)
        assert not cmp.ok
        assert [row.op for row in cmp.failures] == ["rotation"]

    def test_missing_executed_op_surfaces(self):
        executed = OpTrace.single(FheOp.HADD, 1)
        modeled = executed + OpTrace.single(FheOp.KEYSWITCH, 2)
        cmp = compare_traces("w", executed, modeled)
        assert [row.op for row in cmp.failures] == ["keyswitch"]

    def test_tolerance_policy(self):
        executed = OpTrace.single(FheOp.NTT, 101)
        modeled = OpTrace.single(FheOp.NTT, 100)
        assert not compare_traces("w", executed, modeled).ok
        assert compare_traces("w", executed, modeled,
                              tolerances={"ntt": 2}).ok

    def test_render_marks_failures(self):
        cmp = compare_traces("w", OpTrace.single(FheOp.HADD, 2),
                             OpTrace.single(FheOp.HADD, 1))
        assert "!!" in cmp.render()
        assert "DIVERGED" in cmp.render()


class TestExecutedVsModeledFunctional:
    """Real CKKS layers against the closed-form op arithmetic."""

    def test_conv2d_counts(self, deep_fhe, rng):
        from repro.ckks.convolution import Conv2d

        kernel = rng.normal(size=(3, 3))
        conv = Conv2d(deep_fhe.context, kernel, 8, 8)
        gk = deep_fhe.keygen.create_galois_keys(
            [deep_fhe.context.galois_element_for_step(s)
             for s in conv.required_rotation_steps()])
        ct = deep_fhe.encrypt(rng.normal(size=64))
        with collect_ops() as executed:
            conv.apply(ct, deep_fhe.evaluator, gk)
        modeled = modeled_conv_trace(conv._taps,
                                     deep_fhe.params.slot_count)
        assert compare_traces("conv", executed, modeled).ok

    def test_sparse_conv_counts(self, deep_fhe, rng):
        """Zero kernel entries drop taps; the builder must track that."""
        from repro.ckks.convolution import Conv2d

        kernel = np.zeros((3, 3))
        kernel[1, 1] = 1.0  # identity tap: no rotation at all
        kernel[0, 1] = 0.5
        conv = Conv2d(deep_fhe.context, kernel, 8, 8)
        gk = deep_fhe.keygen.create_galois_keys(
            [deep_fhe.context.galois_element_for_step(s)
             for s in conv.required_rotation_steps()])
        with collect_ops() as executed:
            conv.apply(deep_fhe.encrypt(rng.normal(size=64)),
                       deep_fhe.evaluator, gk)
        modeled = modeled_conv_trace(conv._taps,
                                     deep_fhe.params.slot_count)
        assert compare_traces("sparse", executed, modeled).ok
        assert executed.total(FheOp.ROTATION) == 1

    @pytest.mark.parametrize("baby_steps", [None, 4])
    def test_bsgs_counts(self, deep_fhe, rng, baby_steps):
        from repro.ckks import LinearTransform

        n = deep_fhe.params.slot_count
        lt = LinearTransform(deep_fhe.context,
                             0.3 * rng.normal(size=(n, n)),
                             baby_steps=baby_steps)
        gk = deep_fhe.keygen.create_galois_keys(
            [deep_fhe.context.galois_element_for_step(s)
             for s in lt.required_rotation_steps()])
        with collect_ops() as executed:
            lt.apply(deep_fhe.encrypt(rng.normal(size=n)),
                     deep_fhe.evaluator, gk)
        modeled = modeled_bsgs_trace(lt.diagonal_indices, lt.baby_steps, n)
        assert compare_traces("bsgs", executed, modeled).ok

    def test_bsgs_identity_rotations_are_free(self, deep_fhe, rng):
        """The Eq.-1 refinement: a permutation matrix has one diagonal,
        so the whole matvec is rotation + pmult with no folds."""
        from repro.ckks import LinearTransform

        n = deep_fhe.params.slot_count
        perm = np.roll(np.eye(n), -3, axis=1)
        lt = LinearTransform(deep_fhe.context, perm)
        gk = deep_fhe.keygen.create_galois_keys(
            [deep_fhe.context.galois_element_for_step(s)
             for s in lt.required_rotation_steps()])
        with collect_ops() as executed:
            lt.apply(deep_fhe.encrypt(rng.normal(size=n)),
                     deep_fhe.evaluator, gk)
        modeled = modeled_bsgs_trace(lt.diagonal_indices, lt.baby_steps, n)
        assert compare_traces("perm", executed, modeled).ok
        assert executed.total(FheOp.HADD) == 0

    @pytest.mark.parametrize("degree", [3, 5, 7])
    def test_polyeval_counts(self, deep_fhe, rng, degree):
        from repro.ckks import evaluate_polynomial

        coeffs = rng.normal(size=degree + 1) * 0.1
        ct = deep_fhe.encrypt(
            rng.normal(size=deep_fhe.params.slot_count) * 0.1)
        with collect_ops() as executed:
            evaluate_polynomial(ct, coeffs, deep_fhe.evaluator,
                                deep_fhe.relin_key)
        modeled = modeled_polyeval_trace(coeffs)
        assert compare_traces(f"poly{degree}", executed, modeled).ok

    def test_polyeval_sparse_coefficients(self, deep_fhe, rng):
        """Odd polynomial (zero even coefficients): fewer terms, and the
        power tree only builds what the nonzero powers need."""
        from repro.ckks import evaluate_polynomial

        coeffs = [0.0, 0.3, 0.0, -0.05, 0.0, 0.01, 0.0, -0.002]
        ct = deep_fhe.encrypt(
            rng.normal(size=deep_fhe.params.slot_count) * 0.1)
        with collect_ops() as executed:
            evaluate_polynomial(ct, coeffs, deep_fhe.evaluator,
                                deep_fhe.relin_key)
        modeled = modeled_polyeval_trace(coeffs)
        assert compare_traces("odd-poly", executed, modeled).ok


class TestLowerByteIdentity:
    """``lower()`` must price the Table I rows bit-identically to the
    reference if-chain below (rotation, cmult, pmult, hadd, rescale)."""

    @staticmethod
    def _legacy_bundle(cost, row, level):
        from repro.cost.model import OpComponents

        total = OpComponents()
        if row.total("rotation"):
            total = total + cost.rotation(level).scaled(
                row.total("rotation"))
        if row.total("cmult"):
            total = total + cost.cmult(level).scaled(row.total("cmult"))
        if row.total("pmult"):
            total = total + cost.pmult(level).scaled(row.total("pmult"))
        if row.total("hadd"):
            total = total + cost.hadd(level).scaled(row.total("hadd"))
        if row.total("rescale"):
            total = total + cost.rescale(level).scaled(
                row.total("rescale"))
        return total

    @pytest.fixture(scope="class")
    def cost(self):
        from repro.cost import OpCostModel
        from repro.hw import HYDRA_CARD

        return OpCostModel(HYDRA_CARD)

    @pytest.mark.parametrize("level", [1, 10, 20])
    def test_all_table1_bundles(self, cost, level):
        from repro.cost.ops import (
            CCMM_UNIT,
            CONVBN_UNIT,
            FC_UNIT,
            NONLINEAR_UNIT,
            PCMM_UNIT,
            POOLING_UNIT,
        )

        for row in (CONVBN_UNIT, POOLING_UNIT, FC_UNIT, PCMM_UNIT,
                    CCMM_UNIT, NONLINEAR_UNIT):
            want = self._legacy_bundle(cost, row, level)
            assert cost.lower(row, level=level) == want
            assert cost.lower(row.at_level(level)) == want

    def test_lower_requires_a_level(self, cost):
        with pytest.raises(ValueError):
            cost.lower(OpTrace.single(FheOp.HADD, 1))

    def test_lower_rejects_unpriced_ops(self, cost):
        with pytest.raises(ValueError):
            cost.lower(OpTrace.single(FheOp.NTT, 1, level=3))

    def test_baselines_lower_the_same_ir(self):
        from repro.cost import OpCostModel
        from repro.cost.ops import CONVBN_UNIT
        from repro.hw.card import FAB_CARD, POSEIDON_CARD

        trace = CONVBN_UNIT.at_level(15)
        for model in (OpCostModel(FAB_CARD), OpCostModel(POSEIDON_CARD)):
            assert model.lower(trace).seconds > 0


class TestRunValidation:
    def test_tiny_suite_passes(self):
        from repro.ir.validate import run_validation

        report = run_validation(tiny=True)
        assert report.ok
        names = [c.name for c in report.comparisons]
        assert names == ["convbn_3x3", "fc_bsgs", "nonlinear_polyeval_d7",
                         "bootstrap_coeff_to_slot", "attention_block"]
        assert "PASS" in report.render()

    @pytest.mark.parametrize("op", ["rotation", "automorphism"])
    def test_perturbed_suite_fails(self, op):
        """Perturbing any op — even one never executed — must bite."""
        from repro.ir.validate import run_validation

        report = run_validation(tiny=True, perturb=op)
        assert not report.ok
        assert "FAIL" in report.render()

    def test_cli_exit_codes(self, tmp_path):
        import json

        from repro.core.cli import main

        sink = []
        assert main(["validate-ops", "--tiny"], out=sink.append) == 0
        out_file = tmp_path / "report.json"
        assert main(["validate-ops", "--tiny", "--perturb", "hadd",
                     "--out", str(out_file)], out=sink.append) == 1
        payload = json.loads(out_file.read_text())
        assert payload["ok"] is False
        assert payload["perturbed"] == "hadd"
