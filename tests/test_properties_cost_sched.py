"""Property-based tests for the cost model and scheduling helpers."""

from hypothesis import given, settings, strategies as st

from repro.cost import OpCostModel
from repro.hw import HYDRA_CARD
from repro.ir import OpTrace
from repro.sched.groups import group_assignments, partition_groups

_SETTINGS = dict(max_examples=40, deadline=None)
_COST = OpCostModel(HYDRA_CARD)
_OPS = ("hadd", "pmult", "cmult", "rotation", "rescale", "keyswitch")


class TestCostModelProperties:
    @given(st.sampled_from(_OPS),
           st.integers(0, _COST.params.max_level - 1))
    @settings(**_SETTINGS)
    def test_monotone_in_level(self, op, level):
        assert (_COST.op(op, level + 1).seconds
                >= _COST.op(op, level).seconds)

    @given(st.sampled_from(_OPS), st.sampled_from(_OPS),
           st.integers(0, _COST.params.max_level))
    @settings(**_SETTINGS)
    def test_components_additive(self, op_a, op_b, level):
        a = _COST.op(op_a, level)
        b = _COST.op(op_b, level)
        s = a + b
        assert abs(s.ntt_s - (a.ntt_s + b.ntt_s)) < 1e-15
        assert abs(s.hbm_bytes - (a.hbm_bytes + b.hbm_bytes)) < 1e-3
        # The pacing time of the sum never exceeds the serial sum.
        assert s.seconds <= a.seconds + b.seconds + 1e-15

    @given(st.integers(0, 20), st.integers(0, 5), st.integers(0, 20),
           st.integers(0, 20), st.integers(1, 4),
           st.integers(0, _COST.params.max_level))
    @settings(**_SETTINGS)
    def test_bundle_equals_manual_sum(self, rot, cm, pm, ha, scale_k,
                                      level):
        bundle = OpTrace([(("rotation", None), rot), (("cmult", None), cm),
                          (("pmult", None), pm), (("hadd", None), ha)])
        if bundle.total_ops == 0:
            return
        total = _COST.lower(bundle, level)
        manual = (
            _COST.rotation(level).scaled(rot)
            + _COST.cmult(level).scaled(cm)
            + _COST.pmult(level).scaled(pm)
            + _COST.hadd(level).scaled(ha)
        )
        assert abs(total.compute_s - manual.compute_s) < 1e-12
        scaled = bundle.scaled(scale_k)
        assert scaled.total_ops == bundle.total_ops * scale_k

    @given(st.integers(0, _COST.params.max_level))
    @settings(**_SETTINGS)
    def test_ciphertext_grows_linearly_with_limbs(self, level):
        per_limb = 2 * _COST.params.poly_degree * 8
        assert _COST.ciphertext_bytes(level) == (level + 1) * per_limb


class TestGroupProperties:
    @given(st.integers(1, 128), st.integers(1, 256))
    @settings(**_SETTINGS)
    def test_partition_invariants(self, nodes, jobs):
        groups, rounds = partition_groups(nodes, jobs)
        # Groups are disjoint, power-of-two sized, within range.
        seen = set()
        for g in groups:
            assert len(g) & (len(g) - 1) == 0
            for n in g:
                assert 0 <= n < nodes
                assert n not in seen
                seen.add(n)
        assert rounds >= 1
        # Enough group-rounds to cover every job.
        assert len(groups) * rounds >= jobs

    @given(st.integers(1, 128), st.integers(1, 256))
    @settings(**_SETTINGS)
    def test_assignments_cover_jobs_exactly(self, nodes, jobs):
        total = sum(c for _, c in group_assignments(nodes, jobs))
        assert total == jobs

    @given(st.integers(1, 128), st.integers(1, 256))
    @settings(**_SETTINGS)
    def test_assignment_balance(self, nodes, jobs):
        counts = [c for _, c in group_assignments(nodes, jobs)]
        assert max(counts) - min(counts) <= 1
