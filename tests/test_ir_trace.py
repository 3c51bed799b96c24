"""Unit tests for the shared FHE-op IR: traces, algebra, serialization,
and simulator threading."""

import json

import pytest

from repro.ir import (
    CANONICAL_ORDER,
    FheOp,
    OpTrace,
    coerce_op,
    collect_ops,
    record_op,
)


class TestVocabulary:
    def test_coerce_accepts_enum_and_name(self):
        assert coerce_op("hadd") is FheOp.HADD
        assert coerce_op(FheOp.PMULT) is FheOp.PMULT

    def test_coerce_rejects_unknown(self):
        with pytest.raises(ValueError):
            coerce_op("bogus")

    def test_canonical_order_covers_vocabulary(self):
        assert set(CANONICAL_ORDER) == set(FheOp)
        assert len(CANONICAL_ORDER) == len(FheOp)


class TestAlgebra:
    def test_add_merges_counts(self):
        a = OpTrace.single(FheOp.HADD, 2, level=3)
        b = OpTrace.single(FheOp.HADD, 1, level=3) + OpTrace.single(
            FheOp.PMULT, 4, level=2)
        merged = a + b
        assert merged.total(FheOp.HADD) == 3
        assert merged.total("pmult") == 4
        # operands untouched
        assert a.total(FheOp.HADD) == 2

    def test_scaled(self):
        t = OpTrace.single(FheOp.ROTATION, 3, level=5).scaled(2.5)
        assert t.total(FheOp.ROTATION) == 7.5

    def test_zero_counts_are_dropped(self):
        t = OpTrace.single(FheOp.HADD, 0)
        assert not t
        assert t.items() == []
        assert OpTrace.single(FheOp.HADD, 1).scaled(0).total_ops == 0

    def test_at_level_binds_only_unbound_entries(self):
        t = OpTrace([((FheOp.HADD, None), 2), ((FheOp.PMULT, 7), 1)])
        bound = t.at_level(4)
        assert bound.items() == [((FheOp.PMULT, 7), 1), ((FheOp.HADD, 4), 2)]

    def test_equality_is_order_insensitive(self):
        a = OpTrace([((FheOp.HADD, 1), 2), ((FheOp.PMULT, 1), 3)])
        b = OpTrace([((FheOp.PMULT, 1), 3), ((FheOp.HADD, 1), 2)])
        assert a == b
        assert a != b + OpTrace.single(FheOp.HADD, 1, level=1)

    def test_totals_aggregate_over_levels(self):
        t = (OpTrace.single(FheOp.HADD, 2, level=1)
             + OpTrace.single(FheOp.HADD, 3, level=2))
        assert t.totals() == {"hadd": 5}
        assert t.total(FheOp.HADD) == 5

    def test_update_in_place_with_factor(self):
        acc = OpTrace.single(FheOp.CMULT, 1, level=2)
        acc.update(OpTrace.single(FheOp.CMULT, 2, level=2), factor=3)
        assert acc.total(FheOp.CMULT) == 7


class TestSerialization:
    def test_json_round_trip_exact(self):
        t = (OpTrace.single(FheOp.ROTATION, 8, level=20)
             + OpTrace.single(FheOp.PMULT, 2.5, level=20)
             + OpTrace.single(FheOp.HADD, 7, level=None))
        blob = json.dumps(t.to_dict())
        back = OpTrace.from_dict(json.loads(blob))
        assert back == t
        assert back.to_dict() == t.to_dict()

    def test_layout_is_deterministic(self):
        a = OpTrace([((FheOp.HADD, 1), 2), ((FheOp.ROTATION, 1), 3)])
        b = OpTrace([((FheOp.ROTATION, 1), 3), ((FheOp.HADD, 1), 2)])
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())


class TestCollectors:
    def test_collectors_nest_without_stealing(self):
        with collect_ops() as outer:
            record_op(FheOp.HADD, level=3)
            with collect_ops() as inner:
                record_op(FheOp.PMULT, level=2)
        assert outer.totals() == {"pmult": 1, "hadd": 1}
        assert inner.totals() == {"pmult": 1}

    def test_no_collector_is_a_noop(self):
        record_op(FheOp.HADD)  # must not raise

    def test_record_op_emits_the_legacy_metric(self):
        from repro.obs import MetricsRegistry, use_registry

        registry = MetricsRegistry()
        with use_registry(registry):
            record_op(FheOp.ROTATION, level=4, count=2)
        counters = registry.snapshot()["counters"]
        assert "ckks.evaluator.ops" in counters
        series = counters["ckks.evaluator.ops"]
        assert sum(series.values()) == 2
        assert any("rotation" in labels for labels in series)


class TestSimContracts:
    def test_negative_send_size_rejected(self):
        from repro.sim.program import SendTask

        with pytest.raises(ValueError):
            SendTask(dst=0, size=-1.0)

    def test_negative_compute_duration_rejected(self):
        from repro.sim.program import ComputeTask

        with pytest.raises(ValueError):
            ComputeTask(duration=-0.5)

    def test_simulator_threads_ops_into_node_histograms(self):
        from repro.hw import hydra_cluster
        from repro.sim import ProgramBuilder, Simulator
        from repro.sim.result import SimResult

        builder = ProgramBuilder(2)
        builder.compute(0, 1e-6, ops=OpTrace.single(FheOp.HADD, 3, level=2))
        builder.compute(0, 1e-6, ops=OpTrace.single(FheOp.PMULT, 1, level=2))
        builder.compute(1, 1e-6)  # uninstrumented card
        result = Simulator(hydra_cluster(1, 2)).run(builder.build())
        assert result.node_ops[0].totals() == {"pmult": 1, "hadd": 3}
        assert result.node_ops[1] is None
        assert result.total_ops().totals() == {"pmult": 1, "hadd": 3}
        # and the histogram survives the cache round trip
        back = SimResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert back.node_ops[0] == result.node_ops[0]
        assert back.node_ops[1] is None

    def test_total_ops_none_when_uninstrumented(self):
        from repro.hw import hydra_cluster
        from repro.sim import ProgramBuilder, Simulator

        builder = ProgramBuilder(1)
        builder.compute(0, 1e-6)
        result = Simulator(hydra_cluster(1, 1)).run(builder.build())
        assert result.node_ops == []
        assert result.total_ops() is None


class TestOpHistogram:
    def test_rows_and_totals(self):
        from repro.analysis import op_histogram

        node_ops = [
            OpTrace.single(FheOp.HADD, 2, level=1),
            None,
            OpTrace.single(FheOp.HADD, 1) + OpTrace.single(FheOp.ROTATION, 4),
        ]
        headers, rows = op_histogram(node_ops)
        assert headers == ["Card", "rotation", "hadd"]
        assert rows == [[0, 0, 2], [2, 4, 1], ["total", 4, 3]]

    def test_empty(self):
        from repro.analysis import op_histogram

        assert op_histogram([None, None]) == ([], [])


class TestLevelHistogram:
    def test_rows_keyed_by_level_fresh_first(self):
        from repro.analysis import level_histogram

        node_ops = [
            OpTrace.single(FheOp.HADD, 2, level=3),
            None,
            (OpTrace.single(FheOp.HADD, 1, level=3)
             + OpTrace.single(FheOp.ROTATION, 4, level=1)
             + OpTrace.single(FheOp.CMULT, 5)),  # level-less
        ]
        headers, rows = level_histogram(node_ops)
        assert headers == ["Level", "rotation", "cmult", "hadd"]
        assert rows == [
            [3, 0, 0, 3],
            [1, 4, 0, 0],
            ["-", 0, 5, 0],
            ["total", 4, 5, 3],
        ]

    def test_max_rows_folds_the_tail(self):
        from repro.analysis import level_histogram

        node_ops = [OpTrace.single(FheOp.HADD, 1, level=lvl)
                    for lvl in range(6)]
        headers, rows = level_histogram(node_ops, max_rows=2)
        assert rows[0] == [5, 1]
        assert rows[1] == [4, 1]
        assert rows[2] == ["...", 4]  # levels 3..0 folded, not dropped
        assert rows[3] == ["total", 6]

    def test_empty(self):
        from repro.analysis import level_histogram

        assert level_histogram([None]) == ([], [])
