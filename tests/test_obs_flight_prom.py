"""Tests for the flight recorder ring and the Prometheus text writer."""

import json

import pytest

from repro.obs import (
    FlightRecorder,
    MetricsRegistry,
    PromWriter,
    registry_to_prom,
)


class TestFlightRecorder:
    def test_records_in_order_below_capacity(self):
        rec = FlightRecorder(capacity=8)
        rec.record("admit", 1.0, tenant="a")
        rec.record("dispatch", 2.0, batch="b-0")
        events = rec.events()
        assert [e["kind"] for e in events] == ["admit", "dispatch"]
        assert [e["seq"] for e in events] == [0, 1]
        assert rec.dropped == 0
        assert len(rec) == rec.total_recorded == 2

    def test_ring_evicts_oldest(self):
        rec = FlightRecorder(capacity=3)
        for k in range(10):
            rec.record("tick", float(k), k=k)
        events = rec.events()
        assert len(rec) == 3
        assert [e["seq"] for e in events] == [7, 8, 9]
        assert rec.total_recorded == 10
        assert rec.dropped == 7

    def test_trigger_remembers_first(self):
        rec = FlightRecorder(capacity=4)
        rec.record("admit", 0.5)
        rec.trigger("slo_budget_exceeded", 1.5, tenant="hot")
        rec.trigger("slo_budget_exceeded", 9.0, tenant="warm")
        assert rec.first_trigger == ("slo_budget_exceeded", 1.5, 1)
        kinds = [e["kind"] for e in rec.events()]
        assert kinds == ["admit", "trigger", "trigger"]

    def test_jsonl_is_canonical_and_stamped(self):
        rec = FlightRecorder(capacity=2)
        rec.record("admit", 1.0, tenant="a")
        text = rec.to_jsonl(extra_fields={"fleet": "hydra-m"})
        line = json.loads(text.splitlines()[0])
        assert line == {"fleet": "hydra-m", "kind": "admit", "seq": 0,
                        "tenant": "a", "time": 1.0}
        # sorted-key rendering, trailing newline, empty ring -> ""
        assert text == json.dumps(line, sort_keys=True) + "\n"
        assert FlightRecorder().to_jsonl() == ""

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            FlightRecorder(capacity=0)

    def test_wrapped_ring_with_triggers_reads_back_exactly(self):
        rec = FlightRecorder(capacity=3)
        rec.record("admit", 1, tenant="a", request=0)
        rec.record("admit", 2.0, tenant="b", request=1)
        rec.trigger("scale_up", 2.5, clusters=["Hydra-M#1"], ready_at=4)
        rec.record("dispatch", 3, batch="batch-00000",
                   cluster="Hydra-M#0")
        rec.trigger("slo_budget_exceeded", 4, tenant="a", misses=2)
        events = rec.events()
        assert events == [
            {"seq": 2, "time": 2.5, "kind": "trigger",
             "reason": "scale_up", "clusters": ["Hydra-M#1"],
             "ready_at": 4},
            {"seq": 3, "time": 3.0, "kind": "dispatch",
             "batch": "batch-00000", "cluster": "Hydra-M#0"},
            {"seq": 4, "time": 4.0, "kind": "trigger",
             "reason": "slo_budget_exceeded", "tenant": "a", "misses": 2},
        ]
        assert [list(e)[:3] for e in events] == [["seq", "time",
                                                  "kind"]] * 3
        assert all(type(e["time"]) is float for e in events)
        assert rec.first_trigger == ("scale_up", 2.5, 2)
        assert (len(rec), rec.total_recorded, rec.dropped) == (3, 5, 2)
        assert rec.to_jsonl(extra_fields={"fleet": "f"}) == (
            '{"clusters": ["Hydra-M#1"], "fleet": "f", "kind": "trigger", '
            '"ready_at": 4, "reason": "scale_up", "seq": 2, "time": 2.5}\n'
            '{"batch": "batch-00000", "cluster": "Hydra-M#0", '
            '"fleet": "f", "kind": "dispatch", "seq": 3, "time": 3.0}\n'
            '{"fleet": "f", "kind": "trigger", "misses": 2, '
            '"reason": "slo_budget_exceeded", "seq": 4, "tenant": "a", '
            '"time": 4.0}\n')


class TestPromWriter:
    def test_counter_and_gauge_families(self):
        text = (PromWriter()
                .counter("repro.serve.arrivals", 7,
                         labels={"tenant": "a"}, help_text="arrivals")
                .gauge("depth", 3.5)
                .render())
        assert "# HELP repro_serve_arrivals arrivals" in text
        assert "# TYPE repro_serve_arrivals counter" in text
        assert 'repro_serve_arrivals{tenant="a"} 7' in text
        assert "depth 3.5" in text

    def test_summary_quantile_ladder(self):
        text = (PromWriter()
                .summary("lat", count=10, total=25.0,
                         quantiles={0.5: 1.0, 0.99: 4.0},
                         labels={"tenant": "a"})
                .render())
        lines = [ln for ln in text.splitlines() if ln.startswith("lat")]
        assert lines == [
            'lat{quantile="0.5",tenant="a"} 1',
            'lat{quantile="0.99",tenant="a"} 4',
            'lat_count{tenant="a"} 10',
            'lat_sum{tenant="a"} 25',
        ]

    def test_histogram_is_cumulative_with_inf(self):
        text = (PromWriter()
                .histogram("lat", buckets={1.0: 3, 10.0: 2},
                           count=7, total=30.0)
                .render())
        lines = [ln for ln in text.splitlines() if ln.startswith("lat")]
        # 2 observations above every finite bound land in +Inf only.
        assert lines == [
            'lat_bucket{le="1"} 3',
            'lat_bucket{le="10"} 5',
            'lat_bucket{le="+Inf"} 7',
            "lat_count 7",
            "lat_sum 30",
        ]

    def test_type_conflict_raises(self):
        writer = PromWriter().counter("x", 1)
        with pytest.raises(ValueError, match="already registered"):
            writer.gauge("x", 2)

    def test_label_values_escaped(self):
        text = (PromWriter()
                .gauge("g", 1, labels={"path": 'a"b\\c\nd'})
                .render())
        assert 'path="a\\"b\\\\c\\nd"' in text

    def test_deterministic_family_order(self):
        def build(order):
            w = PromWriter()
            for name in order:
                w.counter(name, 1)
            return w.render()

        assert build(["b", "a"]) == build(["a", "b"])


class TestRegistryToProm:
    def test_round_trips_registry_snapshot(self):
        reg = MetricsRegistry()
        reg.inc("serve.arrivals", 3, tenant="a")
        reg.set_gauge("queue.depth", 2.0)
        reg.observe("latency", 0.5, buckets=(1.0, 10.0))
        reg.observe("latency", 99.0, buckets=(1.0, 10.0))
        text = registry_to_prom(reg.snapshot()).render()
        assert 'repro_serve_arrivals{tenant="a"} 3' in text
        assert "repro_queue_depth 2" in text
        assert 'repro_latency_bucket{le="1"} 1' in text
        assert 'repro_latency_bucket{le="+Inf"} 2' in text
        assert "repro_latency_count 2" in text
        assert "repro_latency_sum 99.5" in text

    def test_empty_snapshot_renders_empty(self):
        reg = MetricsRegistry()
        assert registry_to_prom(reg.snapshot()).render() == ""
