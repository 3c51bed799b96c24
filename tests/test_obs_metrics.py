"""Tests for repro.obs: metrics registry, snapshots, span tracing."""

import json
import sys
import threading

import pytest

from repro.obs import (
    MetricsRegistry,
    Recorder,
    current_recorder,
    get_registry,
    inc,
    merge_snapshots,
    span,
    use_registry,
)


class TestRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.inc("ops", op="cmult")
        reg.inc("ops", 2, op="cmult")
        reg.inc("ops", op="rescale")
        snap = reg.snapshot()
        assert snap["counters"]["ops"]["op=cmult"] == 3
        assert snap["counters"]["ops"]["op=rescale"] == 1

    def test_label_keys_are_sorted(self):
        reg = MetricsRegistry()
        reg.inc("x", b="2", a="1")
        reg.inc("x", a="1", b="2")
        assert reg.snapshot()["counters"]["x"] == {"a=1,b=2": 2}

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.set_gauge("depth", 3)
        reg.set_gauge("depth", 7)
        assert reg.snapshot()["gauges"]["depth"][""] == 7

    def test_histogram_buckets_and_stats(self):
        reg = MetricsRegistry()
        for value in (0.5e-6, 5e-6, 2.0, 1e9):
            reg.observe("lat", value)
        hist = reg.snapshot()["histograms"]["lat"][""]
        assert hist["count"] == 4
        assert hist["sum"] == pytest.approx(1e9 + 2.0 + 5.5e-6)
        assert hist["min"] == 0.5e-6 and hist["max"] == 1e9
        assert hist["buckets"]["1e-06"] == 1
        assert hist["buckets"]["1e-05"] == 1
        assert hist["buckets"]["10"] == 1
        assert hist["buckets"]["+Inf"] == 1

    def test_snapshot_is_json_and_detached(self):
        reg = MetricsRegistry()
        reg.inc("n")
        reg.observe("h", 1.0)
        snap = reg.snapshot()
        json.dumps(snap)  # must be plain JSON data
        reg.inc("n")
        reg.observe("h", 2.0)
        assert snap["counters"]["n"][""] == 1
        assert snap["histograms"]["h"][""]["count"] == 1

    def test_reset_and_is_empty(self):
        reg = MetricsRegistry()
        assert reg.is_empty
        reg.inc("n")
        assert not reg.is_empty
        reg.reset()
        assert reg.is_empty

    def test_concurrent_records_are_not_lost(self):
        """Threads hammering one registry land exact totals.

        The live server's two CKKS worker threads and its event loop
        share one registry; with a thread switch forced every
        microsecond, an unlocked read-modify-write loses a few percent
        of the counts.
        """
        reg = MetricsRegistry()
        workers, per_thread = 4, 100_000
        start = threading.Barrier(workers)

        def work(tag):
            start.wait()
            for i in range(per_thread):
                reg.inc("ops", 10, op="rotation")
                if i % 100 == 0:
                    reg.observe("lat", 0.5)
                    reg.set_gauge("last", i, worker=tag)
                    reg.snapshot()

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(str(t),))
                       for t in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        snap = reg.snapshot()
        total = workers * per_thread
        assert snap["counters"]["ops"]["op=rotation"] == 10 * total
        assert snap["histograms"]["lat"][""]["count"] == total // 100
        assert snap["gauges"]["last"] == {
            f"worker={t}": per_thread - 100 for t in range(workers)}


class TestMerge:
    def test_merge_sums_counters_in_order(self):
        a = MetricsRegistry()
        a.inc("n", 1)
        b = MetricsRegistry()
        b.inc("n", 2)
        b.inc("other", 5, tag="x")
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["counters"]["n"][""] == 3
        assert merged["counters"]["other"]["tag=x"] == 5

    def test_merge_histograms(self):
        a = MetricsRegistry()
        a.observe("h", 0.5)
        b = MetricsRegistry()
        b.observe("h", 3.0)
        b.observe("h", 0.25)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        hist = merged["histograms"]["h"][""]
        assert hist["count"] == 3
        assert hist["min"] == 0.25 and hist["max"] == 3.0

    def test_merge_empty_is_empty(self):
        merged = merge_snapshots([])
        assert merged == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_merge_single_round_trips(self):
        reg = MetricsRegistry()
        reg.inc("n", 2, op="a")
        reg.set_gauge("g", 1.5)
        reg.observe("h", 0.1)
        snap = reg.snapshot()
        assert json.dumps(merge_snapshots([snap]), sort_keys=True) \
            == json.dumps(snap, sort_keys=True)

    def test_merge_disjoint_label_sets(self):
        # Same metric name, non-overlapping label keys: both series
        # survive side by side, nothing sums across labels.
        a = MetricsRegistry()
        a.inc("ops", 2, tenant="a")
        a.observe("h", 1.0, cluster="x")
        b = MetricsRegistry()
        b.inc("ops", 5, cluster="y")
        b.observe("h", 3.0, tenant="b")
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["counters"]["ops"] == {"tenant=a": 2, "cluster=y": 5}
        hists = merged["histograms"]["h"]
        assert set(hists) == {"cluster=x", "tenant=b"}
        assert hists["cluster=x"]["count"] == 1
        assert hists["tenant=b"]["count"] == 1

    def test_merge_with_empty_snapshot_is_identity(self):
        reg = MetricsRegistry()
        reg.inc("n", 4)
        reg.observe("h", 2.0)
        snap = reg.snapshot()
        empty = MetricsRegistry().snapshot()
        for order in ([empty, snap], [snap, empty]):
            assert json.dumps(merge_snapshots(order), sort_keys=True) \
                == json.dumps(snap, sort_keys=True)

    def test_merge_gauges_last_write_wins_across_snapshots(self):
        a = MetricsRegistry()
        a.set_gauge("depth", 1.0)
        b = MetricsRegistry()
        b.set_gauge("depth", 9.0)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["gauges"]["depth"][""] == 9.0


class TestActiveRegistry:
    def test_use_registry_isolates(self):
        outer = get_registry()
        scoped = MetricsRegistry()
        with use_registry(scoped):
            inc("scoped.counter")
            assert get_registry() is scoped
        assert get_registry() is outer
        assert scoped.snapshot()["counters"]["scoped.counter"][""] == 1
        assert "scoped.counter" not in outer.snapshot()["counters"]

    def test_instrumented_layers_record(self):
        from repro.hw import hydra_cluster
        from repro.sim import ProgramBuilder, Simulator

        reg = MetricsRegistry()
        with use_registry(reg):
            builder = ProgramBuilder(2)
            i = builder.compute(0, 1.0, tag="work")
            builder.transfer(0, 1, 1e6, after=i, tag="xfer")
            builder.compute(1, 0.5, tag="work", needs_recv=True)
            Simulator(hydra_cluster(1, 2)).run(builder.build())
        counters = reg.snapshot()["counters"]
        assert counters["sim.engine.runs"][""] == 1
        assert counters["sim.engine.tasks"][""] == 2
        assert counters["sim.engine.transfers"][""] == 1
        # Events popped from the FIFO (pushed at the current time) or
        # the heap (pushed for later): four start-up wakes, card 0's
        # end-of-task comm wake (heap), the sender wake card 1's ready
        # signal pushes, one delivery (heap), and the CT_d wake it
        # pushes.  Three of the wakes change nothing: card 0's comm
        # engine twice (its send waits for the task) and card 1's CT_d
        # before the data arrived.
        assert counters["sim.engine.events"][""] == 8
        assert counters["sim.engine.idle_wakes"][""] == 3


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class TestSpans:
    def test_span_without_recorder_is_noop(self):
        assert current_recorder() is None
        with span("nothing"):
            pass  # must not raise or record anywhere

    def test_recorder_collects_nested_spans(self):
        with Recorder(clock=_FakeClock()) as rec:
            with span("outer", category="test", step="s1"):
                with span("inner", category="test"):
                    pass
        names = {s.name for s in rec.spans}
        assert names == {"outer", "inner"}
        outer = next(s for s in rec.spans if s.name == "outer")
        inner = next(s for s in rec.spans if s.name == "inner")
        assert outer.depth == 0 and inner.depth == 1
        assert outer.start < inner.start < inner.end < outer.end
        assert dict(outer.args) == {"step": "s1"}

    def test_span_dict_round_trip(self):
        with Recorder(clock=_FakeClock()) as rec:
            with span("x", category="c", a=1):
                pass
        from repro.obs import Span

        restored = Span.from_dict(rec.spans[0].to_dict())
        assert restored == rec.spans[0]

    def test_total_seconds(self):
        with Recorder(clock=_FakeClock()) as rec:
            with span("a"):
                pass
            with span("a"):
                pass
        assert rec.total_seconds("a") == pytest.approx(2.0)
        assert rec.total_seconds() == pytest.approx(2.0)

    def test_planner_spans_recorded(self):
        from repro.core import HydraSystem
        from repro.sim import ProgramBuilder

        system = HydraSystem.named("Hydra-S")
        model = system.build_model("resnet18")
        step = next(s for s in model.steps if s.is_unit_parallel)
        builder = ProgramBuilder(system.total_cards)
        with Recorder() as rec:
            system.planner.map_step(step, builder, 1.0)
        plan = [s for s in rec.spans if s.name == "plan.step"]
        assert len(plan) == 1
        assert dict(plan[0].args)["step"] == step.name
