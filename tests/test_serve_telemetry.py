"""Streaming-telemetry tests for the serving layer.

Pins the ISSUE's acceptance properties: streamed quantiles stay within
the documented error bound of the exact report, engine memory stays
bounded however long the horizon, and ``--telemetry-out`` lands the
three artifacts.
"""

import json

import pytest

from repro.obs import FlightRecorder
from repro.serve import (
    ServiceProfile,
    Scenario,
    TenantSpec,
    serve_prom_text,
    simulate_fleet,
    write_telemetry,
)
from repro.serve.engine import SimDriver
from repro.serve.report import build_report
from repro.serve.scenario import BatchConfig, Overheads, TelemetryConfig


def _profile(cluster_name, compute_seconds=2.0, model="resnet18"):
    return ServiceProfile(
        model=model, params="paper", cluster_name=cluster_name,
        compute_seconds=compute_seconds, ciphertext_bytes=1e6,
        io_bandwidth=16e9, cache_hit=False,
    )


def _scenario(**kw):
    kw.setdefault("name", "unit")
    kw.setdefault("duration_seconds", 40.0)
    kw.setdefault("seed", 5)
    kw.setdefault("tenants", (
        TenantSpec(name="t0", model="resnet18", process="poisson",
                   rate_rps=0.5, deadline_seconds=30.0),
    ))
    kw.setdefault("fleets", {"f": ("Hydra-S",)})
    kw.setdefault("batch", BatchConfig(max_requests=4, window_seconds=1.0))
    kw.setdefault("overheads", Overheads(batch_setup_seconds=0.0))
    return Scenario(**kw)


def _profiles_for(scenario):
    profiles = {}
    for entries in scenario.fleets.values():
        for entry in entries:
            for tenant in scenario.tenants:
                key = (tenant.model, tenant.params, entry)
                profiles[key] = _profile(entry, model=tenant.model)
    return profiles


def _long_scenario(rate_rps=40.0, duration=2000.0):
    """High-rate scenario: tens of thousands of requests, tiny windows."""
    return _scenario(
        duration_seconds=duration,
        tenants=(
            TenantSpec(name="hot", model="resnet18", process="poisson",
                       rate_rps=rate_rps, deadline_seconds=4.0,
                       slo_budget=0.01),
            TenantSpec(name="warm", model="resnet18", process="uniform",
                       rate_rps=rate_rps / 4),
        ),
        max_queue=64,
        batch=BatchConfig(max_requests=8, window_seconds=0.1),
        telemetry=TelemetryConfig(num_windows=24, recorder_events=128),
    )


class TestStreamedAccuracy:
    def test_streamed_quantiles_within_documented_bound(self):
        scenario = _long_scenario()
        profiles = _profiles_for(scenario)
        streamed = simulate_fleet(scenario, "f", profiles)
        exact = simulate_fleet(scenario, "f", profiles, exact=True)
        bound = build_report(scenario, ["f"],
                             {"f": streamed})["telemetry"]
        assert bound["mode"] == "streaming"
        for name in streamed["tenants"]:
            s = streamed["tenants"][name]["latency_seconds"]
            e = exact["tenants"][name]["latency_seconds"]
            assert s["count"] == e["count"] > 1000
            assert s["mean"] == pytest.approx(e["mean"])
            assert s["max"] == e["max"]
            for q in ("p50", "p95", "p99"):
                assert s[q] == pytest.approx(
                    e[q], rel=bound["relative_accuracy"]), (
                    f"{name} {q}: streamed {s[q]} vs exact {e[q]}"
                )

    def test_exact_and_streamed_agree_on_counts(self):
        scenario = _scenario()
        profiles = _profiles_for(scenario)
        streamed = simulate_fleet(scenario, "f", profiles)
        exact = simulate_fleet(scenario, "f", profiles, exact=True)
        for name in streamed["tenants"]:
            for key in ("arrivals", "completed", "rejected",
                        "deadline_misses"):
                assert (streamed["tenants"][name][key]
                        == exact["tenants"][name][key])
        # Small sample: the sketch is still in its exact regime, so
        # even the quantiles agree to the bit.
        assert streamed["tenants"]["t0"] == exact["tenants"]["t0"]

    def test_exact_mode_adds_depth_series(self):
        scenario = _scenario()
        profiles = _profiles_for(scenario)
        assert "series" not in simulate_fleet(scenario, "f",
                                              profiles)["queue"]
        series = simulate_fleet(scenario, "f", profiles,
                                exact=True)["queue"]["series"]
        assert series and series[0] == [0.0, 0]


class TestBoundedMemory:
    def test_engine_state_independent_of_horizon(self):
        # ~90k requests; every resident aggregate must stay at its
        # configured size — sketch buckets, windows, ring, heap.
        scenario = _long_scenario()
        driver = SimDriver(scenario, "f", _profiles_for(scenario))
        engine = driver.run()
        telemetry = scenario.telemetry
        total_arrivals = sum(s.arrivals for s in engine.stats.values())
        assert total_arrivals > 80000
        for stats in engine.stats.values():
            assert not stats.latency.is_exact
            # DDSketch bound: latencies span < 4 decades at 1% accuracy.
            assert stats.latency.bucket_count < 1000
            assert stats.latency._values == []
            assert len(stats.arrivals_w.counts()) == telemetry.num_windows
        assert engine.depth_series is None
        assert len(engine.recorder) <= telemetry.recorder_events
        assert engine.recorder.dropped > 0
        for stats in engine.cluster_stats:
            assert stats.io_union.active_count <= 4
        assert driver.heap == []  # fully drained, never the horizon

    def test_recorder_keeps_the_tail_and_first_trigger(self):
        scenario = _long_scenario()
        recorder = FlightRecorder(capacity=64)
        simulate_fleet(scenario, "f", _profiles_for(scenario),
                       recorder=recorder)
        events = recorder.events()
        assert len(events) == 64
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs)
        assert seqs[-1] == recorder.total_recorded - 1
        # The overloaded "hot" tenant must have burned its 1% budget.
        assert recorder.first_trigger is not None
        assert recorder.first_trigger[0] == "slo_budget_exceeded"


class TestTelemetryExport:
    def _report_and_recorders(self, scenario):
        profiles = _profiles_for(scenario)
        recorder = FlightRecorder(scenario.telemetry.recorder_events)
        fleet = simulate_fleet(scenario, "f", profiles, recorder=recorder)
        report = build_report(scenario, ["f"], {"f": fleet})
        return report, {"f": recorder}

    def test_write_telemetry_lands_three_artifacts(self, tmp_path):
        report, recorders = self._report_and_recorders(_scenario())
        paths = write_telemetry(report, recorders, tmp_path / "out")
        names = [p.name for p in paths]
        assert names == ["report.json", "metrics.prom", "events.jsonl"]
        on_disk = json.loads(paths[0].read_text())
        assert on_disk == json.loads(json.dumps(report))
        prom = paths[1].read_text()
        assert "# TYPE repro_serve_arrivals counter" in prom
        assert "# TYPE repro_serve_latency_seconds summary" in prom
        assert 'quantile="0.99"' in prom
        for line in paths[2].read_text().splitlines():
            event = json.loads(line)
            assert event["fleet"] == "f"
            assert {"seq", "time", "kind"} <= set(event)

    def test_prom_text_is_deterministic(self):
        scenario = _scenario()
        a, _ = self._report_and_recorders(scenario)
        b, _ = self._report_and_recorders(scenario)
        assert serve_prom_text(a) == serve_prom_text(b)

    def test_slo_burn_gauge_present(self):
        report, _ = self._report_and_recorders(_long_scenario())
        prom = serve_prom_text(report)
        assert "repro_serve_slo_burn_rate" in prom
        assert 'tenant="hot"' in prom
