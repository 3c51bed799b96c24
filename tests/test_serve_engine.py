"""Serving DES engine tests: dispatch, SLOs, and the fleet comparison.

Most tests drive :func:`repro.serve.simulate_fleet` with hand-built
:class:`~repro.serve.ServiceProfile` objects so no planning simulation
runs; the fleet-comparison tests at the bottom plan real profiles once
per module (shared across dispatch modes through the runtime cache).
"""

import pytest

from repro.serve import (
    ServiceProfile,
    Scenario,
    TenantSpec,
    prepare_profiles,
    simulate_fleet,
    validate_serve_report,
)
from repro.serve.dispatch import ClusterState
from repro.serve.scenario import (
    BatchConfig,
    Overheads,
    load_scenario,
    resolve_fleet_cluster,
)


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
        TenantSpec(name="t0", model="resnet18", process="uniform",
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


class TestEngine:
    def test_all_arrivals_accounted(self):
        scenario = _scenario()
        report = simulate_fleet(scenario, "f", _profiles_for(scenario))
        stats = report["tenants"]["t0"]
        assert stats["arrivals"] == 20
        assert (stats["completed"] + stats["rejected"]
                == stats["arrivals"])
        assert stats["rejected"] == 0
        assert report["queue"]["rejected"] == 0

    def test_report_is_deterministic_and_valid(self):
        scenario = _scenario()
        profiles = _profiles_for(scenario)
        a = simulate_fleet(scenario, "f", profiles)
        b = simulate_fleet(scenario, "f", profiles)
        assert a == b
        from repro.serve.report import build_report

        wrapped = build_report(scenario, ["f"], {"f": a})
        assert wrapped["schema"] == "repro.serve/v3"
        assert wrapped["telemetry"]["mode"] == "streaming"
        validate_serve_report(wrapped)

    def test_overload_rejects_and_misses_deadlines(self):
        # One slow cluster, arrivals far faster than service: the
        # bounded queue must shed load and admitted tails must miss SLO.
        scenario = _scenario(
            tenants=(TenantSpec(name="t0", model="resnet18",
                                process="uniform", rate_rps=2.0,
                                deadline_seconds=5.0),),
            max_queue=4,
            batch=BatchConfig(max_requests=1, window_seconds=0.0),
        )
        profiles = {("resnet18", "paper", "Hydra-S"):
                    _profile("Hydra-S", compute_seconds=10.0)}
        report = simulate_fleet(scenario, "f", profiles)
        stats = report["tenants"]["t0"]
        assert stats["rejected"] > 0
        assert stats["deadline_misses"] > 0
        assert report["goodput_rps"] < report["throughput_rps"]

    def test_batching_amortizes_service(self):
        # 4 requests arriving together: one batch of 4 at compute cost
        # ~1x beats four sequential singleton batches.
        tenants = (TenantSpec(name="t0", model="resnet18",
                              process="uniform", rate_rps=4.0),)
        profiles = {("resnet18", "paper", "Hydra-S"):
                    _profile("Hydra-S", compute_seconds=3.0)}
        batched = simulate_fleet(
            _scenario(duration_seconds=1.0, tenants=tenants,
                      batch=BatchConfig(max_requests=4,
                                        window_seconds=1.0)),
            "f", profiles)
        unbatched = simulate_fleet(
            _scenario(duration_seconds=1.0, tenants=tenants,
                      batch=BatchConfig(max_requests=1,
                                        window_seconds=0.0)),
            "f", profiles)
        assert batched["clusters"][0]["batches"] == 1
        assert unbatched["clusters"][0]["batches"] == 4
        assert batched["makespan_seconds"] < unbatched["makespan_seconds"]

    def test_work_spreads_across_fleet_replicas(self):
        scenario = _scenario(
            fleets={"f": ("Hydra-S", "Hydra-S")},
            tenants=(TenantSpec(name="t0", model="resnet18",
                                process="uniform", rate_rps=1.0),),
            batch=BatchConfig(max_requests=1, window_seconds=0.0),
        )
        profiles = {("resnet18", "paper", "Hydra-S"):
                    _profile("Hydra-S", compute_seconds=1.5)}
        report = simulate_fleet(scenario, "f", profiles)
        per_cluster = [c["requests"] for c in report["clusters"]]
        assert sum(per_cluster) == 40
        assert min(per_cluster) > 0

    def test_utilization_within_bounds(self):
        scenario = _scenario()
        report = simulate_fleet(scenario, "f", _profiles_for(scenario))
        for cluster in report["clusters"]:
            assert 0.0 <= cluster["utilization"] <= 1.0 + 1e-9


class TestClusterState:
    def _state(self, mode):
        spec = resolve_fleet_cluster("Hydra-S")
        return ClusterState(index=0, name="Hydra-S", replica=0, spec=spec,
                            mode=mode)

    def test_serialized_occupies_exclusively(self):
        state = self._state("serialized")
        assert state.inflight_limit == 1
        first = state.plan_batch(0.0, t_in=1.0, t_compute=4.0, t_out=1.0)
        state.commit_batch(first, size=1)
        assert first.completion == pytest.approx(6.0)
        assert state.inflight == state.inflight_limit
        state.inflight -= 1
        second = state.plan_batch(0.0, t_in=1.0, t_compute=4.0, t_out=1.0)
        # Serialized: nothing overlaps the previous batch's drain.
        assert second.ingress_start == pytest.approx(6.0)

    def test_pipelined_overlaps_io_with_compute(self):
        state = self._state("pipelined")
        assert state.inflight_limit == 2
        first = state.plan_batch(0.0, t_in=1.0, t_compute=4.0, t_out=1.0)
        state.commit_batch(first, size=1)
        second = state.plan_batch(0.0, t_in=1.0, t_compute=4.0, t_out=1.0)
        # Next batch streams in while the first computes...
        assert second.ingress_start == pytest.approx(1.0)
        # ...and its compute queues right behind the first.
        assert second.compute_start == pytest.approx(first.compute_end)
        assert second.completion < first.completion + 6.0


@pytest.fixture(scope="module")
def fleet_scenario():
    # The committed scenario, untouched: the acceptance property below
    # is pinned on exactly what `repro serve fleet_m_vs_l` runs.
    return load_scenario("fleet_m_vs_l")


@pytest.fixture(scope="module")
def fleet_profiles(fleet_scenario):
    profiles, _ = prepare_profiles(fleet_scenario, jobs=4)
    return profiles


class TestFleetComparison:
    """The PR's pinned acceptance property, on the committed scenario."""

    def test_pipelined_beats_serialized_goodput(self, fleet_scenario,
                                                fleet_profiles):
        for fleet in fleet_scenario.fleets:
            pipelined = simulate_fleet(
                fleet_scenario.override(dispatch="pipelined"),
                fleet, fleet_profiles)
            serialized = simulate_fleet(
                fleet_scenario.override(dispatch="serialized"),
                fleet, fleet_profiles)
            assert pipelined["goodput_rps"] > serialized["goodput_rps"], (
                f"fleet {fleet!r}: pipelined dispatch must strictly beat "
                f"serialized"
            )

    def test_fleets_see_identical_offered_load(self, fleet_scenario,
                                               fleet_profiles):
        reports = {
            fleet: simulate_fleet(fleet_scenario, fleet, fleet_profiles)
            for fleet in fleet_scenario.fleets
        }
        arrivals = {
            fleet: {name: t["arrivals"]
                    for name, t in report["tenants"].items()}
            for fleet, report in reports.items()
        }
        first, second = arrivals.values()
        assert first == second
