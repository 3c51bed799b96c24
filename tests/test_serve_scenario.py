"""Unit tests for repro.serve scenarios, arrivals, and queueing."""

import dataclasses
import json
import re

import pytest

from repro.core.cli import main as cli_main
from repro.obs.streaming import StreamingHistogram
from repro.serve import (
    AdmissionQueue,
    Request,
    Scenario,
    TenantSpec,
    builtin_scenarios,
    generate_arrivals,
    load_scenario,
    make_policy,
    resolve_fleet_cluster,
    validate_scenario_files,
)
from repro.serve.scenario import SCENARIO_SCHEMA, BatchConfig


def _tenant(name="t0", **kw):
    kw.setdefault("model", "resnet18")
    return TenantSpec(name=name, **kw)


def _scenario(**kw):
    kw.setdefault("name", "unit")
    kw.setdefault("duration_seconds", 10.0)
    kw.setdefault("seed", 1)
    kw.setdefault("tenants", (_tenant(),))
    kw.setdefault("fleets", {"f": ("Hydra-S",)})
    return Scenario(**kw)


class TestScenario:
    def test_builtin_scenarios_load_and_roundtrip(self):
        names = builtin_scenarios()
        assert {"steady_hydra_m", "fleet_m_vs_l",
                "mixed_tenants"} <= set(names)
        for name in names:
            scenario = load_scenario(name)
            again = Scenario.from_dict(scenario.to_dict())
            assert again == scenario

    def test_unknown_scenario_lists_builtins(self):
        with pytest.raises(FileNotFoundError, match="steady_hydra_m"):
            load_scenario("no_such_scenario")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            _scenario(policy="lifo")

    def test_unknown_dispatch_rejected(self):
        with pytest.raises(ValueError, match="dispatch"):
            _scenario(dispatch="warp")

    def test_edf_needs_a_deadline(self):
        with pytest.raises(ValueError, match="edf"):
            _scenario(policy="edf")
        _scenario(policy="edf",
                  tenants=(_tenant(deadline_seconds=5.0),))

    def test_duplicate_tenants_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            _scenario(tenants=(_tenant("a"), _tenant("a")))

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError, match="no clusters"):
            _scenario(fleets={"f": ()})

    def test_override(self):
        scenario = _scenario()
        other = scenario.override(seed=9, duration=99.0,
                                  dispatch="serialized", policy="fair")
        assert (other.seed, other.duration_seconds) == (9, 99.0)
        assert (other.dispatch, other.policy) == ("serialized", "fair")
        assert scenario.override() == scenario

    def test_fleet_entry_registry_and_shorthand(self):
        assert resolve_fleet_cluster("Hydra-M").total_cards == 8
        assert resolve_fleet_cluster("hydra-2x4").total_cards == 8
        with pytest.raises(KeyError):
            resolve_fleet_cluster("NoSuch-X")

    def test_bad_tenant_specs_rejected(self):
        with pytest.raises(ValueError, match="arrival process"):
            _tenant(process="bursty")
        with pytest.raises(ValueError, match="rate_rps"):
            _tenant(rate_rps=0.0)
        with pytest.raises(KeyError, match="params preset"):
            _tenant(params="toy")


def _scenario_doc(**kw):
    doc = {
        "schema": SCENARIO_SCHEMA,
        "name": "bad",
        "duration_seconds": 10.0,
        "seed": 1,
        "fleets": {"f": ["Hydra-S"]},
        "tenants": [{"name": "t0", "model": "resnet18"}],
    }
    doc.update(kw)
    return doc


#: case -> (fields replaced in a valid document, expected error text)
MALFORMED = {
    "batch-unknown-knob": ({"batch": {"max_request": 4}},
                           "batch: .*'max_request'"),
    "tenant-is-a-string": ({"tenants": ["cnn"]},
                           r"tenants\[0\] must be a JSON object"),
    "fleets-is-a-list": ({"fleets": [["Hydra-S"]]},
                         "fleets must be a JSON object"),
    "tenant-unknown-key": (
        {"tenants": [{"name": "t0", "model": "resnet18",
                      "deadline_second": 5}]},
        r"tenants\[0\]: unknown field\(s\) 'deadline_second'"),
    "top-level-unknown-key": ({"max_queues": 8},
                              r"scenario: unknown field\(s\) 'max_queues'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
class TestMalformedScenarioFiles:
    """Malformed documents are a named ValueError, never a traceback."""

    def _write(self, tmp_path, case):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_scenario_doc(**MALFORMED[case][0])),
                        encoding="utf-8")
        return path

    def test_from_dict_names_source_and_field(self, case):
        patch, error = MALFORMED[case]
        with pytest.raises(ValueError, match=f"^bad.json: {error}"):
            Scenario.from_dict(_scenario_doc(**patch), source="bad.json")

    def test_serve_prints_error_and_exits_2(self, case, tmp_path):
        path = self._write(tmp_path, case)
        lines = []
        assert cli_main(["serve", str(path)], out=lines.append) == 2
        assert lines[-1].startswith(f"error: {path}: "), lines

    def test_lint_reports_a_fail_row(self, case, tmp_path):
        self._write(tmp_path, case)
        [(name, error)] = validate_scenario_files(tmp_path)
        assert name == "bad.json"
        assert re.match(f"bad.json: {MALFORMED[case][1]}", error), error


class TestArrivals:
    def test_uniform_spacing_and_phase(self):
        tenant = _tenant(process="uniform", rate_rps=0.5)
        times = generate_arrivals(tenant, 3, 10.0)
        assert times == [1.0, 3.0, 5.0, 7.0, 9.0]
        # Uniform arrivals are phase-locked, independent of the seed.
        assert generate_arrivals(tenant, 4, 10.0) == times

    def test_poisson_deterministic_and_seed_sensitive(self):
        tenant = _tenant(process="poisson", rate_rps=2.0)
        a = generate_arrivals(tenant, 7, 50.0)
        assert a == generate_arrivals(tenant, 7, 50.0)
        assert a == sorted(a)
        assert all(0 <= t < 50.0 for t in a)
        assert a != generate_arrivals(tenant, 8, 50.0)

    def test_tenant_streams_independent(self):
        # A tenant's arrivals depend only on (seed, its own name), so
        # adding neighbours never perturbs them.
        tenant = _tenant("alpha", process="poisson", rate_rps=1.0)
        renamed = dataclasses.replace(tenant, name="beta")
        assert (generate_arrivals(tenant, 5, 30.0)
                != generate_arrivals(renamed, 5, 30.0))


def _request(rid, tenant="t", arrival=0.0, key=("m", "paper"),
             deadline=None):
    return Request(id=rid, tenant=tenant, batch_key=key, arrival=arrival,
                   deadline=deadline)


class TestQueueing:
    def test_bounded_queue_rejects_explicitly(self):
        queue = AdmissionQueue(policy=make_policy("fifo"), max_queue=2)
        assert queue.offer(_request(0))
        assert queue.offer(_request(1))
        assert not queue.offer(_request(2))
        assert queue.rejected == 1
        assert len(queue) == 2

    def test_fifo_takes_arrival_order(self):
        queue = AdmissionQueue(policy=make_policy("fifo"), max_queue=8)
        for rid, arrival in ((0, 2.0), (1, 1.0), (2, 3.0)):
            queue.offer(_request(rid, arrival=arrival))
        batch = queue.take_batch(now=100.0, max_requests=2,
                                 window_seconds=1.0)
        assert [r.id for r in batch] == [1, 0]

    def test_fair_prefers_least_served_tenant(self):
        queue = AdmissionQueue(policy=make_policy("fair"), max_queue=8)
        queue.served = {"hog": 5}
        queue.offer(_request(0, tenant="hog", arrival=0.0))
        queue.offer(_request(1, tenant="newcomer", arrival=1.0))
        batch = queue.take_batch(now=100.0, max_requests=1,
                                 window_seconds=0.0)
        assert [r.tenant for r in batch] == ["newcomer"]
        assert queue.served["newcomer"] == 1

    def test_edf_prefers_earliest_deadline(self):
        queue = AdmissionQueue(policy=make_policy("edf"), max_queue=8)
        queue.offer(_request(0, arrival=0.0, deadline=None))
        queue.offer(_request(1, arrival=1.0, deadline=50.0))
        queue.offer(_request(2, arrival=2.0, deadline=9.0))
        batch = queue.take_batch(now=100.0, max_requests=3,
                                 window_seconds=0.0)
        assert [r.id for r in batch] == [2, 1, 0]

    def test_batch_window_gates_partial_batches(self):
        queue = AdmissionQueue(policy=make_policy("fifo"), max_queue=8)
        queue.offer(_request(0, arrival=0.0))
        # Not ripe: only 1 of 4 slots filled and the window is still open.
        assert queue.take_batch(now=0.5, max_requests=4,
                                window_seconds=2.0) is None
        # Window expiry makes the lone request ripe.
        batch = queue.take_batch(now=2.0, max_requests=4,
                                 window_seconds=2.0)
        assert [r.id for r in batch] == [0]

    def test_full_batch_ripe_before_window(self):
        queue = AdmissionQueue(policy=make_policy("fifo"), max_queue=8)
        for rid in range(5):
            queue.offer(_request(rid, arrival=0.0))
        batch = queue.take_batch(now=0.0, max_requests=4,
                                 window_seconds=60.0)
        assert [r.id for r in batch] == [0, 1, 2, 3]
        assert len(queue) == 1

    def test_batches_never_mix_keys(self):
        queue = AdmissionQueue(policy=make_policy("fifo"), max_queue=8)
        queue.offer(_request(0, arrival=0.0, key=("a", "paper")))
        queue.offer(_request(1, arrival=1.0, key=("b", "paper")))
        queue.offer(_request(2, arrival=2.0, key=("a", "paper")))
        batch = queue.take_batch(now=100.0, max_requests=4,
                                 window_seconds=0.0)
        assert [r.id for r in batch] == [0, 2]
        assert [r.id for r in queue.pending] == [1]

    def test_unknown_policy(self):
        with pytest.raises(KeyError, match="fifo"):
            make_policy("random")


class TestPercentile:
    def test_nearest_rank(self):
        # Report latency quantiles come from a per-tenant histogram, which
        # is exact nearest-rank while it holds few values.
        def quantile(values, q):
            hist = StreamingHistogram()
            for value in values:
                hist.add(value)
            return hist.quantile(q)

        values = [4.0, 1.0, 3.0, 2.0]
        assert quantile(values, 50) == 2.0
        assert quantile(values, 95) == 4.0
        assert quantile([7.0], 99) == 7.0

    def test_batch_config_validation(self):
        with pytest.raises(ValueError):
            BatchConfig(max_requests=0)
        with pytest.raises(ValueError):
            BatchConfig(window_seconds=-1.0)
