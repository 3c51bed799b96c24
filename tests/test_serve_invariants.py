"""Engine-level invariants of the serving core on every committed scenario.

Each fleet of each scenario under ``src/repro/serve/scenarios/`` runs
through :class:`~repro.serve.SimDriver` on synthetic service profiles
(nothing is planned), with its horizon capped at two hours.  Two
variants cover modes no committed scenario uses: ``fleet_m_vs_l`` with
serialized dispatch, and ``llm_chat_hydra_l`` with session affinity
off.  Test-side wrappers watch each run and check that:

* popped event times never decrease;
* per tenant, arrivals = admitted + rejected (decode continuations are
  not arrivals);
* on each cluster, a committed batch's compute starts no earlier than
  the previous batch's compute ends, and in serialized mode its ingress
  starts no earlier than the previous batch's egress ends;
* each cluster's ``card_seconds`` covers its cards × compute-busy
  seconds;
* no KV session level goes below zero.
"""

import dataclasses
from collections import Counter

import pytest

from repro.ckks.params import PAPER_PARAMS
from repro.llm import KvSession
from repro.serve import (
    ClusterState,
    ServiceProfile,
    SimDriver,
    builtin_scenarios,
    load_scenario,
    resolve_fleet_cluster,
)

_HORIZON_CAP = 2 * 3600.0

#: synthetic single-card compute seconds by graph phase ("" = CNN);
#: a profile divides it by the square root of the cluster's card count
_CARD_SECONDS = {"": 20.0, "prefill": 60.0, "decode": 4.0,
                 "recharge": 2.0}

_VARIANTS = {
    "serialized": lambda s: s.override(dispatch="serialized"),
    "no-affinity": lambda s: dataclasses.replace(
        s, routing=dataclasses.replace(s.routing, session_affinity=False)),
}


def _cases():
    cases = []
    for name, variant in ([(n, None) for n in builtin_scenarios()]
                          + [("fleet_m_vs_l", "serialized"),
                             ("llm_chat_hydra_l", "no-affinity")]):
        for fleet in load_scenario(name).fleets:
            cases.append(pytest.param(
                name, variant, fleet,
                id="/".join(p for p in (name, variant, fleet) if p)))
    return cases


def _synthetic_profiles(scenario):
    entries = {e for fleet in scenario.fleets.values() for e in fleet}
    if scenario.autoscale is not None:
        entries.add(scenario.autoscale.cluster)
    profiles = {}
    for entry in sorted(entries):
        spec = resolve_fleet_cluster(entry)
        for tenant in scenario.tenants:
            for model in tenant.profile_models:
                phase = model.partition("#")[2]
                profiles[(model, entry)] = ServiceProfile(
                    model=model, cluster_name=entry,
                    compute_seconds=(_CARD_SECONDS[phase]
                                     / spec.total_cards ** 0.5),
                    ciphertext_bytes=float(PAPER_PARAMS.ciphertext_bytes()),
                    io_bandwidth=spec.card.pcie_bandwidth)
    return profiles


class _WatchedDriver(SimDriver):
    """A SimDriver that records event times, arrivals and admissions."""

    def __init__(self, *args, **kwargs):
        self.last_time = float("-inf")
        self.time_regressions = []
        self.arrivals = Counter()
        self.admitted = Counter()
        self.rejected = Counter()
        super().__init__(*args, **kwargs)
        offer = self.core.queue.offer

        def watched_offer(request):
            admitted = offer(request)
            if request.phase != "decode":
                tally = self.admitted if admitted else self.rejected
                tally[request.tenant] += 1
            return admitted

        self.core.queue.offer = watched_offer

    def _push(self, time, priority, handler, payload):
        def watched(now, item):
            if now < self.last_time:
                self.time_regressions.append((self.last_time, now))
            self.last_time = now
            handler(now, item)

        super()._push(time, priority, watched, payload)

    def _on_arrival(self, now, payload):
        tenant, _request = payload
        self.arrivals[tenant.name] += 1
        super()._on_arrival(now, payload)


@pytest.fixture
def commits(monkeypatch):
    """``{id(cluster): (cluster, [committed BatchSchedule, ...])}``."""
    log = {}
    commit_batch = ClusterState.commit_batch

    def watched(self, schedule, size):
        log.setdefault(id(self), (self, []))[1].append(schedule)
        return commit_batch(self, schedule, size)

    monkeypatch.setattr(ClusterState, "commit_batch", watched)
    return log


@pytest.fixture
def kv_levels(monkeypatch):
    """Every KV session level right after a decode step advanced it."""
    levels = []
    advance = KvSession.advance

    def watched(self):
        recharge = advance(self)
        levels.append(self.level)
        return recharge

    monkeypatch.setattr(KvSession, "advance", watched)
    return levels


@pytest.mark.parametrize(("name", "variant", "fleet"), _cases())
def test_engine_invariants(name, variant, fleet, commits, kv_levels):
    scenario = load_scenario(name)
    scenario = scenario.override(
        duration=min(scenario.duration_seconds, _HORIZON_CAP))
    if variant is not None:
        scenario = _VARIANTS[variant](scenario)
    driver = _WatchedDriver(scenario, fleet, _synthetic_profiles(scenario))
    core = driver.run()

    assert driver.time_regressions == []

    assert sum(driver.arrivals.values()) > 0
    for tenant in scenario.tenants:
        arrivals = driver.arrivals[tenant.name]
        stats = core.stats[tenant.name]
        assert arrivals == (driver.admitted[tenant.name]
                            + driver.rejected[tenant.name]), tenant.name
        assert (stats.arrivals, stats.rejected) == (
            arrivals, driver.rejected[tenant.name]), tenant.name

    assert commits, "no batch was committed"
    horizon = max(scenario.duration_seconds, core.last_completion)
    for cluster, schedules in commits.values():
        for prev, nxt in zip(schedules, schedules[1:]):
            assert nxt.compute_start >= prev.compute_end, cluster.label
            if cluster.mode == "serialized":
                assert nxt.ingress_start >= prev.egress_end, cluster.label
        busy = sum(s.compute_end - s.compute_start for s in schedules)
        assert (cluster.card_seconds(horizon)
                >= cluster.spec.total_cards * busy * (1 - 1e-12)), \
            cluster.label

    if any(t.kind == "llm" for t in scenario.tenants):
        assert kv_levels, "no decode step advanced a KV session"
    assert all(level >= 0 for level in kv_levels)
