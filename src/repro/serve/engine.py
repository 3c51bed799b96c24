"""The DES driver and the ``run_scenario`` entry point.

The decision logic — admission, coalescing, dispatch, autoscaling —
lives in the clock-agnostic :class:`~repro.serve.core.EngineCore`; this
module supplies the *simulated* clock that drives it for batch runs.
:class:`SimDriver` owns the event heap and the seeded arrival
generators, runs in the simulated clock domain of :mod:`repro.sim`
(arrival times, queueing delays, batch phase times and completions are
all simulated seconds, derived from Procedure-2 makespans of planned
programs), and never lets wall-clock time leak into a report — which is
what makes reports byte-identical across machines, worker counts, and
cache hits.  ``repro serve --live`` swaps this driver for
:class:`~repro.serve.live.LiveDriver` around the *same* core.

Event order is a strict total order — ``(time, priority, sequence)``
with completions before arrivals before flush timers at equal
timestamps and a deterministic sequence tie-break — so a scenario + seed
fixes the entire execution trace.

Telemetry is **streamed**: arrivals are generated lazily (one pending
arrival per tenant in the heap), latencies fold into
:class:`~repro.obs.StreamingHistogram` sketches, queue depth and
cluster busy time accumulate time-weighted into fixed windows, and the
last N structured events live in a bounded
:class:`~repro.obs.FlightRecorder` ring — so peak engine memory is
O(buckets × tenants + windows + queue), independent of the horizon.
``exact=True`` (the CLI's ``--exact``) switches latency sketches to
exact retention and keeps the full queue-depth series, for tests and
short runs.
"""

from __future__ import annotations

import heapq

from repro.ckks.params import PAPER_PARAMS
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import inc as _metric_inc
from repro.serve.arrivals import iter_arrivals
from repro.serve.core import P_ARRIVAL, EngineCore
from repro.serve.report import build_fleet_report, build_report
from repro.serve.scenario import (
    Scenario,
    load_scenario,
    resolve_fleet_cluster,
)

__all__ = ["SimDriver", "prepare_profiles", "run_scenario",
           "simulate_fleet"]


def prepare_profiles(scenario, fleet_names=None, jobs=1, cache=None,
                     use_cache=True):
    """Plan service profiles for every (model, cluster) pair.

    Distinct pairs become :class:`repro.runtime.RunRequest` instances
    executed through :func:`repro.runtime.execute` — deduplicated,
    fanned out over ``jobs`` workers, and served from the persistent
    result cache on repeat invocations — so a million-request scenario
    plans each model exactly once per cluster shape.

    Returns ``(profiles, manifest)`` where ``profiles`` maps
    ``(model, cluster_name) -> ServiceProfile``.
    """
    from repro.runtime import RunRequest, execute

    from repro.serve.dispatch import ServiceProfile

    fleet_names = list(scenario.fleets if fleet_names is None
                       else fleet_names)
    keys = []
    requests = []
    seen = set()
    # Every graph each tenant needs: CNN tenants contribute their model;
    # LLM tenants contribute all three phase graphs (prefill / decode /
    # recharge), each planned like any other benchmark.
    models = sorted({
        model
        for tenant in scenario.tenants
        for model in tenant.profile_models
    })
    for fleet in fleet_names:
        entries = list(scenario.fleets[fleet])
        if (scenario.autoscale is not None
                and scenario.autoscale.applies_to(fleet)):
            # Elastic replicas need service profiles too.
            entries.append(scenario.autoscale.cluster)
        for entry in entries:
            spec = resolve_fleet_cluster(entry)
            for model in models:
                profile_key = (model, entry)
                if profile_key in seen:
                    continue
                seen.add(profile_key)
                keys.append((profile_key, spec))
                requests.append(RunRequest(benchmark=model, cluster=spec,
                                           with_energy=False))
    outcome = execute(requests, jobs=jobs, cache=cache,
                      use_cache=use_cache)
    profiles = {}
    for (profile_key, spec), run_result in zip(keys, outcome):
        model, entry = profile_key
        profiles[profile_key] = ServiceProfile(
            model=model,
            cluster_name=entry,
            compute_seconds=run_result.result.total_seconds,
            ciphertext_bytes=float(PAPER_PARAMS.ciphertext_bytes()),
            io_bandwidth=spec.card.pcie_bandwidth,
            cache_hit=run_result.cache_hit,
        )
    return profiles, outcome.manifest


class SimDriver:
    """The discrete-event loop: a heapq clock around one EngineCore.

    Arrivals are generated lazily from the scenario's seeded processes
    (one pending arrival per tenant in the heap); every other event the
    core schedules through the driver's ``schedule`` callback lands in
    the same heap.  The sequence counter assigns heap entries a strict
    total order, so the execution trace — and therefore the report — is
    a pure function of (scenario, seed).
    """

    def __init__(self, scenario, fleet_name, profiles, exact=False,
                 recorder=None):
        self.scenario = scenario
        self.heap = []
        self._seq = 0
        self._arrival_iters = {}
        self.core = EngineCore(scenario, fleet_name, profiles,
                               schedule=self._push, exact=exact,
                               recorder=recorder)

    # -- event plumbing -------------------------------------------------

    def _push(self, time, priority, handler, payload):
        heapq.heappush(self.heap, (time, priority, self._seq, handler,
                                   payload))
        self._seq += 1

    def _push_next_arrival(self, tenant):
        """Schedule the tenant's next arrival (one in flight per tenant)."""
        t = next(self._arrival_iters[tenant.name], None)
        if t is None:
            return
        request = self.core.make_request(tenant, t)
        self._push(t, P_ARRIVAL, self._on_arrival, (tenant, request))

    def _on_arrival(self, now, payload):
        tenant, request = payload
        self._push_next_arrival(tenant)
        self.core.handle_arrival(now, request)

    def seed_arrivals(self):
        for tenant in self.scenario.tenants:
            self._arrival_iters[tenant.name] = iter_arrivals(
                tenant, self.scenario.seed,
                self.scenario.duration_seconds)
            self._push_next_arrival(tenant)

    # -- main loop ------------------------------------------------------

    def run(self):
        """Drain the event heap; returns the finished core.

        Records ``serve.engine.events`` (heap pops) into the active
        registry once per run.
        """
        self.seed_arrivals()
        self.core.schedule_autoscaler()
        heap = self.heap
        heappop = heapq.heappop
        events = 0
        while heap:
            time, _priority, _seq, handler, payload = heappop(heap)
            events += 1
            handler(time, payload)
        _metric_inc("serve.engine.events", events)
        if self.core.queue.pending:  # pragma: no cover - termination guard
            raise RuntimeError(
                f"serving simulation ended with "
                f"{len(self.core.queue.pending)} requests stuck in the "
                f"queue"
            )
        return self.core


def simulate_fleet(scenario, fleet_name, profiles, exact=False,
                   recorder=None):
    """Simulate one fleet; returns its deterministic report fragment.

    The report's ``metrics`` block is :meth:`EngineCore.counters`, so
    its totals reflect exactly this fleet's activity.  Pass a
    :class:`~repro.obs.FlightRecorder` to retain the event ring after
    the run (``run_scenario`` does, for ``--telemetry-out``).
    """
    core = SimDriver(scenario, fleet_name, profiles,
                     exact=exact, recorder=recorder).run()
    return build_fleet_report(core)


def run_scenario(ref, seed=None, duration=None, dispatch=None, policy=None,
                 fleet=None, jobs=1, cache=None, use_cache=True,
                 exact=False, recorders=None):
    """Load, plan and simulate a scenario; returns ``(report, manifest)``.

    ``ref`` is a scenario path, a builtin scenario name, or an already
    constructed :class:`~repro.serve.scenario.Scenario`.  ``seed`` /
    ``duration`` / ``dispatch`` / ``policy`` override the scenario file;
    ``fleet`` restricts the run to one named fleet.  ``jobs`` and
    ``cache`` control service-profile planning through
    :mod:`repro.runtime`; neither affects report bytes.
    ``exact=True`` switches telemetry to exact (unbounded) aggregation;
    ``recorders``, if given a dict, is filled with each fleet's
    :class:`~repro.obs.FlightRecorder` for event dumps.
    """
    scenario = ref if isinstance(ref, Scenario) else load_scenario(ref)
    scenario = scenario.override(seed=seed, duration=duration,
                                 dispatch=dispatch, policy=policy)
    fleet_names = list(scenario.fleets)
    if fleet is not None:
        if fleet not in scenario.fleets:
            raise KeyError(
                f"no fleet {fleet!r} in scenario {scenario.name!r}; "
                f"fleets: {fleet_names}"
            )
        fleet_names = [fleet]
    profiles, manifest = prepare_profiles(scenario, fleet_names,
                                          jobs=jobs, cache=cache,
                                          use_cache=use_cache)
    fleet_reports = {}
    for name in fleet_names:
        recorder = FlightRecorder(scenario.telemetry.recorder_events)
        if recorders is not None:
            recorders[name] = recorder
        fleet_reports[name] = simulate_fleet(scenario, name, profiles,
                                             exact=exact,
                                             recorder=recorder)
    return (build_report(scenario, fleet_names, fleet_reports,
                         exact=exact),
            manifest)
