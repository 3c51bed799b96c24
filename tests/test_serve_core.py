"""The clock-agnostic :class:`~repro.serve.EngineCore`, unit-tested
under a fake clock.

These tests hand the core a hand-stepped driver whose ``schedule``
callback just records events — no heapq DES, no asyncio — and fire the
``handle_*`` methods at explicit timestamps.  That pins the contract
both real drivers rely on: the core never reads a clock, every decision
is a function of the ``now`` it is handed, and the same scenario state
yields the same admission outcome whichever driver asks.
"""

import heapq

import pytest

from repro.serve import (
    ADMITTED,
    REJECTED,
    REJECTED_WARMING,
    EngineCore,
    Scenario,
    ServiceProfile,
    SimDriver,
    TenantSpec,
    generate_arrivals,
)
from repro.serve.core import P_AUTOSCALE, P_COMPLETE, P_FLUSH
from repro.serve.scenario import BatchConfig, Overheads


def _profile(cluster_name, compute_seconds=2.0, model="resnet18"):
    return ServiceProfile(
        model=model, cluster_name=cluster_name,
        compute_seconds=compute_seconds, ciphertext_bytes=1e6,
        io_bandwidth=16e9, cache_hit=False,
    )


def _scenario(**kw):
    kw.setdefault("name", "core-unit")
    kw.setdefault("duration_seconds", 40.0)
    kw.setdefault("seed", 5)
    kw.setdefault("tenants", (
        TenantSpec(name="t0", model="resnet18", process="uniform",
                   rate_rps=0.5, deadline_seconds=30.0),
    ))
    kw.setdefault("fleets", {"f": ("Hydra-S",)})
    kw.setdefault("batch", BatchConfig(max_requests=4,
                                       window_seconds=1.0))
    kw.setdefault("overheads", Overheads(batch_setup_seconds=0.0))
    return Scenario(**kw)


def _profiles_for(scenario, compute_seconds=2.0):
    profiles = {}
    for entries in scenario.fleets.values():
        for entry in entries:
            for tenant in scenario.tenants:
                profiles[(tenant.model, entry)] = _profile(
                    entry, compute_seconds=compute_seconds,
                    model=tenant.model)
    return profiles


class FakeDriver:
    """A fake clock: records scheduled events, fires them on demand.

    The core only ever learns the time through the ``now`` argument of
    a handler call, so stepping recorded events *is* a complete driver
    — the minimal third implementation proving the core is driver-
    agnostic.
    """

    def __init__(self, scenario, fleet="f", profiles=None, **core_kw):
        self.events = []
        self._seq = 0
        self.core = EngineCore(
            scenario, fleet,
            profiles if profiles is not None else _profiles_for(scenario),
            schedule=self._push, **core_kw)

    def _push(self, when, priority, handler, payload):
        heapq.heappush(self.events,
                       (when, priority, self._seq, handler, payload))
        self._seq += 1

    def arrive(self, now, tenant="t0"):
        request = self.core.make_request(self.core.tenants[tenant], now)
        return self.core.handle_arrival(now, request)

    def step(self):
        when, _prio, _seq, handler, payload = heapq.heappop(self.events)
        handler(when, payload)
        return when

    def run_until_idle(self):
        last = 0.0
        while self.events:
            last = self.step()
        return last

    def pending(self, priority):
        return [e for e in self.events if e[1] == priority]


class TestFakeClockCore:
    def test_admission_arms_flush_not_dispatch(self):
        # One arrival into a 4-wide window: admitted, flush timer armed
        # one window out, nothing dispatched yet.
        driver = FakeDriver(_scenario())
        assert driver.arrive(0.0) == ADMITTED
        assert len(driver.core.queue) == 1
        (when, prio, _s, handler, _p), = driver.pending(P_FLUSH)
        assert (when, prio) == (1.0, P_FLUSH)
        assert handler == driver.core.handle_flush
        assert not driver.pending(P_COMPLETE)

    def test_flush_dispatches_and_schedules_completion(self):
        driver = FakeDriver(_scenario())
        driver.arrive(0.0)
        driver.step()  # the flush at t=1.0
        assert len(driver.core.queue) == 0
        (when, _prio, _s, handler, payload), = driver.pending(P_COMPLETE)
        assert handler == driver.core.handle_complete
        cluster, batch, batch_id = payload
        assert [r.tenant for r in batch] == ["t0"]
        assert batch_id == "batch-00000"
        assert cluster.inflight == 1
        assert when > 1.0  # completion strictly after dispatch

    def test_full_batch_dispatches_without_waiting(self):
        # max_requests arrivals at the same instant skip the window.
        driver = FakeDriver(_scenario())
        for _ in range(4):
            driver.arrive(0.0)
        (_w, _p, _s, _h, (cluster, batch, _bid)), = driver.pending(
            P_COMPLETE)
        assert len(batch) == 4
        assert len(driver.core.queue) == 0

    def test_completion_latency_uses_driver_timestamps(self):
        # The core computes latency purely from the now values the
        # driver passes in — fake seconds in, fake seconds out.
        driver = FakeDriver(_scenario())
        driver.arrive(0.0)
        driver.step()
        (when, _p, _s, handler, payload), = driver.pending(P_COMPLETE)
        handler(when, payload)
        stats = driver.core.stats["t0"]
        assert stats.latency.count == 1
        assert stats.latency.max == pytest.approx(when)
        assert driver.core.last_completion == when
        assert payload[0].inflight == 0

    def test_request_ids_assigned_in_creation_order(self):
        driver = FakeDriver(_scenario())
        core = driver.core
        ids = [core.make_request(core.tenants["t0"], float(i)).id
               for i in range(3)]
        assert ids == [0, 1, 2]

    def test_full_queue_rejects_hard(self):
        # No elastic replicas anywhere: a full-queue reject is a plain
        # REJECTED, never REJECTED_WARMING.
        scenario = _scenario(max_queue=1, dispatch="serialized",
                             batch=BatchConfig(max_requests=1,
                                               window_seconds=0.0))
        driver = FakeDriver(scenario)
        assert driver.arrive(0.0) == ADMITTED  # dispatches immediately
        assert driver.arrive(0.0) == ADMITTED  # queued (slot busy)
        assert driver.arrive(0.0) == REJECTED
        stats = driver.core.stats["t0"]
        assert (stats.rejected, stats.rejected_warming) == (1, 0)

    def test_reject_during_warmup_is_classified_warming(self):
        scenario = _scenario(max_queue=1, dispatch="serialized",
                             batch=BatchConfig(max_requests=1,
                                               window_seconds=0.0))
        driver = FakeDriver(scenario)
        core = driver.core
        # A scaled-up replica still inside its warm-up window ...
        core._add_cluster("Hydra-S", active_from=50.0, elastic=True)
        # ... while the only warmed cluster saturates and the queue
        # fills: the shed request was waiting on capacity in flight.
        driver.arrive(0.0)
        driver.arrive(0.0)
        assert driver.arrive(0.0) == REJECTED_WARMING
        stats = core.stats["t0"]
        assert (stats.rejected, stats.rejected_warming) == (1, 1)
        events = [e for e in core.recorder.events()
                  if e["kind"] == "reject"]
        assert events[-1]["reason"] == "warming"

    def test_warmed_replica_makes_rejects_hard_again(self):
        scenario = _scenario(max_queue=1, dispatch="serialized",
                             batch=BatchConfig(max_requests=1,
                                               window_seconds=0.0))
        driver = FakeDriver(scenario)
        core = driver.core
        core._add_cluster("Hydra-S", active_from=50.0, elastic=True)
        driver.arrive(0.0)  # saturates the static cluster's only slot
        # While the replica warms and the warmed slot is taken, a shed
        # request is classified warming; once the warm-up deadline
        # passes the replica counts as capacity and the class flips.
        assert core._rejected_while_warming(10.0) is True
        assert core._rejected_while_warming(50.0) is False

    def test_autoscale_tick_respects_horizon(self):
        # Without an autoscaler nothing is armed; with horizon +inf a
        # live-style core re-arms forever (checked over two ticks).
        driver = FakeDriver(_scenario())
        driver.core.schedule_autoscaler()
        assert not driver.pending(P_AUTOSCALE)

    def test_time_scale_compresses_service_times(self):
        base = FakeDriver(_scenario())
        base.arrive(0.0)
        base.step()
        (t_base, *_), = base.pending(P_COMPLETE)

        fast = FakeDriver(_scenario(), time_scale=0.1)
        fast.arrive(0.0)
        fast.step()
        (t_fast, *_), = fast.pending(P_COMPLETE)
        # Completion delay after the t=1.0 dispatch shrinks by 10x.
        assert (t_fast - 1.0) == pytest.approx((t_base - 1.0) * 0.1)

    def test_fake_and_sim_drivers_agree(self):
        # The same scenario through the hand-stepped fake clock and
        # through the real DES driver lands on identical counters —
        # the core, not the driver, owns every decision.
        scenario = _scenario()
        profiles = _profiles_for(scenario)

        fake = FakeDriver(scenario, profiles=profiles)
        arrivals = generate_arrivals(scenario.tenants[0], scenario.seed,
                                     scenario.duration_seconds)
        for when in arrivals:
            fake._push(when, 1, lambda now, _p: fake.arrive(now), None)
        fake.run_until_idle()

        sim = SimDriver(scenario, "f", profiles)
        core = sim.run()

        for name in core.stats:
            a, b = fake.core.stats[name], core.stats[name]
            assert (a.arrivals, a.rejected, a.deadline_misses) == (
                b.arrivals, b.rejected, b.deadline_misses)
            assert a.latency.count == b.latency.count
            assert a.latency.max == b.latency.max
        assert fake.core._batch_ids == core._batch_ids
        assert fake.core.last_completion == core.last_completion
