"""The clock-agnostic serving engine core.

Everything the serving stack *decides* — admission, batch coalescing,
dispatch planning and routing, autoscale evaluation, SLO burn tracking,
streamed telemetry — lives here, with no event loop of its own.  A
*driver* owns the clock and the loop, hands the core a ``schedule``
callback, and fires the core's ``handle_*`` methods as events come due:

* :class:`~repro.serve.engine.SimDriver` — the discrete-event heapq
  loop.  ``schedule`` pushes ``(time, priority, seq, handler, payload)``
  heap entries; time is simulated seconds and the run is byte-
  deterministic for a scenario + seed.
* :class:`~repro.serve.live.LiveDriver` — the asyncio runtime behind
  ``repro serve --live``.  ``schedule`` arms asyncio timers; time is
  wall seconds since server start, arrivals come from HTTP instead of
  seeded generators, and completions are paced to the simulated-
  hardware batch times the core computes.

The core never reads a clock and never sleeps: every ``now`` it sees is
the timestamp the driver passed in.  That single constraint is what
lets one body of logic produce byte-identical DES reports *and* serve
live traffic.

Event priorities order same-timestamp events: free cluster slots first,
then admit new arrivals, then batch-window flushes, then autoscaler
evaluations (so a tick observes the queue after same-instant
admissions).

The core counts each event once, in its own tallies
(:class:`TenantStats`, the ``ClusterState`` batch and request counts,
``scale_events``), and records nothing into a metrics registry on the
per-event path: :meth:`EngineCore.counters` renders the ``serve.*``
counters from those tallies, for the DES report's ``metrics`` block and
for the live server's ``/metrics`` at scrape time.

``time_scale`` scales the simulated-hardware service times a live run
accounts per batch (a demo knob: compress hours of FHE compute into
seconds of wall clock).  At the default 1.0 the scaling multiply is
skipped entirely, so DES report bytes cannot drift.
"""

from __future__ import annotations

from repro.obs.flight import FlightRecorder
from repro.obs.streaming import (
    StreamingHistogram,
    StreamingIntervalUnion,
    TimeWeightedValue,
    TimeWeightedWindows,
    WindowedCounter,
)
from repro.serve.autoscale import Autoscaler
from repro.serve.dispatch import READY_SLACK, ClusterState, select_cluster
from repro.serve.queueing import AdmissionQueue, Request, make_policy
from repro.serve.scenario import params_preset, resolve_fleet_cluster

__all__ = [
    "ADMITTED",
    "P_ARRIVAL",
    "P_AUTOSCALE",
    "P_COMPLETE",
    "P_FLUSH",
    "REJECTED",
    "REJECTED_WARMING",
    "ClusterStats",
    "EngineCore",
    "TenantStats",
]

# Same-timestamp event priorities (see module docstring).
P_COMPLETE, P_ARRIVAL, P_FLUSH, P_AUTOSCALE = 0, 1, 2, 3

#: Admission outcomes returned by :meth:`EngineCore.handle_arrival`.
#: The DES driver ignores them (the report carries the counts); the
#: live driver maps them to HTTP responses (429 on either rejection).
ADMITTED = "admitted"
REJECTED = "rejected"
REJECTED_WARMING = "rejected_warming"


class TenantStats:
    """Per-tenant streamed counters, latency sketch, and window series.

    LLM tenants additionally carry token-streaming sketches: time to
    first token (prefill completion), inter-token latency, and session
    / recharge / migration counters.  For CNN tenants those fields stay
    None/0 and never reach the report.
    """

    __slots__ = ("arrivals", "rejected", "rejected_warming",
                 "deadline_misses", "latency", "arrivals_w",
                 "rejections_w", "completions_w", "misses_w",
                 "latency_sum_w", "ttft", "inter_token", "tokens",
                 "decode_steps", "recharges", "sessions_completed",
                 "sessions_aborted", "kv_migrations")

    def __init__(self, duration, num_windows, exact, llm=False):
        self.arrivals = 0
        self.rejected = 0
        self.rejected_warming = 0
        self.deadline_misses = 0
        self.latency = StreamingHistogram(exact=exact)
        self.arrivals_w = WindowedCounter(duration, num_windows)
        self.rejections_w = WindowedCounter(duration, num_windows)
        self.completions_w = WindowedCounter(duration, num_windows)
        self.misses_w = WindowedCounter(duration, num_windows)
        self.latency_sum_w = WindowedCounter(duration, num_windows)
        self.ttft = StreamingHistogram(exact=exact) if llm else None
        self.inter_token = StreamingHistogram(exact=exact) if llm else None
        self.tokens = 0
        self.decode_steps = 0
        self.recharges = 0
        self.sessions_completed = 0
        self.sessions_aborted = 0
        self.kv_migrations = 0


class ClusterStats:
    """Per-cluster streamed busy accounting.

    Compute intervals on one cluster never overlap (``compute_free_at``
    is monotonic), so a running sum equals their union; I/O intervals
    (full-duplex ingress/egress) can overlap, so their union streams
    through :class:`StreamingIntervalUnion` — commits at time ``now``
    only schedule phases starting at or after ``now``, which is
    exactly the monotonic-release precondition.
    """

    __slots__ = ("compute_busy", "io_union", "busy_w")

    def __init__(self, duration, num_windows):
        self.compute_busy = 0.0
        self.io_union = StreamingIntervalUnion()
        self.busy_w = TimeWeightedWindows(duration, num_windows)


class EngineCore:
    """One fleet's serving decision logic, clock supplied by a driver.

    ``schedule(time, priority, handler, payload)`` is the driver's
    event-arming callback; the core calls it whenever a future event
    (batch completion, window flush, autoscale tick) must fire, and the
    driver later invokes ``handler(now, payload)`` at that time.  The
    order of ``schedule`` calls is part of the DES byte-identity
    contract — do not reorder them.
    """

    def __init__(self, scenario, fleet_name, profiles, schedule,
                 exact=False, recorder=None, time_scale=1.0):
        self.scenario = scenario
        self.fleet_name = fleet_name
        self.profiles = profiles
        self.exact = bool(exact)
        self._schedule = schedule
        self.time_scale = float(time_scale)
        #: autoscale ticks re-arm while ``next_tick <= horizon``; the
        #: DES sets the scenario duration, the live driver +inf.
        self.horizon = scenario.duration_seconds
        self.tenants = {t.name: t for t in scenario.tenants}
        self.queue = AdmissionQueue(policy=make_policy(scenario.policy),
                                    max_queue=scenario.max_queue)
        self.clusters = []
        self.cluster_stats = []
        self._replica_counts = {}
        duration = scenario.duration_seconds
        num_windows = scenario.telemetry.num_windows
        for entry in scenario.fleets[fleet_name]:
            self._add_cluster(entry, active_from=0.0, elastic=False)
        autoscale = scenario.autoscale
        if autoscale is not None and autoscale.applies_to(fleet_name):
            self.autoscaler = Autoscaler(autoscale, scenario.tenants)
            for _ in range(autoscale.min_replicas):
                self._add_cluster(autoscale.cluster, active_from=0.0,
                                  elastic=True)
        else:
            self.autoscaler = None
        self.initial_replicas = sum(1 for c in self.clusters if c.elastic)
        self.peak_replicas = self.initial_replicas
        self.scale_events = []
        self.stats = {
            name: TenantStats(duration, num_windows, self.exact,
                              llm=tenant.kind == "llm")
            for name, tenant in self.tenants.items()
        }
        llm_tenants = [t for t in scenario.tenants if t.kind == "llm"]
        if llm_tenants:
            from repro.llm import TokenSampler, llm_info

            self.llm_info = {t.model: llm_info(t.model)
                             for t in llm_tenants}
            self._token_samplers = {
                t.name: TokenSampler(t.name, scenario.seed,
                                     t.prompt_token_options,
                                     t.output_token_options)
                for t in llm_tenants
            }
        else:
            self.llm_info = {}
            self._token_samplers = {}
        #: open LLM sessions: session id -> KV/session bookkeeping
        self._sessions = {}
        #: live-driver hook, called as ``token_sink(now, request,
        #: done=..., aborted=...)`` for every generated token.  None in
        #: DES runs — tokens only reach the report through TenantStats.
        self.token_sink = None
        self.recorder = (recorder if recorder is not None
                         else FlightRecorder(scenario.telemetry
                                             .recorder_events))
        self.depth = TimeWeightedValue(duration, num_windows)
        self.depth_series = [(0.0, 0)] if self.exact else None
        self._batch_ids = 0
        self._request_ids = 0
        self._slo_burned = set()
        self.last_completion = 0.0

    # -- cluster pool ---------------------------------------------------

    def _add_cluster(self, entry, active_from, elastic):
        """Append one cluster replica (static at init, or scaled up)."""
        spec = resolve_fleet_cluster(entry)
        replica = self._replica_counts.get(entry, 0)
        self._replica_counts[entry] = replica + 1
        cluster = ClusterState(
            index=len(self.clusters), name=entry, replica=replica,
            spec=spec, mode=self.scenario.dispatch,
            active_from=active_from, elastic=elastic,
        )
        self.clusters.append(cluster)
        self.cluster_stats.append(ClusterStats(
            self.scenario.duration_seconds,
            self.scenario.telemetry.num_windows))
        return cluster

    def _active_elastic(self):
        """Non-retired elastic replicas, in creation order."""
        return [c for c in self.clusters
                if c.elastic and c.retired_at is None]

    def _record_depth(self, now):
        depth = len(self.queue)
        self.depth.update(now, depth)
        if self.depth_series is not None:
            self.depth_series.append((now, depth))

    def counters(self):
        """The ``serve.*`` counters, rendered from the core's tallies.

        Laid out like the ``counters`` of a
        :class:`~repro.obs.MetricsRegistry` snapshot: sorted names and
        label keys, int values, and a series only where the count is
        nonzero.  The DES report's ``metrics`` block and the live
        server's ``/metrics`` both come from here.
        """
        table = {}

        def put(name, key, value):
            if value:
                series = table.setdefault(name, {})
                series[key] = series.get(key, 0) + value

        for tenant, stats in self.stats.items():
            key = f"tenant={tenant}"
            for name, value in (
                    ("arrivals", stats.arrivals),
                    ("rejected", stats.rejected),
                    ("rejected_warming", stats.rejected_warming),
                    ("completed", stats.latency.count),
                    ("deadline_miss", stats.deadline_misses),
                    ("tokens", stats.tokens),
                    ("decode_steps", stats.decode_steps),
                    ("kv_recharges", stats.recharges),
                    ("sessions_completed", stats.sessions_completed),
                    ("sessions_aborted", stats.sessions_aborted),
                    ("kv_migrations", stats.kv_migrations)):
                put(f"serve.{name}", key, value)
        for cluster in self.clusters:
            key = f"cluster={cluster.label}"
            put("serve.batches", key, cluster.batches)
            put("serve.batched_requests", key, cluster.requests)
        for event in self.scale_events:
            put(f"serve.scale_{event['action']}", "",
                len(event["clusters"]))
        return {name: dict(sorted(series.items()))
                for name, series in sorted(table.items())}

    # -- request construction -------------------------------------------

    def make_request(self, tenant, arrival):
        """Build the next :class:`Request` for ``tenant`` at ``arrival``.

        Request ids are assigned in creation order — the DES driver
        creates them in event-push order, the live driver in HTTP
        arrival order — so ids are deterministic per driver.
        """
        deadline = (None if tenant.deadline_seconds is None
                    else arrival + tenant.deadline_seconds)
        if tenant.kind == "llm":
            # One arrival = one session: sample its prompt and output
            # lengths now (creation order keeps the draws
            # deterministic) and enter admission as a prefill request.
            # The deadline covers the whole session.
            sampler = self._token_samplers[tenant.name]
            prompt_tokens = sampler.next_prompt()
            output_tokens = sampler.next_output()
            request = Request(id=self._request_ids, tenant=tenant.name,
                              batch_key=tenant.batch_key,
                              arrival=arrival, deadline=deadline,
                              phase="prefill",
                              session=self._request_ids,
                              token_index=1,
                              tokens_total=output_tokens,
                              prompt_tokens=prompt_tokens)
        else:
            request = Request(id=self._request_ids, tenant=tenant.name,
                              batch_key=tenant.batch_key,
                              arrival=arrival, deadline=deadline)
        self._request_ids += 1
        return request

    # -- handlers -------------------------------------------------------

    def handle_arrival(self, now, request):
        """Admit or reject one request; returns the admission outcome.

        On admission the batch-window flush timer is armed and dispatch
        runs immediately.  On rejection the outcome distinguishes hard
        capacity (:data:`REJECTED`) from rejections taken while scaled-
        up replicas were still warming and every warmed replica was
        saturated (:data:`REJECTED_WARMING`) — the signal autoscaling-
        aware shedding needs.

        Decode continuations re-enter admission through this handler
        too, but do not count as tenant arrivals (the session did, at
        prefill time).
        """
        if request.phase == "decode":
            return self._handle_decode_arrival(now, request)
        stats = self.stats[request.tenant]
        stats.arrivals += 1
        stats.arrivals_w.add(now)
        if not self.queue.offer(request):
            warming = self._rejected_while_warming(now)
            stats.rejected += 1
            stats.rejections_w.add(now)
            if warming:
                stats.rejected_warming += 1
                self.recorder.record("reject", now, tenant=request.tenant,
                                     request=request.id,
                                     reason="warming")
                return REJECTED_WARMING
            self.recorder.record("reject", now, tenant=request.tenant,
                                 request=request.id)
            return REJECTED
        self.recorder.record("admit", now, tenant=request.tenant,
                             request=request.id)
        self._record_depth(now)
        if self.scenario.batch.window_seconds > 0:
            self._schedule(now + self.scenario.batch.window_seconds,
                           P_FLUSH, self.handle_flush, request.batch_key)
        self.try_dispatch(now)
        return ADMITTED

    def _handle_decode_arrival(self, now, request):
        """Admit one decode continuation; rejects abort the session.

        A decode step shed at admission drops the session's KV
        ciphertexts — no further tokens can flow, so the whole session
        aborts (counted separately from arrival rejections).
        """
        stats = self.stats[request.tenant]
        if not self.queue.offer(request):
            self._sessions.pop(request.session, None)
            stats.sessions_aborted += 1
            self.recorder.record("session_abort", now,
                                 tenant=request.tenant,
                                 session=request.session,
                                 token=request.token_index)
            if self.token_sink is not None:
                self.token_sink(now, request, aborted=True)
            return REJECTED
        self.recorder.record("decode", now, tenant=request.tenant,
                             request=request.id, session=request.session,
                             token=request.token_index)
        self._record_depth(now)
        if self.scenario.batch.window_seconds > 0:
            self._schedule(now + self.scenario.batch.window_seconds,
                           P_FLUSH, self.handle_flush, request.batch_key)
        self.try_dispatch(now)
        return ADMITTED

    def _rejected_while_warming(self, now):
        """True when the reject landed during a warm-up gap.

        A rejection counts as ``rejected_warming`` when at least one
        elastic replica is still warming (scaled up, not yet
        dispatchable) *and* no warmed replica has a free batch slot —
        capacity is on the way, the request just could not wait for it.
        """
        warming = any(c.elastic and c.retired_at is None
                      and not c.available(now)
                      for c in self.clusters)
        if not warming:
            return False
        return not self._free_clusters(now)

    def handle_flush(self, now, _batch_key):
        self.try_dispatch(now)

    def handle_complete(self, now, payload):
        cluster, batch, batch_id = payload
        cluster.inflight -= 1
        for request in batch:
            if request.phase is None:
                self._account_completion(now, request)
            else:
                self._complete_llm_step(now, request, cluster)
        self.recorder.record("complete", now, batch=batch_id,
                             cluster=cluster.label, size=len(batch))
        self.last_completion = max(self.last_completion, now)
        self.try_dispatch(now)

    def _account_completion(self, now, request, arrival=None):
        """Whole-request accounting: a CNN request or a full LLM
        session (measured from the session's arrival to its last
        token)."""
        stats = self.stats[request.tenant]
        latency = now - (request.arrival if arrival is None else arrival)
        stats.latency.add(latency)
        stats.completions_w.add(now)
        stats.latency_sum_w.add(now, latency)
        missed = (request.deadline is not None
                  and now > request.deadline)
        if missed:
            stats.deadline_misses += 1
            stats.misses_w.add(now)
            self._check_slo_burn(now, request, stats)
        if self.autoscaler is not None:
            self.autoscaler.observe_completion(request.tenant,
                                               latency, missed)

    # -- LLM sessions ---------------------------------------------------

    def _complete_llm_step(self, now, request, cluster):
        """One finished prefill or decode batch member."""
        stats = self.stats[request.tenant]
        if request.phase == "prefill":
            # Prefill emits the first token and pins the session's KV
            # ciphertexts to the cluster that computed them.
            stats.ttft.add(now - request.arrival)
            stats.tokens += 1
            done = request.tokens_total <= 1
            if self.token_sink is not None:
                self.token_sink(now, request, done=done)
            if done:
                self._finish_session(now, request, request.arrival)
                return
            tenant = self.tenants[request.tenant]
            from repro.llm import KvSession

            self._sessions[request.session] = {
                "tenant": request.tenant,
                "arrival": request.arrival,
                "deadline": request.deadline,
                "tokens_total": request.tokens_total,
                "last_token": now,
                "kv_cluster": cluster.index,
                "kv": KvSession(params_preset(tenant.params).max_level),
            }
            self._schedule_decode(now, request.session,
                                  request.token_index + 1)
            return
        session = self._sessions.get(request.session)
        if session is None:  # pragma: no cover - defensive
            return
        inter_token = now - session["last_token"]
        session["last_token"] = now
        stats.inter_token.add(inter_token)
        stats.tokens += 1
        stats.decode_steps += 1
        if request.recharge:
            stats.recharges += 1
        done = request.token_index >= request.tokens_total
        if self.token_sink is not None:
            self.token_sink(now, request, done=done)
        if done:
            arrival = session["arrival"]
            del self._sessions[request.session]
            self._finish_session(now, request, arrival)
        else:
            self._schedule_decode(now, request.session,
                                  request.token_index + 1)

    def _finish_session(self, now, request, arrival):
        """Last token out: close the session and account the whole
        request."""
        stats = self.stats[request.tenant]
        stats.sessions_completed += 1
        self.recorder.record("session_end", now, tenant=request.tenant,
                             session=request.session,
                             tokens=request.tokens_total)
        self._account_completion(now, request, arrival=arrival)

    def _schedule_decode(self, now, session_id, token_index):
        """Arm the next decode continuation as a follow-on arrival.

        The batch key pins the session's current KV cluster, which is
        what session-affine dispatch keys on; the KV level advances
        here (request-creation order), so recharge placement is
        deterministic.
        """
        session = self._sessions[session_id]
        tenant = self.tenants[session["tenant"]]
        recharge = session["kv"].advance()
        request = Request(
            id=self._request_ids, tenant=tenant.name,
            batch_key=(f"{tenant.model}#decode", tenant.params,
                       session["kv_cluster"]),
            arrival=now, deadline=session["deadline"], phase="decode",
            session=session_id, token_index=token_index,
            tokens_total=session["tokens_total"], recharge=recharge)
        self._request_ids += 1
        self._schedule(now, P_ARRIVAL, self.handle_arrival, request)

    # -- autoscaling ----------------------------------------------------

    def schedule_autoscaler(self):
        """Arm the first autoscale tick (drivers call this once)."""
        if self.autoscaler is None:
            return
        interval = self.autoscaler.config.evaluation_interval_seconds
        if interval <= self.horizon:
            self._schedule(interval, P_AUTOSCALE, self.handle_autoscale,
                           None)

    def handle_autoscale(self, now, _payload):
        config = self.autoscaler.config
        active = self._active_elastic()
        delta, signal = self.autoscaler.evaluate(
            now, len(self.queue), len(active))
        target = max(config.min_replicas,
                     min(config.max_replicas, len(active) + delta))
        applied = target - len(active)
        if applied > 0:
            self._scale_up(now, applied, signal)
        elif applied < 0:
            self._scale_down(now, -applied, signal)
        next_tick = now + config.evaluation_interval_seconds
        if next_tick <= self.horizon:
            self._schedule(next_tick, P_AUTOSCALE, self.handle_autoscale,
                           None)

    def _scale_up(self, now, count, signal):
        config = self.autoscaler.config
        ready_at = now + config.warmup_seconds
        labels = []
        for _ in range(count):
            cluster = self._add_cluster(config.cluster,
                                        active_from=ready_at,
                                        elastic=True)
            labels.append(cluster.label)
        self.autoscaler.note_scaled(now)
        self.peak_replicas = max(self.peak_replicas,
                                 len(self._active_elastic()))
        self.recorder.trigger("scale_up", now, policy=config.policy,
                              signal=signal, clusters=labels,
                              ready_at=ready_at)
        self.scale_events.append({
            "time": now, "action": "up", "policy": config.policy,
            "signal": signal, "clusters": labels,
            "active_replicas": len(self._active_elastic()),
        })
        # Kick dispatch the instant the new replicas finish warming up.
        self._schedule(ready_at, P_FLUSH, self.handle_flush, None)

    def _scale_down(self, now, count, signal):
        config = self.autoscaler.config
        labels = []
        # Retire the most recently added replicas first (LIFO), so
        # long-lived replicas keep their batch history and the pool
        # composition stays deterministic.
        for cluster in reversed(self._active_elastic()):
            if len(labels) == count:
                break
            cluster.retire(now)
            labels.append(cluster.label)
        if not labels:
            return
        self.autoscaler.note_scaled(now)
        self.recorder.trigger("scale_down", now, policy=config.policy,
                              signal=signal, clusters=labels)
        self.scale_events.append({
            "time": now, "action": "down", "policy": config.policy,
            "signal": signal, "clusters": labels,
            "active_replicas": len(self._active_elastic()),
        })

    def _check_slo_burn(self, now, request, stats):
        """Trigger the flight recorder when a tenant's budget burns out."""
        tenant = self.tenants[request.tenant]
        if request.tenant in self._slo_burned:
            return
        completed = stats.latency.count
        if completed and (stats.deadline_misses / completed
                          > tenant.slo_budget):
            self._slo_burned.add(request.tenant)
            self.recorder.trigger("slo_budget_exceeded", now,
                                  tenant=request.tenant,
                                  request=request.id,
                                  misses=stats.deadline_misses,
                                  completed=completed)

    # -- dispatch -------------------------------------------------------

    def _key_dispatchable(self, key, free_idx):
        """Session-affine decode keys wait for their KV cluster.

        A decode batch whose KV cluster is alive but busy must stay in
        the queue (extracting it would force either a stall or a
        migration the routing mode forbids); once the KV cluster is
        retired, any cluster may take the batch (forced migration).
        """
        if len(key) < 3 or not self.scenario.routing.session_affinity:
            return True
        kv_cluster = self.clusters[key[2]]
        if kv_cluster.retired_at is not None:
            return True
        return key[2] in free_idx

    def _free_clusters(self, now):
        """Active replicas with a free batch slot at ``now``.

        ``ClusterState.available`` is inlined: this scan runs on every
        event and mostly finds no free cluster.
        """
        ready_by = now + READY_SLACK
        return [c for c in self.clusters
                if c.inflight < c.inflight_limit
                and c.retired_at is None and c.active_from <= ready_by]

    def try_dispatch(self, now):
        batch_cfg = self.scenario.batch
        routing = self.scenario.routing
        while True:
            free = self._free_clusters(now)
            if not free:
                return
            dispatchable = None
            if self.llm_info:
                free_idx = {c.index for c in free}

                def dispatchable(key, _free=free_idx):
                    return self._key_dispatchable(key, _free)

            batch = self.queue.take_batch(now, batch_cfg.max_requests,
                                          batch_cfg.window_seconds,
                                          dispatchable=dispatchable)
            if batch is None:
                return
            self._record_depth(now)
            key = batch[0].batch_key
            model, params_name = key[0], key[1]
            base_model, _, phase = model.partition("#")
            phase = phase or None
            if phase == "decode":
                # A decode step stages one query/token ciphertext each
                # way per session.
                cts_in = cts_out = len(batch)
                kv_index = key[2]
                info = self.llm_info[base_model]
                affine = (routing.session_affinity
                          and self.clusters[kv_index].retired_at is None)
                candidates = ([c for c in free if c.index == kv_index]
                              if affine else free)
                recharging = sum(1 for r in batch if r.recharge)
            else:
                cts_in = sum(self.tenants[r.tenant].ciphertexts_in
                             for r in batch)
                cts_out = sum(self.tenants[r.tenant].ciphertexts_out
                              for r in batch)
                kv_index = None
                candidates = free
            plans = []
            batch_times = {}
            for cluster in candidates:
                profile = self.profiles[(model, params_name, cluster.name)]
                t_in, t_c, t_out = profile.batch_times(
                    len(batch), cts_in, cts_out, self.scenario.overheads)
                if phase == "prefill":
                    # The profile prices the model's native context;
                    # rescale to the batch's sampled prompt lengths.
                    info = self.llm_info[base_model]
                    t_c *= (sum(r.prompt_tokens for r in batch)
                            / (len(batch) * info.context_tokens))
                elif phase == "decode" and recharging:
                    recharge = self.profiles[
                        (f"{base_model}#recharge", params_name,
                         cluster.name)]
                    t_c += recharging * recharge.compute_seconds
                if self.time_scale != 1.0:
                    t_in *= self.time_scale
                    t_c *= self.time_scale
                    t_out *= self.time_scale
                batch_times[cluster.index] = (t_in, t_c, t_out)
                plans.append((cluster.plan_batch(now, t_in, t_c, t_out),
                              cluster))
            deadlines = [r.deadline for r in batch
                         if r.deadline is not None]
            schedule, cluster = select_cluster(
                plans, routing,
                min(deadlines) if deadlines else None)
            if kv_index is not None and cluster.index != kv_index:
                # The affinity-blind router never saw the KV placement:
                # only once the batch lands does each session's cached
                # K/V have to re-stage over the host link, an ingress
                # surcharge the routing decision did not price.
                profile = self.profiles[(model, params_name, cluster.name)]
                migrate = (len(batch) * info.kv_ciphertexts
                           * profile.ciphertext_bytes
                           / profile.io_bandwidth)
                if self.time_scale != 1.0:
                    migrate *= self.time_scale
                t_in, t_c, t_out = batch_times[cluster.index]
                source = self.clusters[kv_index]
                mig_start, mig_end = source.occupy_egress(now, migrate)
                self.cluster_stats[kv_index].io_union.add(
                    mig_start, mig_end, now=now)
                # The batch can't stage into the target before the
                # source has streamed the KV out.
                schedule = cluster.plan_batch(mig_end, t_in + migrate,
                                              t_c, t_out)
                self._migrate_sessions(now, batch, cluster)
            cluster.commit_batch(schedule, len(batch))
            batch_id = f"batch-{self._batch_ids:05d}"
            self._batch_ids += 1
            stats = self.cluster_stats[cluster.index]
            stats.compute_busy += (schedule.compute_end
                                   - schedule.compute_start)
            stats.busy_w.add_interval(schedule.compute_start,
                                      schedule.compute_end)
            if schedule.ingress_end > schedule.ingress_start:
                stats.io_union.add(schedule.ingress_start,
                                   schedule.ingress_end, now=now)
            if schedule.egress_end > schedule.egress_start:
                stats.io_union.add(schedule.egress_start,
                                   schedule.egress_end, now=now)
            self.recorder.record(
                "coalesce", now, batch=batch_id, size=len(batch),
                model=model,
                requests=[r.id for r in batch])
            self.recorder.record(
                "dispatch", now, batch=batch_id, cluster=cluster.label,
                completion=schedule.completion)
            self._schedule(schedule.completion, P_COMPLETE,
                           self.handle_complete, (cluster, batch, batch_id))

    def _migrate_sessions(self, now, batch, cluster):
        """Re-pin the batch's sessions to the cluster that took it.

        Only reachable with affinity disabled (or a retired KV
        cluster): the migration transfer is paid as an ingress
        surcharge on the batch the blind router never priced.  Each
        session has at most one decode step in flight, so re-pinning
        here cannot race a queued request.
        """
        for request in batch:
            session = self._sessions.get(request.session)
            if session is not None:
                session["kv_cluster"] = cluster.index
            self.stats[request.tenant].kv_migrations += 1
        self.recorder.record(
            "kv_migrate", now, cluster=cluster.label,
            sessions=[r.session for r in batch])
