"""``repro serve --live``: the asyncio runtime around the engine core.

Where :class:`~repro.serve.engine.SimDriver` replays a scenario's
seeded arrivals in simulated time, :class:`LiveDriver` runs the *same*
:class:`~repro.serve.core.EngineCore` against the wall clock and real
traffic: a localhost HTTP API (stdlib asyncio + a minimal HTTP/1.1
parser — no new dependencies) accepts inference requests, admission
and batch coalescing happen in the core exactly as in the DES, and
each dispatched batch is executed *for real* — encrypt → dense →
polynomial activation → dense → decrypt — on the functional CKKS
substrate by a persistent pool of warm worker contexts.

**Clock domains.** The core is clock-agnostic; the live driver feeds it
wall seconds since server start.  Batch *service times* still come
from the scenario's planned service profiles — the simulated-hardware
cost of the batch on the selected cluster — so a batch completes at
``max(simulated completion, functional compute finish)``: admission,
backpressure, and autoscaling all see the latency dynamics of the
accelerator fleet being modeled, not of the laptop running the demo.
``time_scale`` compresses the simulated service times (0.01 = 100x
faster than the modeled hardware) for interactive use.

**Plans.** Service profiles are precompiled for every tenant in the
scenario before the socket opens, through the shared
:class:`~repro.runtime.SqlitePlanStore` — concurrent server processes
warming the same scenario compile each plan exactly once between them.

**Functional compute.** The toy CKKS parameter set stands in for the
paper-scale one (the full parameters exist for cost modeling, not for
executing on a host CPU): each worker context holds its own keys and a
two-layer dense/poly-activation network, so inference requests really
are answered under encryption end to end.
"""

from __future__ import annotations

import asyncio
import json
import queue as queue_mod
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.obs.metrics import (
    MetricsRegistry,
    inc as _metric_inc,
    set_registry,
)
from repro.obs.prom import registry_to_prom
from repro.serve.core import ADMITTED, P_COMPLETE, EngineCore
from repro.serve.engine import prepare_profiles
from repro.serve.scenario import Scenario, load_scenario

__all__ = ["LiveDriver", "LiveServer", "LiveWorkerPool", "run_live"]

#: Toy functional parameters used by live workers (laptop-scale).
_POLY_DEGREE = 128
_NUM_SCALE_MODULI = 8

#: The route serving each tenant kind.
_ROUTES = {"cnn": "/v1/infer", "llm": "/v1/generate"}

#: Degree-2 polynomial activation (the square-activation family used
#: by early FHE CNNs; paper-style non-linear layers are higher degree).
_ACTIVATION = (0.0, 0.5, 0.25)

#: Request limits.  A request line or header line longer than
#: ``_MAX_LINE_BYTES``, or more than ``_MAX_HEADERS`` headers, gets 431;
#: a declared body over ``_MAX_BODY_BYTES`` gets 413 before any of it is
#: read (a body carries at most 64 numbers, a few KiB of JSON); a
#: request not fully read within ``_READ_DEADLINE_S`` seconds gets 408.
_MAX_LINE_BYTES = 8192
_MAX_HEADERS = 100
_MAX_BODY_BYTES = 1 << 20
_READ_DEADLINE_S = 10.0


class _WorkerContext:
    """One warm CKKS context: keys + a two-layer encrypted network."""

    def __init__(self, worker_id, seed=7):
        import numpy as np

        from repro.ckks import (
            CkksContext,
            Decryptor,
            Encryptor,
            Evaluator,
            KeyGenerator,
            LinearTransform,
            toy_parameters,
        )

        self.worker_id = worker_id
        self._np = np
        params = toy_parameters(poly_degree=_POLY_DEGREE,
                                num_scale_moduli=_NUM_SCALE_MODULI)
        self.slots = params.slot_count
        ctx = CkksContext(params)
        keygen = KeyGenerator(ctx, seed=0)
        self._encryptor = Encryptor(ctx, keygen.create_public_key(),
                                    seed=1)
        self._decryptor = Decryptor(ctx, keygen.secret_key)
        self._evaluator = Evaluator(ctx)
        self._relin = keygen.create_relin_key()
        # Model weights are derived from the fixed seed, so every
        # worker (and every server process) serves the same model.
        rng = np.random.default_rng(seed)
        n = self.slots
        self._w1 = 0.3 * rng.normal(size=(n, n))
        self._w2 = 0.3 * rng.normal(size=(n, n))
        self._layer1 = LinearTransform(ctx, self._w1)
        self._layer2 = LinearTransform(ctx, self._w2)
        steps = sorted(set(self._layer1.required_rotation_steps())
                       | set(self._layer2.required_rotation_steps()))
        self._galois = keygen.create_galois_keys(
            [ctx.galois_element_for_step(s) for s in steps])

    def infer(self, values):
        """Encrypt → dense → activation → dense → decrypt one vector."""
        from repro.ckks import evaluate_polynomial

        np = self._np
        x = np.zeros(self.slots)
        data = np.asarray(values, dtype=float)
        x[: data.size] = data
        ct = self._encryptor.encrypt_values(x)
        ct = self._evaluator.rescale(
            self._layer1.apply(ct, self._evaluator, self._galois))
        ct = evaluate_polynomial(ct, list(_ACTIVATION), self._evaluator,
                                 self._relin)
        ct = self._evaluator.rescale(
            self._layer2.apply(ct, self._evaluator, self._galois))
        got = self._decryptor.decrypt_values(ct).real
        h = self._w1 @ x
        h = 0.5 * h + 0.25 * h ** 2
        want = self._w2 @ h
        return {
            "outputs": [round(float(v), 6) for v in got[:8]],
            "plaintext_reference": [round(float(v), 6)
                                    for v in want[:8]],
            "max_error": float(np.max(np.abs(got - want))),
            "ciphertext_level": int(ct.level),
            "worker": self.worker_id,
        }


class LiveWorkerPool:
    """Persistent warm CKKS workers behind a thread pool.

    ``size`` contexts are built once (eagerly via :meth:`warm`, or
    lazily on first checkout) and recycled through a queue — key
    generation and Galois-key material are paid per worker, not per
    request.  Contexts are checked out exclusively, so no CKKS state is
    ever shared between threads.
    """

    def __init__(self, size=2, seed=7):
        self.size = max(1, int(size))
        self.seed = seed
        #: input values one request may carry (CKKS packs N/2 slots)
        self.slots = _POLY_DEGREE // 2
        self.executor = ThreadPoolExecutor(
            max_workers=self.size, thread_name_prefix="ckks-worker")
        self._contexts = queue_mod.Queue()
        self._built = 0
        self._build_lock = threading.Lock()

    def warm(self):
        """Build every worker context up front (the ``--warm`` path)."""
        with self._build_lock:
            while self._built < self.size:
                self._contexts.put(_WorkerContext(self._built,
                                                  seed=self.seed))
                self._built += 1
        return self.size

    def _checkout(self):
        with self._build_lock:
            if self._built < self.size and self._contexts.empty():
                ctx = _WorkerContext(self._built, seed=self.seed)
                self._built += 1
                return ctx
        return self._contexts.get()

    def infer(self, values):
        """Run one inference on a checked-out warm context (blocking)."""
        ctx = self._checkout()
        try:
            return ctx.infer(values)
        finally:
            self._contexts.put(ctx)

    def shutdown(self):
        self.executor.shutdown(wait=False)


class LiveDriver:
    """The wall-clock driver: asyncio timers around one EngineCore.

    ``schedule`` calls from the core become asyncio timers; completion
    events additionally fan the batch out to the worker pool, and fire
    only once *both* the simulated-hardware completion time has passed
    and the functional CKKS compute has finished.  Requests enter
    through :meth:`submit` (the HTTP handler) instead of seeded
    generators; each admitted request gets an asyncio future resolved
    when its batch completes.
    """

    def __init__(self, scenario, fleet_name, profiles, pool,
                 time_scale=1.0, recorder=None):
        self.scenario = scenario
        self.fleet_name = fleet_name
        self.pool = pool
        self.core = EngineCore(scenario, fleet_name, profiles,
                               schedule=self._schedule,
                               recorder=recorder,
                               time_scale=time_scale)
        # Live serving has no horizon: autoscale ticks re-arm forever
        # (windowed aggregates clamp into their final window past the
        # scenario duration — documented-bounded, never an error).
        self.core.horizon = float("inf")
        self._loop = None
        self._t0 = 0.0
        self._stopped = False
        self._timers = set()
        self._tasks = set()
        self._futures = {}
        self._inputs = {}
        #: open token streams: session id -> asyncio.Queue of token
        #: events (fed by the core's ``token_sink`` hook)
        self._streams = {}
        self.core.token_sink = self._on_token

    # -- clock ----------------------------------------------------------

    def now(self):
        """Wall seconds since :meth:`start` (the core's time axis)."""
        return self._loop.time() - self._t0

    def start(self, loop):
        self._loop = loop
        self._t0 = loop.time()
        self.core.schedule_autoscaler()

    def stop(self):
        self._stopped = True
        for timer in list(self._timers):
            timer.cancel()
        self._timers.clear()
        for task in list(self._tasks):
            task.cancel()
        for future in self._futures.values():
            if not future.done():
                future.cancel()
        self._futures.clear()
        self._inputs.clear()
        for stream in self._streams.values():
            stream.put_nowait({"event": "aborted",
                               "reason": "server stopping"})
        self._streams.clear()

    # -- the core's schedule callback -----------------------------------

    def _schedule(self, when, priority, handler, payload):
        if self._stopped:
            return
        if priority == P_COMPLETE:
            task = self._loop.create_task(
                self._complete_batch(when, payload))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
            return
        box = []

        def fire():
            self._timers.discard(box[0])
            if not self._stopped:
                handler(self.now(), payload)

        delay = max(0.0, when - self.now())
        box.append(self._loop.call_later(delay, fire))
        self._timers.add(box[0])

    async def _complete_batch(self, due, payload):
        cluster, batch, batch_id = payload
        # LLM phase requests (prefill/decode) stream tokens through the
        # token sink instead; their single functional inference runs at
        # session end, so only plain inference requests hit the pool
        # here.
        plain = [r for r in batch if r.phase is None]
        infer_futs = [
            self._loop.run_in_executor(
                self.pool.executor, self.pool.infer,
                self._inputs.pop(request.id, ()))
            for request in plain
        ]
        outcomes = await asyncio.gather(*infer_futs,
                                        return_exceptions=True)
        # Pace to the simulated-hardware completion: the batch is not
        # done until the modeled accelerator would have finished it.
        await asyncio.sleep(max(0.0, due - self.now()))
        if self._stopped:
            return
        now = self.now()
        self.core.handle_complete(now, payload)
        for request, outcome in zip(plain, outcomes):
            future = self._futures.pop(request.id, None)
            if future is None or future.done():
                continue
            if isinstance(outcome, BaseException):
                future.set_exception(outcome)
                continue
            future.set_result(dict(
                outcome,
                request=request.id,
                tenant=request.tenant,
                batch=batch_id,
                batch_size=len(batch),
                cluster=cluster.label,
                latency_seconds=round(now - request.arrival, 6),
            ))

    # -- token streaming ------------------------------------------------

    def _on_token(self, now, request, done=False, aborted=False):
        """The core's ``token_sink``: fan tokens out to session streams."""
        stream = self._streams.get(request.session)
        if stream is None:
            return
        if aborted:
            stream.put_nowait({"event": "aborted",
                               "reason": "decode step rejected at "
                                         "admission"})
        else:
            stream.put_nowait({
                "event": "token",
                "token": request.token_index,
                "of": request.tokens_total,
                "recharge": request.recharge,
                "time_seconds": round(now, 6),
                "done": done,
            })
        if done or aborted:
            self._streams.pop(request.session, None)

    def submit_generate(self, tenant_name, values):
        """Admit one live LLM session; returns ``(outcome, stream)``.

        Returns ``(outcome, request, stream)``; ``request`` and
        ``stream`` are None unless admitted.
        ``stream`` (only on admission) is an :class:`asyncio.Queue`
        yielding one event per generated token — the prefill token
        first, then each decode step as the modeled fleet produces it —
        ending with a ``done`` token or an ``aborted`` event.  The
        submitted ``values`` stay parked for the session's single
        functional inference at stream end.
        """
        tenant = self.core.tenants[tenant_name]
        now = self.now()
        request = self.core.make_request(tenant, now)
        stream = asyncio.Queue()
        self._streams[request.session] = stream
        self._inputs[request.id] = values
        outcome = self.core.handle_arrival(now, request)
        if outcome != ADMITTED:
            self._streams.pop(request.session, None)
            self._inputs.pop(request.id, None)
            return outcome, None, None
        return outcome, request, stream

    def take_input(self, request_id):
        """Claim the parked input vector of an admitted LLM session."""
        return self._inputs.pop(request_id, ())

    # -- request entry --------------------------------------------------

    @property
    def inflight(self):
        """Admitted requests whose batches have not completed yet."""
        return len(self._futures)

    def submit(self, tenant_name, values):
        """Admit one live request; returns ``(outcome, future | None)``.

        ``outcome`` is the core's admission verdict; the future (only
        on admission) resolves to the inference response dict when the
        request's batch completes.
        """
        tenant = self.core.tenants[tenant_name]
        now = self.now()
        request = self.core.make_request(tenant, now)
        future = self._loop.create_future()
        self._futures[request.id] = future
        self._inputs[request.id] = values
        outcome = self.core.handle_arrival(now, request)
        if outcome != ADMITTED:
            self._futures.pop(request.id, None)
            self._inputs.pop(request.id, None)
            return outcome, None
        return outcome, future


class _Refused(Exception):
    """A request answered with an error before it reaches admission."""

    def __init__(self, status, error, **extra):
        super().__init__(error)
        self.status = status
        self.payload = dict(extra, error=error)


class LiveServer:
    """Minimal HTTP/1.1 façade over a :class:`LiveDriver`.

    Routes::

        GET  /healthz      liveness + uptime
        GET  /v1/scenario  tenants, clusters, precompiled plans
        GET  /metrics      Prometheus text exposition (live counters)
        POST /v1/infer     {"tenant": ..., "values": [...]} -> inference
                           (CNN tenants only; ``values`` holds at most
                           :attr:`LiveWorkerPool.slots` finite numbers)
        POST /v1/generate  {"tenant": ..., "values": [...]} -> chunked
                           NDJSON token stream (LLM tenants only): one
                           chunk per generated token as the modeled
                           fleet produces it, a final ``done`` chunk
                           carrying the session's one functional CKKS
                           inference, then the zero-length terminator
        POST /v1/shutdown  clean stop (CI teardown)

    Implemented on ``asyncio.start_server`` with connection-per-request
    semantics — enough for curl, load generators, and scrapers without
    pulling in an HTTP framework.  Every request is read under the
    module's line, header, body and deadline limits.
    """

    def __init__(self, driver, registry, max_inflight=64):
        self.driver = driver
        self.registry = registry
        self.max_inflight = max(1, int(max_inflight))
        self.shutdown_event = asyncio.Event()
        self._server = None

    # -- plumbing -------------------------------------------------------

    @staticmethod
    def _response(status, payload, content_type="application/json"):
        if isinstance(payload, (dict, list)):
            body = (json.dumps(payload, indent=2, sort_keys=True)
                    + "\n").encode()
        else:
            body = payload if isinstance(payload, bytes) else str(
                payload).encode()
        head = (
            f"HTTP/1.1 {status}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode()
        return head + body

    @staticmethod
    async def _readline(reader):
        try:
            return await reader.readline()
        except ValueError:  # the line overran the stream's limit
            raise _Refused(431, f"request line or header line over "
                                f"{_MAX_LINE_BYTES} bytes") from None

    @classmethod
    async def _read_request(cls, reader):
        line = await cls._readline(reader)
        if not line or not line.strip():
            return None
        parts = line.decode("latin-1").split(None, 2)
        if len(parts) < 2:
            return None
        method, path = parts[0].upper(), parts[1]
        headers = {}
        while True:
            raw = await cls._readline(reader)
            if raw in (b"\r\n", b"\n", b""):
                break
            if len(headers) == _MAX_HEADERS:
                raise _Refused(431, f"more than {_MAX_HEADERS} headers")
            key, _, value = raw.decode("latin-1").partition(":")
            headers[key.strip().lower()] = value.strip()
        length = headers.get("content-length") or "0"
        if not (length.isascii() and length.isdigit()):
            raise _Refused(400, f"invalid Content-Length {length!r}")
        if int(length) > _MAX_BODY_BYTES:
            raise _Refused(413, f"body over {_MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(int(length))
        return method, path, headers, body

    # -- routes ---------------------------------------------------------

    def _healthz(self):
        return 200, {
            "status": "ok",
            "scenario": self.driver.scenario.name,
            "fleet": self.driver.fleet_name,
            "uptime_seconds": round(self.driver.now(), 3),
            "inflight": self.driver.inflight,
            "queue_depth": len(self.driver.core.queue),
        }

    def _scenario(self):
        core = self.driver.core
        return 200, {
            "scenario": self.driver.scenario.name,
            "fleet": self.driver.fleet_name,
            "policy": self.driver.scenario.policy,
            "dispatch": self.driver.scenario.dispatch,
            "time_scale": core.time_scale,
            "tenants": [
                {
                    "name": t.name,
                    "model": t.model,
                    "params": t.params,
                    "deadline_seconds": t.deadline_seconds,
                }
                for t in self.driver.scenario.tenants
            ],
            "clusters": [
                {
                    "label": c.label,
                    "elastic": c.elastic,
                    "active": c.available(self.driver.now()),
                }
                for c in core.clusters
            ],
            "plans": [
                {
                    "model": p.model,
                    "params": p.params,
                    "cluster": p.cluster_name,
                    "compute_seconds": p.compute_seconds,
                    "cache_hit": p.cache_hit,
                }
                for p in sorted(core.profiles.values(),
                                key=lambda p: (p.model, p.params,
                                               p.cluster_name))
            ],
        }

    def _metrics(self):
        snapshot = self.registry.snapshot()
        writer = registry_to_prom(snapshot)
        writer.gauge("repro_serve_live_inflight", self.driver.inflight,
                     help_text="Admitted requests awaiting completion")
        writer.gauge("repro_serve_live_queue_depth",
                     len(self.driver.core.queue),
                     help_text="Pending requests in the admission queue")
        writer.gauge("repro_serve_live_uptime_seconds",
                     self.driver.now())
        text = writer.render()
        return 200, (text.encode(), "text/plain; version=0.0.4")

    def _submission(self, body, kind):
        """Validate a ``/v1/infer`` or ``/v1/generate`` request body.

        Returns ``(tenant, values)`` for a tenant of ``kind``; anything
        else raises :class:`_Refused` before admission: 400 for a body
        that is not a JSON object, a tenant of the other kind, or
        ``values`` that are not at most :attr:`LiveWorkerPool.slots`
        finite numbers; 404 for an unknown tenant; 503 at max inflight.
        """
        try:
            doc = json.loads(body.decode() or "{}")
        except ValueError:
            raise _Refused(400, "body must be JSON") from None
        if not isinstance(doc, dict):
            raise _Refused(400, "body must be a JSON object")
        tenants = self.driver.core.tenants
        tenant = doc.get("tenant")
        if not isinstance(tenant, str) or tenant not in tenants:
            raise _Refused(404, f"unknown tenant {tenant!r}",
                           tenants=sorted(tenants))
        spec = tenants[tenant]
        if spec.kind != kind:
            raise _Refused(400, f"tenant {tenant!r} is kind "
                                f"{spec.kind!r}; POST {_ROUTES[spec.kind]}")
        values = doc.get("values", [])
        # Finite JSON numbers only: bools, NaN, infinities and ints too
        # large for a float all fail the bound.
        if not (isinstance(values, list) and all(
                type(v) in (int, float) and abs(v) <= sys.float_info.max
                for v in values)):
            raise _Refused(400, "values must be a list of finite numbers")
        slots = self.driver.pool.slots
        if len(values) > slots:
            raise _Refused(400, f"values has {len(values)} entries; "
                                f"a request carries at most {slots}")
        if self.driver.inflight >= self.max_inflight:
            _metric_inc("serve.live.overloaded")
            raise _Refused(503, "server at max inflight",
                           max_inflight=self.max_inflight)
        return tenant, values

    async def _infer(self, body):
        tenant, values = self._submission(body, "cnn")
        outcome, future = self.driver.submit(tenant, values)
        if future is None:
            return 429, {"error": "rejected at admission",
                         "outcome": outcome}
        try:
            result = await future
        except asyncio.CancelledError:
            return 503, {"error": "server shutting down"}
        except Exception as exc:  # noqa: BLE001 - surfaced to client
            return 500, {"error": f"inference failed: {exc}"}
        return 200, dict(result, outcome=outcome)

    @staticmethod
    def _chunk(payload):
        """One HTTP/1.1 chunk holding one NDJSON line."""
        line = (json.dumps(payload, sort_keys=True) + "\n").encode()
        return f"{len(line):x}\r\n".encode() + line + b"\r\n"

    async def _generate(self, body, writer):
        """Stream one LLM session as chunked NDJSON.

        Returns ``(status, payload)`` for an admission rejection (the
        caller writes a plain response), or ``None`` after the token
        stream has been written and the connection closed here.
        """
        tenant, values = self._submission(body, "llm")
        outcome, request, stream = self.driver.submit_generate(tenant,
                                                               values)
        if stream is None:
            return 429, {"error": "rejected at admission",
                         "outcome": outcome}
        head = (
            "HTTP/1.1 200\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Transfer-Encoding: chunked\r\n"
            "Connection: close\r\n\r\n"
        ).encode()
        try:
            writer.write(head)
            await writer.drain()
            start = self.driver.now()
            while True:
                event = dict(await stream.get())
                kind = event.pop("event")
                if kind == "aborted":
                    writer.write(self._chunk({
                        "event": "aborted", "tenant": tenant,
                        "session": request.session, **event}))
                    await writer.drain()
                    break
                done = event.pop("done", False)
                writer.write(self._chunk({
                    "event": "token", "tenant": tenant,
                    "session": request.session,
                    "latency_seconds": round(
                        self.driver.now() - start, 6),
                    **event}))
                await writer.drain()
                if done:
                    # The session's single functional CKKS inference
                    # rides in the terminal chunk.
                    loop = asyncio.get_running_loop()
                    try:
                        result = await loop.run_in_executor(
                            self.driver.pool.executor,
                            self.driver.pool.infer,
                            self.driver.take_input(request.id))
                    except Exception as exc:  # noqa: BLE001
                        result = {"error": f"inference failed: {exc}"}
                    writer.write(self._chunk({
                        "event": "done", "tenant": tenant,
                        "session": request.session,
                        "tokens": event.get("of"),
                        "outcome": outcome, **result}))
                    await writer.drain()
                    break
            writer.write(b"0\r\n\r\n")
            await writer.drain()
            writer.close()
        except (ConnectionError, asyncio.CancelledError):
            writer.close()
        return None

    async def _handle(self, reader, writer):
        status, payload, content_type = 500, {"error": "internal"}, None
        try:
            try:
                parsed = await asyncio.wait_for(self._read_request(reader),
                                                _READ_DEADLINE_S)
            except asyncio.TimeoutError:
                raise _Refused(408, f"request not read within "
                                    f"{_READ_DEADLINE_S:g} s") from None
            if parsed is None:
                writer.close()
                return
            method, path, _headers, body = parsed
            if method == "GET" and path == "/healthz":
                status, payload = self._healthz()
            elif method == "GET" and path == "/v1/scenario":
                status, payload = self._scenario()
            elif method == "GET" and path == "/metrics":
                status, (payload, content_type) = self._metrics()
            elif method == "POST" and path == "/v1/infer":
                status, payload = await self._infer(body)
            elif method == "POST" and path == "/v1/generate":
                handled = await self._generate(body, writer)
                if handled is None:
                    return
                status, payload = handled
            elif method == "POST" and path == "/v1/shutdown":
                status, payload = 200, {"status": "shutting down"}
                self.shutdown_event.set()
            else:
                status, payload = 404, {"error": f"no route {path!r}"}
        except _Refused as exc:
            status, payload = exc.status, exc.payload
        except (ConnectionError, asyncio.IncompleteReadError):
            writer.close()
            return
        try:
            writer.write(self._response(
                status, payload,
                content_type=content_type or "application/json"))
            await writer.drain()
            writer.close()
        except ConnectionError:
            pass

    async def serve(self, host, port, ready=None):
        """Bind and serve until ``/v1/shutdown`` (or cancellation).

        ``ready``, if given, is called with this server once the socket
        is listening.
        """
        self._server = await asyncio.start_server(
            self._handle, host, port, limit=_MAX_LINE_BYTES)
        if ready is not None:
            ready(self)
        try:
            await self.shutdown_event.wait()
        finally:
            self._server.close()
            await self._server.wait_closed()

    @property
    def port(self):
        return self._server.sockets[0].getsockname()[1]


def run_live(ref, host="127.0.0.1", port=8377, fleet=None, warm=False,
             warm_workers=2, max_inflight=64, time_scale=1.0, jobs=1,
             cache=None, use_cache=True, out=print, ready=None):
    """Boot the live serving runtime; blocks until shutdown.

    Plans are precompiled for every tenant in the scenario through the
    shared plan store before the socket opens.  ``warm`` additionally
    builds every CKKS worker context up front.  ``ready``, if given, is
    called with the bound :class:`LiveServer` once the socket is
    listening (tests use it to learn the ephemeral port).
    """
    scenario = ref if isinstance(ref, Scenario) else load_scenario(ref)
    fleet_names = list(scenario.fleets)
    fleet_name = fleet if fleet is not None else fleet_names[0]
    if fleet_name not in scenario.fleets:
        raise KeyError(
            f"no fleet {fleet_name!r} in scenario {scenario.name!r}; "
            f"fleets: {fleet_names}"
        )
    out(f"planning service profiles for scenario {scenario.name!r} "
        f"(fleet {fleet_name!r}) ...")
    profiles, manifest = prepare_profiles(
        scenario, [fleet_name], jobs=jobs, cache=cache,
        use_cache=use_cache)
    out(f"plans ready: {manifest.summary()}")
    pool = LiveWorkerPool(size=warm_workers)
    if warm:
        out(f"warming {pool.size} CKKS worker context(s) ...")
        pool.warm()
        out("workers warm")

    registry = MetricsRegistry()
    driver = LiveDriver(scenario, fleet_name, profiles, pool,
                        time_scale=time_scale)
    server = LiveServer(driver, registry, max_inflight=max_inflight)

    def _listening(bound):
        out(f"live serving on http://{host}:{bound.port}  "
            f"(tenants: {', '.join(sorted(driver.core.tenants))})")
        if ready is not None:
            ready(bound)

    async def _main():
        driver.start(asyncio.get_running_loop())
        try:
            await server.serve(host, port, ready=_listening)
        finally:
            driver.stop()

    previous = set_registry(registry)
    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        out("interrupted — shutting down")
    finally:
        set_registry(previous)
        pool.shutdown()
    out("live server stopped")
    return 0
