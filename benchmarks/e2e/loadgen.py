"""HTTP load for the live-mixed workload: stdlib asyncio, ≤2 connections.

Three phases against one server:

* ``open`` — an open loop: ``/v1/infer`` requests for the ``vision``
  tenant and ``/v1/generate`` sessions for the ``chat`` tenant, each sent
  when due whatever the server is doing and timed from its due time, so
  a stall also counts against the requests queued behind it.  How late
  the generator itself ran is recorded separately.  Both streams are
  evenly spaced at seeded phases: a run holds only about a dozen vision
  requests, and two that meet share the GIL-bound CKKS workers and take
  ~3x longer, so with Poisson spacing the median flipped between the
  two cases from seed to seed.
* ``closed`` — one client sending the next ``/v1/infer`` as soon as the
  previous reply arrives: the serial request rate.
* ``contended`` — two such clients, so both CKKS workers run at once.
  How fast that goes depends on how the OS places the two threads that
  hand the GIL back and forth on the two cores; it moved by ±20% from
  run to run (and doubled with the server pinned to one core), so it is
  reported but not gated.

A closed-loop rate is the client count over the median reply time
(Little's law), which one slow reply cannot move the way it moves a
count over a few seconds.  One semaphore caps the process at
``MAX_CONNECTIONS`` open connections.

Every response is checked: status 200, admitted, decrypted outputs
within ``MAX_ERROR`` of the plaintext reference; a token stream must
deliver tokens ``1..n`` in order and end with a ``done`` chunk.
"""

from __future__ import annotations

import asyncio
import json
import random
import statistics

MAX_CONNECTIONS = 2
MAX_ERROR = 1e-3
REQUEST_TIMEOUT = 60.0
VALUES_PER_REQUEST = 8
PHASES = ("open", "closed", "contended")


class HttpError(Exception):
    """A response that could not be read as HTTP/1.1."""


async def _exchange(host, port, method, path, payload, on_chunk):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = b"" if payload is None else json.dumps(payload).encode()
        writer.write((
            f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
        ).encode() + body)
        await writer.drain()
        parts = (await reader.readline()).split()
        if len(parts) < 2 or not parts[1].isdigit():
            raise HttpError(f"bad status line {parts!r}")
        status = int(parts[1])
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            key, _, value = line.decode("latin-1").partition(":")
            headers[key.strip().lower()] = value.strip()
        if headers.get("transfer-encoding") != "chunked":
            return status, await reader.read()
        while True:
            size = int((await reader.readline()).strip() or b"0", 16)
            if size == 0:
                return status, None
            data = await reader.readexactly(size)
            await reader.readexactly(2)
            on_chunk(json.loads(data))
    finally:
        writer.close()


async def request(host, port, method, path, payload=None, on_chunk=None):
    """One request on its own connection; returns ``(status, body)``.

    A chunked body is handed to ``on_chunk`` one decoded NDJSON line at
    a time, and ``body`` is None.
    """
    return await asyncio.wait_for(
        _exchange(host, port, method, path, payload, on_chunk),
        REQUEST_TIMEOUT)


def _spaced(rng, rate, duration):
    times, t = [], rng.uniform(0.0, 1.0 / rate)
    while t < duration:
        times.append(t)
        t += 1.0 / rate
    return times


def _values(rng):
    return [round(rng.uniform(-0.5, 0.5), 6)
            for _ in range(VALUES_PER_REQUEST)]


def _check_infer(status, body):
    """``(ok, doc)`` for one ``/v1/infer`` reply."""
    try:
        doc = json.loads(body)
    except ValueError:
        return False, None
    ok = (status == 200 and doc.get("outcome") == "admitted"
          and doc.get("max_error", float("inf")) <= MAX_ERROR)
    return ok, doc


class LoadResult:
    """Everything one live load run observed, in seconds."""

    def __init__(self):
        self.infer = []        # open loop: (from due, client, server)
        self.replies = {"closed": [], "contended": []}
        self.ttft = []         # first token, from the session's due time
        self.itl = []          # gaps between consecutive token chunks
        self.late = []         # send time minus due time, open loop
        self.phases = {p: {"sent": 0, "ok": 0, "failed": 0}
                       for p in PHASES}
        self.errors = []
        self.scenario = {}     # GET /v1/scenario, before the load
        self.metrics_text = ""  # GET /metrics, after the load
        self.wall = 0.0        # all phases

    def count(self, phase, ok, detail=None):
        self.phases[phase]["sent"] += 1
        self.phases[phase]["ok" if ok else "failed"] += 1
        if not ok:
            self.errors.append(f"{phase}: {detail}")

    def rate(self, phase, clients):
        """Closed-loop replies per second: clients / median reply."""
        replies = self.replies[phase]
        return clients / statistics.median(replies) if replies else 0.0


async def _open_infer(host, port, due, values, result, loop, sem):
    async with sem:
        start = loop.time()
        result.late.append(start - due)
        try:
            status, body = await request(host, port, "POST", "/v1/infer",
                                         {"tenant": "vision",
                                          "values": values})
        except (OSError, asyncio.TimeoutError, HttpError) as exc:
            result.count("open", False, f"infer: {exc!r}")
            return
        end = loop.time()
    ok, doc = _check_infer(status, body)
    if not ok:
        result.count("open", False, f"infer {status}: {body[:200]!r}")
        return
    result.count("open", True)
    result.infer.append((end - due, end - start, doc["latency_seconds"]))


async def _open_generate(host, port, due, values, result, loop, sem):
    chunks = []

    def on_chunk(doc):
        chunks.append((loop.time(), doc))

    async with sem:
        result.late.append(loop.time() - due)
        try:
            status, _ = await request(host, port, "POST", "/v1/generate",
                                      {"tenant": "chat", "values": values},
                                      on_chunk=on_chunk)
        except (OSError, asyncio.TimeoutError, HttpError) as exc:
            result.count("open", False, f"generate: {exc!r}")
            return
    tokens = [(t, d) for t, d in chunks if d.get("event") == "token"]
    done = [d for _, d in chunks if d.get("event") == "done"]
    total = tokens[0][1].get("of") or 0 if tokens else 0
    ok = (status == 200 and tokens
          and [d["token"] for _, d in tokens] == list(range(1, total + 1))
          and len(done) == 1 and chunks[-1][1] is done[0]
          and done[0].get("max_error", float("inf")) <= MAX_ERROR)
    if not ok:
        result.count("open", False,
                      f"generate {status}: {[d for _, d in chunks][-2:]!r}")
        return
    result.count("open", True)
    result.ttft.append(tokens[0][0] - due)
    result.itl.extend(b[0] - a[0] for a, b in zip(tokens, tokens[1:]))


async def _closed_client(host, port, phase, rng, end, result, loop, sem):
    while loop.time() < end:
        async with sem:
            start = loop.time()
            try:
                status, body = await request(
                    host, port, "POST", "/v1/infer",
                    {"tenant": "vision", "values": _values(rng)})
            except (OSError, asyncio.TimeoutError, HttpError) as exc:
                result.count(phase, False, f"infer: {exc!r}")
                continue
            done = loop.time()
        ok, _ = _check_infer(status, body)
        if not ok:
            result.count(phase, False, f"infer {status}: {body[:200]!r}")
            continue
        result.count(phase, True)
        result.replies[phase].append(done - start)


async def _run(host, port, seed, durations, vision_rps, chat_rps):
    loop = asyncio.get_running_loop()
    rng = random.Random(seed)
    sem = asyncio.Semaphore(MAX_CONNECTIONS)
    result = LoadResult()

    status, body = await request(host, port, "GET", "/v1/scenario")
    if status != 200:
        raise HttpError(f"GET /v1/scenario returned {status}")
    result.scenario = json.loads(body)

    open_s, closed_s, contended_s = durations
    t0 = loop.time()
    tasks = []
    for kind, rate in ((_open_infer, vision_rps), (_open_generate, chat_rps)):
        for offset in _spaced(rng, rate, open_s):
            tasks.append((t0 + offset, kind, _values(rng)))

    async def fire(due, kind, values):
        await asyncio.sleep(max(0.0, due - loop.time()))
        await kind(host, port, due, values, result, loop, sem)

    await asyncio.gather(*(fire(*t) for t in tasks))

    for phase, clients, seconds in (("closed", 1, closed_s),
                                    ("contended", 2, contended_s)):
        end = loop.time() + seconds
        await asyncio.gather(*(
            _closed_client(host, port, phase, random.Random(rng.random()),
                           end, result, loop, sem)
            for _ in range(clients)))
    result.wall = loop.time() - t0

    status, body = await request(host, port, "GET", "/metrics")
    if status == 200:
        result.metrics_text = body.decode()
    return result


def run_load(host, port, seed, durations, vision_rps=1.0, chat_rps=0.15):
    """Drive the open, closed and contended phases (``durations``, in
    seconds) against a live server; returns a :class:`LoadResult`."""
    return asyncio.run(_run(host, port, seed, durations, vision_rps,
                            chat_rps))


def shutdown(host, port):
    """POST /v1/shutdown; returns the status (None if unreachable)."""
    async def _go():
        status, _ = await request(host, port, "POST", "/v1/shutdown")
        return status

    try:
        return asyncio.run(_go())
    except (OSError, asyncio.TimeoutError, HttpError):
        return None


def prom_total(text, name):
    """Sum of every sample of metric ``name`` in Prometheus text."""
    total = 0.0
    for line in text.splitlines():
        if line.startswith((name + "{", name + " ")):
            total += float(line.rsplit(None, 1)[1])
    return total
