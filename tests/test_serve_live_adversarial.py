"""Malformed and oversized requests against the live HTTP server, over
raw sockets.

Both request routes share one body parser, which must answer every bad
body with a status line *before* admission: a JSON body that is not an
object, a tenant that is not a string, and ``values`` entries that are
not finite numbers or overflow the worker's slot count.  Every request
is also read under fixed limits: an over-long request or header line
and too many headers get 431, a declared body over the cap gets 413
before any of it is read, and a request that stalls gets 408 at the
read deadline.  After each bad request the server must still answer a
valid ``/v1/infer`` with 200.

The server runs on planned-profile stand-ins (as in
``tests/test_serve_live.py``'s driver tests), so no planning happens and
the only real work is the toy-parameter CKKS inference.
"""

import asyncio
import json
import socket
import threading
import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serve import live as live_module
from repro.serve import (
    LiveDriver,
    LiveServer,
    LiveWorkerPool,
    Scenario,
    ServiceProfile,
    TenantSpec,
)
from repro.serve.scenario import BatchConfig, Overheads

ROUTE_TENANTS = {"/v1/infer": "demo", "/v1/generate": "gen"}


def _scenario():
    return Scenario(
        name="live-adversarial",
        duration_seconds=60.0,
        seed=5,
        tenants=(
            TenantSpec(name="demo", model="resnet18", process="uniform",
                       rate_rps=0.5),
            TenantSpec(name="gen", model="bert_base", kind="llm",
                       process="uniform", rate_rps=0.25,
                       prompt_tokens=(("distribution", "fixed"),
                                      ("value", 4)),
                       output_tokens=(("distribution", "fixed"),
                                      ("value", 2))),
        ),
        fleets={"f": ("Hydra-S",)},
        batch=BatchConfig(max_requests=2, window_seconds=0.02),
        overheads=Overheads(batch_setup_seconds=0.0),
    )


def _profiles(scenario):
    return {
        (model, "Hydra-S"): ServiceProfile(
            model=model, cluster_name="Hydra-S",
            compute_seconds=1.0, ciphertext_bytes=1e6, io_bandwidth=16e9,
            cache_hit=False)
        for tenant in scenario.tenants
        for model in tenant.profile_models
    }


@pytest.fixture(scope="module")
def live():
    """``(port, pool)`` of a live server fronting a cnn and an llm
    tenant."""
    scenario = _scenario()
    pool = LiveWorkerPool(size=1)
    pool.warm()
    driver = LiveDriver(scenario, "f", _profiles(scenario), pool,
                        time_scale=0.002)
    server = LiveServer(driver, MetricsRegistry(), max_inflight=8)

    async def main():
        driver.start(asyncio.get_running_loop())
        try:
            await server.serve("127.0.0.1", 0)
        finally:
            driver.stop()

    thread = threading.Thread(target=asyncio.run, args=(main(),),
                              daemon=True)
    thread.start()
    deadline = time.monotonic() + 60
    while server._server is None:
        assert time.monotonic() < deadline, "live server never came up"
        time.sleep(0.01)
    yield server.port, pool
    _post(server.port, "/v1/shutdown", b"")
    thread.join(timeout=60)
    assert not thread.is_alive()
    pool.shutdown()


def _exchange(port, request):
    """Send raw ``request`` bytes; ``(status, reply body)`` after EOF."""
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        sock.sendall(request)
        reply = b""
        while chunk := sock.recv(4096):  # EOF ends the loop
            reply += chunk
    head, _, payload = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 "), f"no status line: {reply!r}"
    return int(head.split()[1]), payload


def _post(port, path, body):
    """POST raw ``body`` bytes; ``(status, reply body)`` after EOF."""
    return _exchange(port, f"POST {path} HTTP/1.1\r\nHost: x\r\n"
                           f"Content-Length: {len(body)}\r\n\r\n".encode()
                     + body)


def _valid_infer(port, values=(0.1, -0.2, 0.3)):
    body = json.dumps({"tenant": "demo", "values": list(values)})
    return _post(port, "/v1/infer", body.encode())


#: case -> (body template with {tenant}, expected status)
BAD_BODIES = {
    "array": (b"[1, 2]", 400),
    "string": (b'"x"', 400),
    "number": (b"7", 400),
    "tenant-is-a-list": (b'{"tenant": [1]}', 404),
    "string-value": (b'{"tenant": "{tenant}", "values": ["a"]}', 400),
    "bool-value": (b'{"tenant": "{tenant}", "values": [true]}', 400),
    "nan-value": (b'{"tenant": "{tenant}", "values": [NaN]}', 400),
    "overflow-value": (b'{"tenant": "{tenant}", "values": [1e400]}', 400),
    "huge-int-value": (b'{"tenant": "{tenant}", "values": [1'
                       + b"0" * 400 + b"]}", 400),
}


@pytest.mark.parametrize("route", sorted(ROUTE_TENANTS))
@pytest.mark.parametrize("case", sorted(BAD_BODIES))
def test_bad_body_is_refused_and_server_survives(live, route, case):
    port, _ = live
    template, expected = BAD_BODIES[case]
    body = template.replace(b"{tenant}", ROUTE_TENANTS[route].encode())
    status, payload = _post(port, route, body)
    assert status == expected, payload
    assert "error" in json.loads(payload)
    status, payload = _valid_infer(port)
    assert status == 200, payload


@pytest.mark.parametrize("route", sorted(ROUTE_TENANTS))
def test_values_past_the_slot_count_are_refused(live, route):
    port, pool = live
    slots = pool.slots
    body = json.dumps({"tenant": ROUTE_TENANTS[route],
                       "values": [0.01] * (slots + 1)})
    status, payload = _post(port, route, body.encode())
    assert status == 400
    assert str(slots) in json.loads(payload)["error"]
    status, payload = _valid_infer(port)
    assert status == 200, payload


def test_a_full_slot_vector_is_served(live):
    port, pool = live
    status, payload = _valid_infer(port, [0.01] * pool.slots)
    assert status == 200, payload
    doc = json.loads(payload)
    assert doc["outputs"] == pytest.approx(doc["plaintext_reference"],
                                           abs=1e-3)


_LINE = live_module._MAX_LINE_BYTES

#: case -> (raw request, expected status)
OVER_LIMIT = {
    "long-request-line": (
        b"GET /" + b"a" * _LINE + b" HTTP/1.1\r\n\r\n", 431),
    "long-header-line": (
        b"POST /v1/infer HTTP/1.1\r\nX-Pad: " + b"a" * _LINE
        + b"\r\nContent-Length: 0\r\n\r\n", 431),
    "too-many-headers": (
        b"GET /healthz HTTP/1.1\r\n"
        + b"".join(b"X-H%d: v\r\n" % i
                   for i in range(live_module._MAX_HEADERS + 1))
        + b"\r\n", 431),
    "body-over-the-cap": (
        b"POST /v1/infer HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
        % (live_module._MAX_BODY_BYTES + 1), 413),
    "terabyte-content-length": (
        b"POST /v1/infer HTTP/1.1\r\n"
        b"Content-Length: 1000000000000\r\n\r\n", 413),
}


@pytest.mark.parametrize("case", sorted(OVER_LIMIT))
def test_over_limit_request_is_refused_and_server_survives(live, case):
    port, _ = live
    request, expected = OVER_LIMIT[case]
    status, payload = _exchange(port, request)
    assert status == expected, payload
    assert "error" in json.loads(payload)
    status, payload = _valid_infer(port)
    assert status == 200, payload


def test_lines_and_headers_under_the_caps_are_served(live):
    port, _ = live
    body = json.dumps({"tenant": "demo", "values": [0.1]}).encode()
    pad = b"a" * (_LINE - 16)
    headers = b"".join(b"X-H%d: v\r\n" % i
                       for i in range(live_module._MAX_HEADERS - 2))
    status, payload = _exchange(
        port, b"POST /v1/infer HTTP/1.1\r\nX-Pad: " + pad + b"\r\n"
        + headers + b"Content-Length: %d\r\n\r\n" % len(body) + body)
    assert status == 200, payload


#: case -> bytes a client sends before going quiet
STALLED = {
    "nothing": b"",
    "request-line-only": b"POST /v1/infer HTTP/1.1\r\n",
    "short-body": (b"POST /v1/infer HTTP/1.1\r\n"
                   b"Content-Length: 10\r\n\r\n{}"),
}


@pytest.mark.parametrize("case", sorted(STALLED))
def test_stalled_request_times_out_and_server_survives(live, monkeypatch,
                                                       case):
    port, _ = live
    monkeypatch.setattr(live_module, "_READ_DEADLINE_S", 0.5)
    status, payload = _exchange(port, STALLED[case])
    assert status == 408, payload
    assert "error" in json.loads(payload)
    status, payload = _valid_infer(port)
    assert status == 200, payload
