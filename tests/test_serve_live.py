"""``repro serve --live``: the asyncio driver and the HTTP facade.

The driver tests run the *same* :class:`~repro.serve.EngineCore` the
DES exercises, but under the wall clock — the second half of the
"unit tests drive the core from both drivers" contract
(``tests/test_serve_core.py`` is the fake-clock half).  The HTTP tests
boot a real server on an ephemeral port and answer genuine
encrypt → infer → decrypt requests over localhost.
"""

import asyncio
import json
import re
import socket
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.runtime import SqlitePlanStore
from repro.serve import (
    ADMITTED,
    REJECTED,
    LiveDriver,
    LiveWorkerPool,
    Scenario,
    ServiceProfile,
    TenantSpec,
    run_live,
)
from repro.serve.scenario import BatchConfig, Overheads


def _profile(cluster_name, compute_seconds=2.0, model="resnet18"):
    return ServiceProfile(
        model=model, cluster_name=cluster_name,
        compute_seconds=compute_seconds, ciphertext_bytes=1e6,
        io_bandwidth=16e9, cache_hit=False,
    )


def _scenario(**kw):
    kw.setdefault("name", "live-unit")
    kw.setdefault("duration_seconds", 60.0)
    kw.setdefault("seed", 3)
    kw.setdefault("tenants", (
        TenantSpec(name="demo", model="resnet18", process="uniform",
                   rate_rps=0.5),
    ))
    kw.setdefault("fleets", {"f": ("Hydra-S",)})
    kw.setdefault("batch", BatchConfig(max_requests=2,
                                       window_seconds=0.05))
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


@pytest.fixture(scope="module")
def pool():
    pool = LiveWorkerPool(size=1)
    pool.warm()
    yield pool
    pool.shutdown()


class TestWorkerPool:
    def test_warm_builds_every_context_once(self, pool):
        assert pool.warm() == 1  # idempotent, nothing rebuilt

    def test_warm_primes_the_evaluation_form_caches(self):
        from repro.obs import MetricsRegistry, use_registry
        from repro.serve.live import _WorkerContext

        fresh = LiveWorkerPool(size=1)
        try:
            fresh.warm()
            registry = MetricsRegistry()
            with use_registry(registry):
                reply = fresh.infer([0.1, -0.2, 0.3])
        finally:
            fresh.shutdown()
        # The first request already runs at the warm-worker count; cache
        # fills (7,703 NTTs cold) were paid inside warm().
        ntts = registry.snapshot()["counters"]["math.ntt.calls"]
        assert sum(ntts.values()) == 2467
        # Priming leaves the serving encryptor's randomness alone.
        assert reply == _WorkerContext(0).infer([0.1, -0.2, 0.3])

    def test_inference_matches_plaintext_reference(self, pool):
        result = pool.infer([0.25, -0.5, 0.125])
        assert result["outputs"] == pytest.approx(
            result["plaintext_reference"], abs=1e-3)
        assert result["max_error"] < 1e-3
        assert result["worker"] == 0
        assert result["ciphertext_level"] >= 0


class TestLiveDriver:
    def test_submit_admits_and_answers_encrypted(self, pool):
        scenario = _scenario()
        driver = LiveDriver(scenario, "f", _profiles_for(scenario),
                            pool, time_scale=0.002)

        async def main():
            driver.start(asyncio.get_running_loop())
            outcome, future = driver.submit("demo", [0.25, -0.5])
            assert outcome == ADMITTED
            assert driver.inflight == 1
            result = await asyncio.wait_for(future, 120)
            driver.stop()
            return result

        result = asyncio.run(main())
        assert result["tenant"] == "demo"
        assert result["batch"] == "batch-00000"
        assert result["cluster"] == "Hydra-S#0"
        assert result["outputs"] == pytest.approx(
            result["plaintext_reference"], abs=1e-3)
        assert result["latency_seconds"] > 0
        assert driver.inflight == 0
        assert driver.core.stats["demo"].latency.count == 1

    def test_live_core_rejects_like_the_des(self, pool):
        # Serialized dispatch, one slot, queue of one: the third
        # concurrent submit is shed by the same core logic the DES
        # report counts — only the clock differs.
        scenario = _scenario(
            dispatch="serialized", max_queue=1,
            batch=BatchConfig(max_requests=1, window_seconds=0.0))
        driver = LiveDriver(scenario, "f",
                            _profiles_for(scenario, compute_seconds=60.0),
                            pool)

        async def main():
            driver.start(asyncio.get_running_loop())
            outcomes = [driver.submit("demo", [0.1])[0]
                        for _ in range(3)]
            driver.stop()
            return outcomes

        outcomes = asyncio.run(main())
        assert outcomes == [ADMITTED, ADMITTED, REJECTED]
        stats = driver.core.stats["demo"]
        assert (stats.arrivals, stats.rejected) == (3, 1)


def _http(port, path, method="GET", body=None, timeout=120):
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data, method=method)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, resp.read().decode(), dict(resp.headers)
    except urllib.error.HTTPError as err:
        return err.code, err.read().decode(), dict(err.headers)


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    """One live server on an ephemeral port, shared by the HTTP tests."""
    box = {}
    ready = threading.Event()

    def on_ready(bound):
        box["port"] = bound.port
        ready.set()

    thread = threading.Thread(
        target=run_live,
        kwargs=dict(
            ref=_scenario(), port=0, warm=True, warm_workers=1,
            time_scale=0.002, max_inflight=8,
            cache=SqlitePlanStore(tmp_path_factory.mktemp("plans")),
            out=lambda *_a, **_k: None, ready=on_ready,
        ),
        daemon=True,
    )
    thread.start()
    assert ready.wait(300), "live server never came up"
    yield box["port"]
    _http(box["port"], "/v1/shutdown", method="POST")
    thread.join(timeout=60)
    assert not thread.is_alive()


class TestLiveHTTP:
    def test_healthz(self, server):
        status, body, _ = _http(server, "/healthz")
        doc = json.loads(body)
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["scenario"] == "live-unit"
        assert doc["fleet"] == "f"

    def test_scenario_lists_precompiled_plans(self, server):
        status, body, _ = _http(server, "/v1/scenario")
        doc = json.loads(body)
        assert status == 200
        assert [t["name"] for t in doc["tenants"]] == ["demo"]
        assert doc["plans"], "plans must be precompiled before bind"
        assert doc["plans"][0]["cluster"] == "Hydra-S"
        assert doc["plans"][0]["compute_seconds"] > 0
        # The fields the end-to-end benchmark reads off this document.
        assert "time_scale" in doc
        for plan in doc["plans"]:
            assert set(plan) == {"model", "cluster", "compute_seconds",
                                 "cache_hit"}

    def test_infer_end_to_end(self, server):
        status, body, _ = _http(
            server, "/v1/infer", method="POST",
            body={"tenant": "demo", "values": [0.3, -0.1, 0.2]})
        doc = json.loads(body)
        assert status == 200, body
        assert doc["outcome"] == "admitted"
        assert doc["outputs"] == pytest.approx(
            doc["plaintext_reference"], abs=1e-3)
        assert doc["cluster"] == "Hydra-S#0"
        assert doc["latency_seconds"] > 0

    def test_unknown_tenant_is_404(self, server):
        status, body, _ = _http(server, "/v1/infer", method="POST",
                                body={"tenant": "nope", "values": []})
        assert status == 404
        assert json.loads(body)["tenants"] == ["demo"]

    def test_malformed_body_is_400(self, server):
        request = urllib.request.Request(
            f"http://127.0.0.1:{server}/v1/infer",
            data=b"{not json", method="POST")
        try:
            with urllib.request.urlopen(request, timeout=60) as resp:
                status = resp.status
        except urllib.error.HTTPError as err:
            status = err.code
        assert status == 400

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_malformed_content_length_is_400_then_eof(self, server,
                                                      length):
        with socket.create_connection(("127.0.0.1", server),
                                      timeout=60) as sock:
            sock.sendall(
                f"POST /v1/infer HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {length}\r\n\r\n".encode())
            reply = b""
            while chunk := sock.recv(4096):  # EOF ends the loop
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400\r\n"), reply
        assert length in json.loads(body)["error"]

    def test_unknown_route_is_404(self, server):
        status, _, _ = _http(server, "/nope")
        assert status == 404

    def test_metrics_is_valid_prometheus_text(self, server):
        # At least one inference has run by now (test order within the
        # class); the exposition must carry the serve counters and
        # every sample line must parse.
        _http(server, "/v1/infer", method="POST",
              body={"tenant": "demo", "values": [0.1]})
        status, body, headers = _http(server, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        sample = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*"        # metric name
            r"(\{[^{}]*\})?"                     # optional labels
            r" [-+]?([0-9.eE+-]+|[Ii]nf|NaN)$")  # value
        lines = [ln for ln in body.splitlines() if ln]
        assert lines
        for line in lines:
            if line.startswith("#"):
                assert re.match(r"^# (HELP|TYPE) ", line), line
            else:
                assert sample.match(line), line
        text = "\n".join(lines)
        assert "repro_serve_arrivals" in text
        assert "repro_serve_live_inflight" in text
        assert "repro_serve_live_uptime_seconds" in text

    def test_serve_counters_follow_admitted_replies(self, server):
        # The serve.* series are the core's own tallies, rendered at
        # scrape time: N admitted replies move the tenant's arrivals
        # and completions by exactly N, and the batch count by the
        # batches that carried them.
        def scrape():
            status, body, _ = _http(server, "/metrics")
            assert status == 200
            return body

        def post(value):
            return _http(server, "/v1/infer", method="POST",
                         body={"tenant": "demo", "values": [value]})

        before = scrape()
        values = (0.1, 0.2, 0.3)
        with ThreadPoolExecutor(len(values)) as pool:
            replies = list(pool.map(post, values))
        assert [status for status, _, _ in replies] == [200] * len(values)
        docs = [json.loads(body) for _, body, _ in replies]
        assert {doc["outcome"] for doc in docs} == {"admitted"}
        after = scrape()

        def rise(name, label=""):
            return (_prom_sum(after, name, label)
                    - _prom_sum(before, name, label))

        tenant = 'tenant="demo"'
        assert rise("repro_serve_arrivals", tenant) == len(values)
        assert rise("repro_serve_completed", tenant) == len(values)
        assert rise("repro_serve_batches") == len({doc["batch"]
                                                   for doc in docs})


def _prom_sum(text, name, label=""):
    """Sum of ``name``'s samples whose labels contain ``label``."""
    return sum(float(line.rsplit(None, 1)[1])
               for line in text.splitlines()
               if line.startswith((name + "{", name + " "))
               and label in line)
