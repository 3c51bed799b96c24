"""LLM serving: phase-split profiles, KV sessions, and the v4 report.

Four layers of coverage for ``kind: llm`` tenants:

* graph construction — the autoregressive decode step mirrors the
  prefill block structure at single-token width;
* pure bookkeeping — KV level budgets, recharge cadence, and the seeded
  token-count sampler;
* scenario schema v3 lint — the loader's error vocabulary, and v1/v2
  documents refused as unsupported;
* end-to-end reports — ``repro.serve/v4`` byte-determinism for
  ``llm_mixed`` (in-process and across CLI ``--jobs``/restart/warm-cache
  invocations), the pinned session-affinity result on
  ``llm_chat_hydra_l``, and live chunked token streaming through both
  the asyncio driver and the HTTP facade.
"""

import asyncio
import dataclasses
import json
import os
import subprocess
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro.llm import (
    KV_LEVELS_PER_TOKEN,
    KvSession,
    TokenSampler,
    kv_level_start,
    levels_schedule,
    llm_info,
    phase_model,
    profile_models,
    tokens_between_recharges,
    validate_token_distribution,
)
from repro.models.transformer import bert_base
from repro.runtime import SqlitePlanStore
from repro.serve import (
    ADMITTED,
    LiveDriver,
    LiveWorkerPool,
    Scenario,
    ServiceProfile,
    TenantSpec,
    load_scenario,
    render_report,
    run_live,
    run_scenario,
    validate_serve_report,
)
from repro.serve.dispatch import RoutingConfig
from repro.serve.scenario import BatchConfig, Overheads
from tests.test_serve_conservation import assert_conserved

_PAPER_MAX_LEVEL = 34


# ---------------------------------------------------------------------------
# Decode-phase graph construction


class TestDecodeGraph:
    @pytest.fixture(scope="class")
    def decode(self):
        return phase_model("bert_base#decode")

    @pytest.fixture(scope="class")
    def prefill(self):
        return phase_model("bert_base#prefill")

    def test_decode_mirrors_prefill_block_structure(self, decode, prefill):
        # Same per-layer compute skeleton (4 PCMM + 2 CCMM + 2 nonlinear
        # + 2 norms x 12 layers); only bootstrap placement may differ.
        for kind in ("pcmm", "ccmm", "nonlinear", "norm"):
            assert (len(decode.steps_of_kind(kind))
                    == len(prefill.steps_of_kind(kind))), kind
        assert len(decode.steps_of_kind("pcmm")) == 12 * 4
        assert len(decode.steps_of_kind("ccmm")) == 12 * 2

    def test_decode_activations_fit_one_ciphertext(self, decode, prefill):
        for kind in ("pcmm", "ccmm"):
            assert all(s.output_ciphertexts == 1
                       for s in decode.steps_of_kind(kind))
            assert all(s.output_ciphertexts == 12
                       for s in prefill.steps_of_kind(kind))

    def test_decode_units_are_a_strip_of_the_prefill_block(self, decode,
                                                           prefill):
        # One query token's matmuls cover a 1 x dim strip, so every
        # decode step exposes strictly less parallelism than any
        # prefill step of the same kind.
        for kind in ("pcmm", "ccmm"):
            assert (max(s.units for s in decode.steps_of_kind(kind))
                    < min(s.units for s in prefill.steps_of_kind(kind)))
        info = llm_info("bert_base")
        assert {s.units for s in decode.steps_of_kind("ccmm")} \
            == {info.decode_ccmm_units}

    def test_decode_levels_and_bootstraps(self, decode):
        kinds = [s.kind for s in decode.steps]
        assert "bootstrap" in kinds
        for i, kind in enumerate(kinds[:-1]):
            if kind == "bootstrap":
                assert kinds[i + 1] != "bootstrap"
        for step in decode.steps:
            assert 0 <= step.level <= _PAPER_MAX_LEVEL

    def test_recharge_graph_boots_every_cached_ciphertext(self):
        graph = phase_model("bert_base#recharge")
        assert [s.kind for s in graph.steps] == ["bootstrap"]
        assert graph.steps[0].jobs == llm_info("bert_base").kv_ciphertexts

    def test_prefill_graph_matches_the_benchmark(self, prefill):
        # Same builder and arguments as the Table-I bert_base benchmark;
        # only the graph name is phase-qualified.
        assert list(prefill.steps) == list(bert_base().steps)

    def test_phase_model_rejects_bad_names(self):
        with pytest.raises(KeyError, match="prefill/decode/recharge"):
            phase_model("bert_base#sample")
        with pytest.raises(KeyError, match="prefill/decode/recharge"):
            phase_model("bert_base")
        with pytest.raises(KeyError, match="unknown LLM model"):
            phase_model("gpt2#decode")

    def test_profile_models_qualified_names(self):
        assert profile_models("bert_base") == (
            "bert_base#prefill", "bert_base#decode", "bert_base#recharge")
        with pytest.raises(KeyError, match="resnet18"):
            profile_models("resnet18")


# ---------------------------------------------------------------------------
# KV level budget and token sampling


class TestKvLevelBudget:
    def test_paper_constants(self):
        assert KV_LEVELS_PER_TOKEN == 2
        assert kv_level_start(_PAPER_MAX_LEVEL) == 20
        assert tokens_between_recharges(_PAPER_MAX_LEVEL) == 6
        info = llm_info("bert_base")
        assert info.kv_ciphertexts == 2 * 12 * 12
        assert info.context_tokens == 128
        assert info.tokens_between_recharges == 6
        with pytest.raises(KeyError, match="unknown LLM model"):
            llm_info("resnet18")

    def test_session_recharge_cadence(self):
        session = KvSession(_PAPER_MAX_LEVEL)
        flags = [session.advance() for _ in range(14)]
        # 20 - 2k stays above the threshold for six steps; the seventh
        # would underflow, so it recharges first — and then every six.
        assert flags == [False] * 6 + [True] + [False] * 5 + [True, False]
        assert session.recharges == 2
        assert session.level == kv_level_start(_PAPER_MAX_LEVEL) - 2 * 2

    def test_levels_schedule_rows(self):
        rows = levels_schedule(_PAPER_MAX_LEVEL, 16)
        assert [row["token"] for row in rows] == list(range(1, 17))
        assert rows[0] == {"token": 1, "level_before": 20,
                           "level_after": 20, "recharge": False}
        recharge_tokens = [row["token"] for row in rows if row["recharge"]]
        assert recharge_tokens == [8, 14]
        for row in rows[1:]:
            assert row["level_after"] == row["level_before"] - 2
            assert row["level_after"] >= 0
        with pytest.raises(ValueError, match="tokens"):
            levels_schedule(_PAPER_MAX_LEVEL, 0)


class TestTokenSampling:
    def test_validation_error_messages(self):
        with pytest.raises(ValueError, match="must be an object"):
            validate_token_distribution("t", "prompt_tokens", 7)
        with pytest.raises(ValueError, match="unknown prompt_tokens "
                                             "distribution 'zipf'"):
            validate_token_distribution("t", "prompt_tokens",
                                        {"distribution": "zipf"})
        with pytest.raises(ValueError, match=r"unknown output_tokens "
                                             r"key\(s\) \['mean'\]"):
            validate_token_distribution(
                "t", "output_tokens",
                {"distribution": "fixed", "mean": 4})
        with pytest.raises(ValueError, match="positive integer"):
            validate_token_distribution(
                "t", "prompt_tokens", {"distribution": "fixed", "value": 0})
        with pytest.raises(ValueError, match="min <= max"):
            validate_token_distribution(
                "t", "prompt_tokens",
                {"distribution": "uniform", "min": 9, "max": 3})
        with pytest.raises(ValueError, match="mean must be"):
            validate_token_distribution(
                "t", "output_tokens",
                {"distribution": "geometric", "mean": 0.5})

    def test_draws_are_deterministic_per_tenant(self):
        spec = {"distribution": "uniform", "min": 16, "max": 64}
        out = {"distribution": "geometric", "mean": 8}
        first = TokenSampler("chat", 4242, spec, out)
        again = TokenSampler("chat", 4242, spec, out)
        draws = [(first.next_prompt(), first.next_output())
                 for _ in range(32)]
        assert draws == [(again.next_prompt(), again.next_output())
                         for _ in range(32)]
        other = TokenSampler("other", 4242, spec, out)
        assert draws != [(other.next_prompt(), other.next_output())
                         for _ in range(32)]

    def test_distribution_supports(self):
        fixed = TokenSampler("t", 1, {"distribution": "fixed", "value": 5},
                             {"distribution": "fixed", "value": 2})
        assert {fixed.next_prompt() for _ in range(8)} == {5}
        assert {fixed.next_output() for _ in range(8)} == {2}
        uniform = TokenSampler(
            "t", 1, {"distribution": "uniform", "min": 3, "max": 6}, {})
        prompts = {uniform.next_prompt() for _ in range(200)}
        assert prompts == {3, 4, 5, 6}
        geo = TokenSampler(
            "t", 1, {}, {"distribution": "geometric", "mean": 12})
        draws = [geo.next_output() for _ in range(4000)]
        assert min(draws) >= 1
        assert 10 < sum(draws) / len(draws) < 14


# ---------------------------------------------------------------------------
# Scenario schema v3 lint


def _tenant_doc(**kw):
    doc = {"name": "chat", "model": "bert_base", "kind": "llm",
           "arrival": {"process": "poisson", "rate_rps": 0.01}}
    doc.update(kw)
    return doc


def _scenario_doc(schema="repro.serve.scenario/v3", **kw):
    doc = {
        "schema": schema,
        "name": "lint-unit",
        "duration_seconds": 60.0,
        "seed": 1,
        "fleets": {"f": ["Hydra-S"]},
        "tenants": [_tenant_doc()],
    }
    doc.update(kw)
    return doc


class TestScenarioLint:
    def test_duplicate_tenant_names_are_named(self):
        doc = _scenario_doc(tenants=[_tenant_doc(), _tenant_doc()])
        with pytest.raises(ValueError,
                           match=r"duplicate tenant name\(s\) \['chat'\]"):
            Scenario.from_dict(doc)

    @pytest.mark.parametrize("deadline", [0, -30.0])
    def test_nonpositive_deadline_rejected(self, deadline):
        doc = _scenario_doc(
            tenants=[_tenant_doc(deadline_seconds=deadline)])
        with pytest.raises(ValueError,
                           match="deadline_seconds must be positive"):
            Scenario.from_dict(doc)

    def test_legacy_schemas_are_unsupported(self):
        for legacy in ("repro.serve.scenario/v1",
                       "repro.serve.scenario/v2"):
            doc = _scenario_doc(
                schema=legacy,
                tenants=[{"name": "cnn", "model": "resnet18"}])
            with pytest.raises(ValueError,
                               match="unsupported scenario schema"):
                Scenario.from_dict(doc)

    def test_cnn_tenants_reject_token_specs(self):
        with pytest.raises(ValueError, match="need kind 'llm'"):
            TenantSpec(name="t", model="resnet18",
                       output_tokens=(("distribution", "fixed"),
                                      ("value", 4)))

    def test_llm_tenants_need_a_transformer_model(self):
        with pytest.raises(ValueError, match="needs a transformer model"):
            TenantSpec(name="t", model="resnet18", kind="llm")
        with pytest.raises(ValueError, match="unknown kind"):
            TenantSpec(name="t", model="bert_base", kind="rnn")

    def test_committed_scenarios_lint_clean(self):
        from repro.serve import validate_scenario_files

        rows = validate_scenario_files()
        assert {"llm_chat_hydra_l.json", "llm_mixed.json"} \
            <= {name for name, _ in rows}
        assert [(name, err) for name, err in rows if err is not None] == []

    def test_llm_scenarios_round_trip(self):
        for name in ("llm_chat_hydra_l", "llm_mixed"):
            scenario = load_scenario(name)
            assert Scenario.from_dict(scenario.to_dict()) == scenario
            llm = [t for t in scenario.tenants if t.kind == "llm"]
            assert llm
            for tenant in llm:
                assert tenant.batch_key == (f"{tenant.model}#prefill",
                                            tenant.params)
                assert tenant.profile_models \
                    == profile_models(tenant.model)


# ---------------------------------------------------------------------------
# The levels-per-token analysis report and its CLI


class TestLlmLevelsCli:
    def test_report_and_rendering(self):
        from repro.analysis import llm_levels_report, render_llm_levels

        report = llm_levels_report(tokens=16)
        assert report["schema"] == "repro.llm_levels/v1"
        assert report["recharges"] == 2
        assert report["tokens_between_recharges"] == 6
        assert len(report["schedule"]) == 16
        text = render_llm_levels(report)
        assert "bootstrap recharge" in text
        assert "-2 levels/token" in text

    def test_cli_json_and_errors(self):
        from repro.core.cli import main

        lines = []
        assert main(["llm-levels", "--tokens", "8", "--json"],
                    out=lines.append) == 0
        doc = json.loads("\n".join(lines))
        assert doc["model"] == "bert_base"
        assert doc["kv_ciphertexts"] == 288
        lines.clear()
        assert main(["llm-levels", "--model", "nope"],
                    out=lines.append) == 2
        assert "unknown" in lines[0]

    def test_serve_list_shows_llm_tenants(self):
        from repro.core.cli import main

        lines = []
        assert main(["serve", "--list"], out=lines.append) == 0
        text = "\n".join(lines)
        row = next(line for line in lines if "chat-interactive" in line)
        assert "llm" in row and "bert_base" in row
        assert "llm_mixed" in text and "steady_hydra_m" in text


# ---------------------------------------------------------------------------
# The v4 report: llm_mixed end-to-end


@pytest.fixture(scope="module")
def plan_cache(tmp_path_factory):
    # One shared store: llm_chat_hydra_l's (model, params, cluster) keys
    # are a subset of llm_mixed's, so later runs plan from cache.
    return SqlitePlanStore(tmp_path_factory.mktemp("plans"))


@pytest.fixture(scope="module")
def llm_mixed(plan_cache):
    report, _ = run_scenario("llm_mixed", duration=400.0, cache=plan_cache)
    return report


class TestV4Report:
    def test_llm_blocks_only_on_llm_tenants(self, llm_mixed):
        assert llm_mixed["schema"] == "repro.serve/v4"
        tenants = llm_mixed["fleets"]["mixed"]["tenants"]
        chat, vision = tenants["chat"], tenants["vision"]
        assert "llm" not in vision
        llm = chat["llm"]
        assert llm["sessions_completed"] > 0
        assert llm["tokens"] > 0
        assert llm["decode_steps"] == llm["tokens"] - llm["ttft_seconds"][
            "count"]
        assert llm["ttft_seconds"]["count"] > 0
        assert llm["inter_token_seconds"]["count"] > 0
        assert llm["ttft_seconds"]["p50"] is not None
        assert llm["kv_ciphertexts"] == 288
        assert llm["levels_per_token"] == 2
        assert llm["tokens_between_recharges"] == 6

    def test_default_routing_omits_affinity_flag(self, llm_mixed):
        # session_affinity defaults to True and is only emitted when
        # False — the v3 goldens never see the key.
        assert "session_affinity" not in llm_mixed["routing"]

    def test_report_validates_and_llm_block_is_schema_checked(self,
                                                              llm_mixed):
        validate_serve_report(llm_mixed)
        mutated = json.loads(json.dumps(llm_mixed))
        del mutated["fleets"]["mixed"]["tenants"]["chat"]["llm"]["tokens"]
        with pytest.raises(ValueError, match="tokens"):
            validate_serve_report(mutated)
        extra = json.loads(json.dumps(llm_mixed))
        extra["fleets"]["mixed"]["tenants"]["chat"]["llm"]["x"] = 1
        with pytest.raises(ValueError, match="llm"):
            validate_serve_report(extra)

    def test_in_process_determinism(self, llm_mixed, plan_cache):
        again, _ = run_scenario("llm_mixed", duration=400.0,
                                cache=plan_cache)
        assert (json.dumps(again, sort_keys=True)
                == json.dumps(llm_mixed, sort_keys=True))

    def test_render_shows_token_streaming_table(self, llm_mixed):
        text = render_report(llm_mixed)
        assert "Per-tenant token streaming" in text
        assert "TTFT p50" in text
        assert "Migr" in text

    def test_requests_and_tokens_are_conserved(self, llm_mixed):
        assert_conserved(llm_mixed)


_CLI_ARGS = ["serve", "llm_mixed", "--duration", "400", "--json",
             "--validate"]


def _run_cli(tmp_path, tag, extra, cache_dir):
    out_path = tmp_path / f"report-{tag}.json"
    env = dict(os.environ, PYTHONPATH="src",
               REPRO_CACHE_DIR=str(cache_dir))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *_CLI_ARGS,
         "--out", str(out_path), *extra],
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return out_path.read_bytes()


def test_v4_bytes_survive_jobs_and_restarts(tmp_path):
    cache_a = tmp_path / "cache-a"
    cache_b = tmp_path / "cache-b"
    # Cold serial run, cold parallel-planning run (separate caches so
    # both actually plan), then a restart against the first cache (the
    # pure cache-hit path).
    serial = _run_cli(tmp_path, "serial", [], cache_a)
    parallel = _run_cli(tmp_path, "jobs4", ["--jobs", "4"], cache_b)
    warm = _run_cli(tmp_path, "warm", [], cache_a)
    assert serial == parallel
    assert serial == warm
    report = json.loads(serial)
    assert report["schema"] == "repro.serve/v4"
    tenants = report["fleets"]["mixed"]["tenants"]
    assert "llm" in tenants["chat"]
    assert "llm" not in tenants["vision"]


# ---------------------------------------------------------------------------
# The pinned session-affinity result


@pytest.fixture(scope="module")
def chat_reports(plan_cache):
    scenario = load_scenario("llm_chat_hydra_l")
    affine, _ = run_scenario(scenario, cache=plan_cache)
    blind_routing = RoutingConfig(mode=scenario.routing.mode,
                                  session_affinity=False)
    blind, _ = run_scenario(
        dataclasses.replace(scenario, routing=blind_routing),
        cache=plan_cache)
    return affine, blind


class TestSessionAffinity:
    def test_affine_decode_routing_is_strictly_faster(self, chat_reports):
        """The PR's pinned result: on llm_chat_hydra_l, routing decode
        batches to the cluster holding their KV ciphertexts yields a
        strictly lower mean inter-token latency than affinity-blind
        routing, which pays a KV migration (source-egress transfer +
        delayed staging) whenever the greedy pick lands elsewhere."""
        affine, blind = chat_reports
        for name in ("chat-interactive", "chat-batch"):
            fast = affine["fleets"]["hydra-l"]["tenants"][name]["llm"]
            slow = blind["fleets"]["hydra-l"]["tenants"][name]["llm"]
            assert fast["inter_token_seconds"]["count"] > 0
            assert (fast["inter_token_seconds"]["mean"]
                    < slow["inter_token_seconds"]["mean"]), name

    def test_blind_routing_pays_migrations(self, chat_reports):
        affine, blind = chat_reports
        tenants_a = affine["fleets"]["hydra-l"]["tenants"]
        tenants_b = blind["fleets"]["hydra-l"]["tenants"]
        assert all(tenants_a[n]["llm"]["kv_migrations"] == 0
                   for n in tenants_a)
        assert sum(tenants_b[n]["llm"]["kv_migrations"]
                   for n in tenants_b) > 0

    def test_blind_report_carries_the_affinity_flag(self, chat_reports):
        affine, blind = chat_reports
        assert "session_affinity" not in affine["routing"]
        assert blind["routing"]["session_affinity"] is False
        validate_serve_report(blind)

    def test_both_routings_conserve_requests_and_tokens(self,
                                                        chat_reports):
        for report in chat_reports:
            assert_conserved(report)


# ---------------------------------------------------------------------------
# Live token streaming: the asyncio driver and the HTTP facade


def _llm_scenario(**kw):
    kw.setdefault("name", "live-llm-unit")
    kw.setdefault("duration_seconds", 60.0)
    kw.setdefault("seed", 11)
    kw.setdefault("tenants", (
        TenantSpec(name="gen", model="bert_base", kind="llm",
                   process="uniform", rate_rps=0.25,
                   prompt_tokens=(("distribution", "fixed"), ("value", 8)),
                   output_tokens=(("distribution", "fixed"), ("value", 4))),
    ))
    kw.setdefault("fleets", {"f": ("Hydra-S",)})
    kw.setdefault("batch", BatchConfig(max_requests=1, window_seconds=0.0))
    kw.setdefault("overheads", Overheads(batch_setup_seconds=0.0))
    return Scenario(**kw)


def _llm_profiles(scenario, seconds):
    profiles = {}
    for entries in scenario.fleets.values():
        for entry in entries:
            for tenant in scenario.tenants:
                for model in tenant.profile_models:
                    phase = model.partition("#")[2] or "cnn"
                    profiles[(model, tenant.params, entry)] = ServiceProfile(
                        model=model, params=tenant.params,
                        cluster_name=entry,
                        compute_seconds=seconds[phase],
                        ciphertext_bytes=1e6, io_bandwidth=16e9,
                        cache_hit=False)
    return profiles


class TestLiveDriverStreaming:
    def test_stream_yields_ordered_tokens_then_done(self):
        scenario = _llm_scenario()
        profiles = _llm_profiles(
            scenario, {"prefill": 2.0, "decode": 0.5, "recharge": 0.2})
        driver = LiveDriver(scenario, "f", profiles,
                            LiveWorkerPool(size=1), time_scale=0.01)

        async def main():
            driver.start(asyncio.get_running_loop())
            outcome, request, stream = driver.submit_generate(
                "gen", [0.25, -0.5])
            assert outcome == ADMITTED
            events = []
            while True:
                event = await asyncio.wait_for(stream.get(), 120)
                events.append(event)
                if event.get("done") or event["event"] == "aborted":
                    break
            # The HTTP layer claims the parked input for the session's
            # single functional inference at stream end.
            values = driver.take_input(request.id)
            driver.stop()
            return request, events, values

        request, events, values = asyncio.run(main())
        assert all(e["event"] == "token" for e in events)
        assert [e["token"] for e in events] == [1, 2, 3, 4]
        assert {e["of"] for e in events} == {4}
        times = [e["time_seconds"] for e in events]
        assert times == sorted(times)
        assert [e["done"] for e in events] == [False, False, False, True]
        assert not driver._streams
        stats = driver.core.stats["gen"]
        assert (stats.tokens, stats.decode_steps) == (4, 3)
        assert stats.sessions_completed == 1
        assert values == [0.25, -0.5]

    def test_stopping_the_driver_aborts_open_streams(self):
        scenario = _llm_scenario()
        profiles = _llm_profiles(
            scenario, {"prefill": 600.0, "decode": 60.0, "recharge": 1.0})
        driver = LiveDriver(scenario, "f", profiles,
                            LiveWorkerPool(size=1), time_scale=1.0)

        async def main():
            driver.start(asyncio.get_running_loop())
            outcome, _, stream = driver.submit_generate("gen", [0.1])
            assert outcome == ADMITTED
            driver.stop()
            return await asyncio.wait_for(stream.get(), 10)

        event = asyncio.run(main())
        assert event["event"] == "aborted"


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
def llm_server(tmp_path_factory):
    """A live server fronting one llm tenant on an ephemeral port."""
    box = {}
    ready = threading.Event()

    def on_ready(bound):
        box["port"] = bound.port
        ready.set()

    thread = threading.Thread(
        target=run_live,
        kwargs=dict(
            ref=_llm_scenario(), port=0, warm=True, warm_workers=1,
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


class TestLiveGenerateHTTP:
    def test_generate_streams_ndjson_chunks(self, llm_server):
        status, body, headers = _http(
            llm_server, "/v1/generate", method="POST",
            body={"tenant": "gen", "values": [0.25, -0.5, 0.125]})
        assert status == 200, body
        assert headers["Content-Type"] == "application/x-ndjson"
        assert headers.get("Transfer-Encoding") == "chunked"
        events = [json.loads(line) for line in body.splitlines()]
        tokens, done = events[:-1], events[-1]
        assert len(tokens) >= 3
        assert [e["event"] for e in tokens] == ["token"] * len(tokens)
        assert [e["token"] for e in tokens] == list(range(1, len(tokens)
                                                          + 1))
        latencies = [e["latency_seconds"] for e in tokens]
        assert latencies == sorted(latencies)
        assert done["event"] == "done"
        assert done["tokens"] == len(tokens)
        assert done["outcome"] == "admitted"
        # The terminal chunk carries the session's functional CKKS
        # inference against its plaintext reference.
        assert done["outputs"] == pytest.approx(
            done["plaintext_reference"], abs=1e-3)

    def test_generate_rejects_unknown_tenant(self, llm_server):
        status, body, _ = _http(llm_server, "/v1/generate", method="POST",
                                body={"tenant": "nope", "values": []})
        assert status == 404
        assert json.loads(body)["tenants"] == ["gen"]

    def test_infer_route_refuses_llm_tenants(self, llm_server):
        status, body, _ = _http(llm_server, "/v1/infer", method="POST",
                                body={"tenant": "gen", "values": [0.1]})
        assert status == 400
        assert "/v1/generate" in json.loads(body)["error"]
