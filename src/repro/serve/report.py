"""Deterministic SLO reports (``repro.serve/v3``).

The report answers the questions the paper's serving claims raise:
what latency distribution does each tenant see (p50/p95/p99), how deep
does the admission queue get, how much load is shed, how busy is each
cluster, and what *goodput* — in-deadline completions per second — the
fleet sustains.

v2 is the **streaming** schema: every aggregate is produced by the
bounded-memory aggregators in :mod:`repro.obs.streaming` rather than by
sorting accumulated samples, and each fleet fragment carries windowed
time series — per-tenant arrival/rejection/completion rates and mean
latency, per-cluster busy fraction, queue depth, and SLO burn-rate
against each tenant's deadline budget — over
``telemetry.num_windows`` aligned windows of ``[0, duration)``.
Latency quantiles are nearest-rank within the documented
``relative_accuracy`` bound (exact below the retention limit, or
everywhere under ``--exact``); the v1 per-tenant latency lists and the
unbounded queue-depth series are gone (``--exact`` restores a
downsampled depth series for tests).

v3 adds the **elastic** vocabulary: the report's top level carries the
scenario's routing mode, every cluster row carries its lifecycle
(``active_from`` / ``retired_at`` / ``elastic``) and its integrated
``card_seconds``, each fleet fragment totals card-seconds split into
static and elastic shares (the cost the autoscale-vs-static-peak
comparison minimizes), and fleets with an autoscaler attach an
``autoscale`` fragment — policy, replica band, peak/final replica
counts, and the full scale-event timeline with the policy signal that
drove each action.

v4 adds the **token streaming** vocabulary for ``kind: llm`` tenants:
each LLM tenant row carries an ``llm`` block — time-to-first-token and
inter-token latency sketches (p50/p95/p99) alongside the whole-request
latency, token/session/recharge/migration counters, and the model's KV
level-budget constants.  Scenarios without LLM tenants keep emitting
``repro.serve/v3`` byte-for-byte: the v4 schema string, the ``llm``
blocks, and ``routing.session_affinity`` only appear when the scenario
uses them.

All numbers are simulated-clock quantities; the only wall-clock data
(planning time, cache hits) lives in the run manifest, which is
deliberately *not* part of the report so that report JSON is
byte-identical across serial, ``--jobs N``, and warm-cache invocations.
"""

from __future__ import annotations

import math

from repro.analysis.tables import format_table
from repro.obs.streaming import (
    DEFAULT_EXACT_LIMIT,
    DEFAULT_RELATIVE_ACCURACY,
)

__all__ = [
    "REPORT_SCHEMA",
    "REPORT_SCHEMA_LLM",
    "build_fleet_report",
    "build_report",
    "render_report",
]

REPORT_SCHEMA = "repro.serve/v3"

#: Schema emitted when the scenario has ``kind: llm`` tenants (token
#: streaming vocabulary); CNN-only scenarios stay on v3 so their
#: committed goldens keep their exact bytes.
REPORT_SCHEMA_LLM = "repro.serve/v4"

#: Queue-depth series entries kept in an ``--exact`` report.
_MAX_DEPTH_SAMPLES = 120


def _depth_series(series):
    """Downsample the exact depth series to ``_MAX_DEPTH_SAMPLES``."""
    stride = max(1, math.ceil(len(series) / _MAX_DEPTH_SAMPLES))
    sampled = series[::stride]
    if sampled[-1] != series[-1]:
        sampled.append(series[-1])
    return [[t, depth] for t, depth in sampled]


def _tenant_windows(stats):
    completions = stats.completions_w.counts()
    latency_sums = stats.latency_sum_w.counts()
    latency_mean = [
        (latency_sums[i] / completions[i]) if completions[i] else None
        for i in range(len(completions))
    ]
    return {
        "arrival_rate": stats.arrivals_w.rates(),
        "rejection_rate": stats.rejections_w.rates(),
        "completion_rate": stats.completions_w.rates(),
        "latency_mean": latency_mean,
    }


def _tenant_slo(tenant, stats):
    """SLO burn against the tenant's deadline budget (None = no SLO)."""
    if tenant.deadline_seconds is None:
        return None
    completed = stats.latency.count
    miss_fraction = (stats.deadline_misses / completed) if completed else 0.0
    completions = stats.completions_w.counts()
    misses = stats.misses_w.counts()
    burn_windows = [
        ((misses[i] / completions[i]) / tenant.slo_budget
         if completions[i] else None)
        for i in range(len(completions))
    ]
    return {
        "deadline_seconds": tenant.deadline_seconds,
        "budget": tenant.slo_budget,
        "miss_fraction": miss_fraction,
        "burn_rate": miss_fraction / tenant.slo_budget,
        "windows": {"burn_rate": burn_windows},
    }


def build_fleet_report(engine):
    """Assemble one fleet's report fragment from a finished engine.

    The fragment's ``metrics`` block is the engine's
    :meth:`~repro.serve.EngineCore.counters`.
    """
    scenario = engine.scenario
    horizon = max(scenario.duration_seconds, engine.last_completion)

    clusters = []
    static_card_seconds = 0.0
    elastic_card_seconds = 0.0
    for cluster, stats in zip(engine.clusters, engine.cluster_stats):
        compute_busy = stats.compute_busy
        card_seconds = cluster.card_seconds(horizon)
        if cluster.elastic:
            elastic_card_seconds += card_seconds
        else:
            static_card_seconds += card_seconds
        active_span = cluster.active_until(horizon) - cluster.active_from
        clusters.append({
            "name": cluster.name,
            "replica": cluster.replica,
            "cards": cluster.spec.total_cards,
            "batches": cluster.batches,
            "requests": cluster.requests,
            "compute_busy_seconds": compute_busy,
            "io_busy_seconds": stats.io_union.length,
            "utilization": (compute_busy / active_span
                            if active_span > 0 else 0.0),
            "active_from": cluster.active_from,
            "retired_at": cluster.retired_at,
            "elastic": cluster.elastic,
            "card_seconds": card_seconds,
            "windows": {"busy_fraction": stats.busy_w.means()},
        })

    tenants = {}
    total_completed = 0
    total_good = 0
    total_rejected = 0
    for name in sorted(engine.stats):
        stats = engine.stats[name]
        completed = stats.latency.count
        good = completed - stats.deadline_misses
        total_completed += completed
        total_good += good
        total_rejected += stats.rejected
        tenants[name] = {
            "model": engine.tenants[name].model,
            "arrivals": stats.arrivals,
            "completed": completed,
            "rejected": stats.rejected,
            "deadline_misses": stats.deadline_misses,
            "latency_seconds": stats.latency.summary(),
            "throughput_rps": completed / horizon,
            "goodput_rps": good / horizon,
            "slo": _tenant_slo(engine.tenants[name], stats),
            "windows": _tenant_windows(stats),
        }
        # Warm-up-window rejections get a distinct reason so
        # autoscaling-aware shedding can tell "capacity is coming" from
        # hard capacity exhaustion.  The key is emitted only when the
        # count is nonzero, keeping pre-elastic reports byte-identical.
        if stats.rejected_warming:
            tenants[name]["rejected_warming"] = stats.rejected_warming
        # Token-streaming block, present only for kind: llm tenants —
        # CNN rows (and every pre-LLM golden) are untouched.
        if engine.tenants[name].kind == "llm":
            info = engine.llm_info[engine.tenants[name].model]
            tenants[name]["llm"] = {
                "ttft_seconds": stats.ttft.summary(),
                "inter_token_seconds": stats.inter_token.summary(),
                "tokens": stats.tokens,
                "tokens_per_second": stats.tokens / horizon,
                "decode_steps": stats.decode_steps,
                "recharges": stats.recharges,
                "sessions_completed": stats.sessions_completed,
                "sessions_aborted": stats.sessions_aborted,
                "kv_migrations": stats.kv_migrations,
                "kv_ciphertexts": info.kv_ciphertexts,
                "levels_per_token": info.levels_per_token,
                "tokens_between_recharges": info.tokens_between_recharges,
            }

    engine.depth.finish(horizon)
    queue = {
        "rejected": total_rejected,
        "max_depth": int(engine.depth.max_value),
        "time_weighted_mean_depth": engine.depth.mean(horizon),
        "windows": {"mean_depth": engine.depth.windows.means()},
    }
    if engine.depth_series is not None:
        queue["series"] = _depth_series(engine.depth_series)

    autoscale = None
    if engine.autoscaler is not None:
        config = engine.autoscaler.config
        autoscale = {
            "policy": config.policy,
            "cluster": config.cluster,
            "min_replicas": config.min_replicas,
            "max_replicas": config.max_replicas,
            "initial_replicas": engine.initial_replicas,
            "final_replicas": len(engine._active_elastic()),
            "peak_replicas": engine.peak_replicas,
            "evaluations": engine.autoscaler.evaluations,
            "scale_ups": sum(1 for e in engine.scale_events
                             if e["action"] == "up"),
            "scale_downs": sum(1 for e in engine.scale_events
                               if e["action"] == "down"),
            "events": engine.scale_events,
        }

    recorder = engine.recorder
    first_trigger = recorder.first_trigger
    return {
        "makespan_seconds": horizon,
        "clusters": clusters,
        "tenants": tenants,
        "queue": queue,
        "throughput_rps": total_completed / horizon,
        "goodput_rps": total_good / horizon,
        "card_seconds": {
            "total": static_card_seconds + elastic_card_seconds,
            "static": static_card_seconds,
            "elastic": elastic_card_seconds,
        },
        "autoscale": autoscale,
        "metrics": engine.counters(),
        "flight_recorder": {
            "capacity": recorder.capacity,
            "recorded": recorder.total_recorded,
            "dropped": recorder.dropped,
            "first_trigger": (None if first_trigger is None else {
                "reason": first_trigger[0],
                "time": first_trigger[1],
                "seq": first_trigger[2],
            }),
        },
    }


def build_report(scenario, fleet_names, fleet_reports, exact=False):
    """The full report document for one scenario run.

    Emits ``repro.serve/v4`` when the scenario has LLM tenants and
    ``repro.serve/v3`` otherwise (byte-stability of the committed CNN
    goldens).
    """
    telemetry = scenario.telemetry
    has_llm = any(t.kind == "llm" for t in scenario.tenants)
    return {
        "schema": REPORT_SCHEMA_LLM if has_llm else REPORT_SCHEMA,
        "scenario": scenario.name,
        "seed": scenario.seed,
        "duration_seconds": scenario.duration_seconds,
        "policy": scenario.policy,
        "dispatch": scenario.dispatch,
        "routing": scenario.routing.to_dict(),
        "max_queue": scenario.max_queue,
        "batch": {
            "max_requests": scenario.batch.max_requests,
            "window_seconds": scenario.batch.window_seconds,
        },
        "telemetry": {
            "mode": "exact" if exact else "streaming",
            "relative_accuracy": DEFAULT_RELATIVE_ACCURACY,
            "exact_limit": DEFAULT_EXACT_LIMIT,
            "num_windows": telemetry.num_windows,
            "window_seconds": (scenario.duration_seconds
                               / telemetry.num_windows),
            "recorder_events": telemetry.recorder_events,
        },
        "fleets": {name: fleet_reports[name] for name in fleet_names},
    }


def _fmt_latency(value):
    return "-" if value is None else f"{value:.2f}"


def render_report(report):
    """Human-readable rendering of a ``repro.serve/v3`` report."""
    telemetry = report["telemetry"]
    lines = [
        f"scenario {report['scenario']!r} — policy {report['policy']}, "
        f"dispatch {report['dispatch']}, routing "
        f"{report['routing']['mode']}, seed {report['seed']}, "
        f"{report['duration_seconds']:g} s of simulated arrivals",
        f"telemetry: {telemetry['mode']} "
        f"({telemetry['num_windows']} windows x "
        f"{telemetry['window_seconds']:g} s, quantile error <= "
        f"{100 * telemetry['relative_accuracy']:g}%)",
    ]
    for fleet_name, fleet in report["fleets"].items():
        lines.append("")
        lines.append(
            f"fleet {fleet_name!r}: makespan "
            f"{fleet['makespan_seconds']:.1f} s, throughput "
            f"{fleet['throughput_rps']:.3f} rps, goodput "
            f"{fleet['goodput_rps']:.3f} rps"
        )
        tenant_rows = []
        for name, t in fleet["tenants"].items():
            lat = t["latency_seconds"]
            slo = t["slo"]
            burn = "-" if slo is None else f"{slo['burn_rate']:.2f}"
            tenant_rows.append([
                name, t["model"], t["arrivals"], t["completed"],
                t["rejected"], t["deadline_misses"],
                _fmt_latency(lat["p50"]), _fmt_latency(lat["p95"]),
                _fmt_latency(lat["p99"]),
                f"{t['goodput_rps']:.3f}", burn,
            ])
        lines.append(format_table(
            ["Tenant", "Model", "Arr", "Done", "Rej", "Miss",
             "p50 (s)", "p95 (s)", "p99 (s)", "Goodput", "Burn"],
            tenant_rows,
            title="Per-tenant SLO",
        ))
        llm_rows = []
        for name, t in fleet["tenants"].items():
            llm = t.get("llm")
            if llm is None:
                continue
            ttft = llm["ttft_seconds"]
            itl = llm["inter_token_seconds"]
            llm_rows.append([
                name, llm["tokens"], f"{llm['tokens_per_second']:.3f}",
                _fmt_latency(ttft["p50"]), _fmt_latency(itl["p50"]),
                _fmt_latency(itl["p95"]), _fmt_latency(itl["p99"]),
                llm["sessions_completed"], llm["sessions_aborted"],
                llm["recharges"], llm["kv_migrations"],
            ])
        if llm_rows:
            lines.append(format_table(
                ["Tenant", "Tok", "Tok/s", "TTFT p50", "ITL p50",
                 "ITL p95", "ITL p99", "Sess", "Abort", "Rechg",
                 "Migr"],
                llm_rows,
                title="Per-tenant token streaming",
            ))
        cluster_rows = [
            [f"{c['name']}#{c['replica']}",
             "elastic" if c["elastic"] else "static",
             c["cards"], c["batches"],
             c["requests"], c["compute_busy_seconds"],
             f"{100.0 * c['utilization']:.1f}%",
             c["card_seconds"]]
            for c in fleet["clusters"]
        ]
        lines.append(format_table(
            ["Cluster", "Kind", "Cards", "Batches", "Reqs", "Busy (s)",
             "Util", "Card-s"],
            cluster_rows,
            title="Per-cluster occupancy",
            float_fmt="{:.1f}",
        ))
        card_seconds = fleet["card_seconds"]
        lines.append(
            f"fleet cost: {card_seconds['total']:.1f} card-seconds "
            f"({card_seconds['static']:.1f} static + "
            f"{card_seconds['elastic']:.1f} elastic)"
        )
        autoscale = fleet.get("autoscale")
        if autoscale is not None:
            lines.append(
                f"autoscale: {autoscale['policy']} on "
                f"{autoscale['cluster']} "
                f"[{autoscale['min_replicas']}, "
                f"{autoscale['max_replicas']}], replicas "
                f"{autoscale['initial_replicas']} -> peak "
                f"{autoscale['peak_replicas']} -> final "
                f"{autoscale['final_replicas']} "
                f"({autoscale['scale_ups']} up / "
                f"{autoscale['scale_downs']} down over "
                f"{autoscale['evaluations']} evaluations)"
            )
        queue = fleet["queue"]
        lines.append(
            f"queue: max depth {queue['max_depth']}, mean depth "
            f"{queue['time_weighted_mean_depth']:.2f}, rejected "
            f"{queue['rejected']}"
        )
        recorder = fleet["flight_recorder"]
        trigger = recorder["first_trigger"]
        trigger_text = ("none" if trigger is None else
                        f"{trigger['reason']} at t={trigger['time']:.1f} s")
        lines.append(
            f"flight recorder: {recorder['recorded']} events "
            f"({recorder['dropped']} evicted, ring of "
            f"{recorder['capacity']}), first trigger: {trigger_text}"
        )
    return "\n".join(lines)
