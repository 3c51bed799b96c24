"""Telemetry artifact export: ``metrics.prom`` + ``events.jsonl`` + report.

``repro serve <scenario> --telemetry-out dir/`` lands three files:

* ``report.json`` — the full ``repro.serve/v3`` document
  (``repro.serve/v4`` for scenarios with LLM tenants);
* ``metrics.prom`` — Prometheus text-exposition rendering of the run's
  counters and per-tenant latency summaries (every series labeled with
  its fleet), consumable by any Prometheus-compatible scraper or
  ``promtool`` without a client library;
* ``events.jsonl`` — the flight recorders' retained event windows as
  canonical JSON lines, each stamped with its fleet.

All three are derived purely from simulated-clock state, so reruns of
the same scenario + seed reproduce them byte-for-byte.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.prom import PromWriter, _parse_label_key

__all__ = ["serve_prom_text", "write_telemetry"]

_COUNTER_HELP = {
    "serve.arrivals": "Requests offered per tenant",
    "serve.rejected": "Requests shed at admission per tenant",
    "serve.completed": "Requests completed per tenant",
    "serve.deadline_miss": "Completions past their deadline per tenant",
    "serve.batches": "Batches dispatched per cluster",
    "serve.batched_requests": "Requests coalesced into batches per cluster",
    "serve.scale_up": "Elastic replicas added by the autoscaler",
    "serve.scale_down": "Elastic replicas retired by the autoscaler",
}


def serve_prom_text(report, prefix="repro_"):
    """Render a ``repro.serve/v3``/``v4`` report as Prometheus text.

    Counters come from each fleet fragment's ``metrics`` section;
    per-tenant latency distributions become prom summaries (quantile
    series within the report's documented accuracy), and headline
    gauges (throughput, goodput, utilization, queue depth) ride along.
    """
    writer = PromWriter()
    for fleet_name in sorted(report["fleets"]):
        fleet = report["fleets"][fleet_name]
        base = {"fleet": fleet_name}
        for name, series in sorted(fleet["metrics"].items()):
            for label_key, value in sorted(series.items()):
                labels = dict(base, **_parse_label_key(label_key))
                writer.counter(prefix + name, value, labels=labels,
                               help_text=_COUNTER_HELP.get(name, ""))
        writer.gauge(prefix + "serve.throughput_rps",
                     fleet["throughput_rps"], labels=base,
                     help_text="Completions per second over the horizon")
        writer.gauge(prefix + "serve.goodput_rps", fleet["goodput_rps"],
                     labels=base,
                     help_text="In-deadline completions per second")
        writer.gauge(prefix + "serve.queue_max_depth",
                     fleet["queue"]["max_depth"], labels=base)
        writer.gauge(prefix + "serve.queue_mean_depth",
                     fleet["queue"]["time_weighted_mean_depth"],
                     labels=base)
        for cluster in fleet["clusters"]:
            labels = dict(base,
                          cluster=f"{cluster['name']}#{cluster['replica']}")
            writer.gauge(prefix + "serve.cluster_utilization",
                         cluster["utilization"], labels=labels,
                         help_text="Compute-busy fraction of the horizon")
        for tenant_name in sorted(fleet["tenants"]):
            tenant = fleet["tenants"][tenant_name]
            labels = dict(base, tenant=tenant_name)
            latency = tenant["latency_seconds"]
            if latency["count"]:
                quantiles = {0.5: latency["p50"], 0.95: latency["p95"],
                             0.99: latency["p99"]}
                writer.summary(
                    prefix + "serve.latency_seconds",
                    count=latency["count"],
                    total=latency["mean"] * latency["count"],
                    quantiles=quantiles, labels=labels,
                    help_text="Per-tenant end-to-end latency")
            if tenant["slo"] is not None:
                writer.gauge(prefix + "serve.slo_burn_rate",
                             tenant["slo"]["burn_rate"], labels=labels,
                             help_text="Deadline-miss fraction over the "
                                       "tenant's error budget")
    return writer.render()


def write_telemetry(report, recorders, out_dir):
    """Write ``report.json`` / ``metrics.prom`` / ``events.jsonl``.

    ``recorders`` maps fleet name -> :class:`~repro.obs.FlightRecorder`
    (as filled in by ``run_scenario(recorders={})``).  Returns the three
    paths written, in that order.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "report.json"
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    prom_path = out_dir / "metrics.prom"
    prom_path.write_text(serve_prom_text(report), encoding="utf-8")
    events_path = out_dir / "events.jsonl"
    with open(events_path, "w", encoding="utf-8") as fh:
        for fleet_name in sorted(recorders):
            fh.write(recorders[fleet_name].to_jsonl(
                extra_fields={"fleet": fleet_name}))
    return report_path, prom_path, events_path
