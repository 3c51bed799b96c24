"""Multi-tenant FHE inference *serving* simulation (``repro serve``).

The paper's headline numbers — Table V throughput, Figure 9 scalability,
and the Procedure-2 multi-server schedule — are all about *sustained*
ciphertext inference, not one cold end-to-end run.  This package layers a
discrete-event serving simulation above :mod:`repro.sim`, in the same
simulated clock domain:

* :mod:`repro.serve.scenario` — declarative scenario files: tenants
  (each bound to a model + a seeded arrival process), fleets of
  simulated clusters, queueing/batching/telemetry knobs;
* :mod:`repro.serve.arrivals` — deterministic open-loop request
  generators (Poisson or fixed-spacing, seeded per tenant, lazily
  iterated so the event loop never materializes the horizon);
* :mod:`repro.serve.queueing` — the admission front-end: bounded queues
  with explicit rejection and pluggable ordering policies (FIFO,
  per-tenant fair share, earliest-deadline-first);
* :mod:`repro.serve.dispatch` — service profiles (planned once per
  (model, cluster) through the :mod:`repro.runtime` cache) and
  the fleet dispatcher that extends the Procedure-2 contract across
  clusters with *pipelined occupancy* (a cluster stages the next batch
  in while the previous one computes or drains) and SLO-aware routing
  across heterogeneous shapes;
* :mod:`repro.serve.autoscale` — pluggable elastic-scaling policies
  (queue depth, SLO burn rate) with warm-up and hysteresis, driven by
  the engine on a fixed simulated-time interval;
* :mod:`repro.serve.engine` — the event loop tying it together, plus
  :func:`run_scenario`, the one-call entry point behind the CLI; all
  telemetry streams through the bounded aggregators of
  :mod:`repro.obs.streaming` and a :class:`~repro.obs.FlightRecorder`
  event ring, so memory is independent of the request horizon;
* :mod:`repro.serve.report` — the deterministic ``repro.serve/v3`` SLO
  report (per-tenant p50/p95/p99 latency within a documented error
  bound, windowed rate/latency/utilization/burn-rate series, queue
  depth, goodput, card-second fleet cost, scale-event timelines);
* :mod:`repro.serve.capacity` — ``repro capacity``: binary-search the
  minimum (shape, replicas) fleet holding every tenant's SLO, emitted
  as a deterministic ``repro.capacity/v1`` plan CI diffs against a
  committed golden;
* :mod:`repro.serve.telemetry` — ``--telemetry-out`` artifact export:
  Prometheus text exposition + flight-recorder JSONL + the report;
* :mod:`repro.serve.schema` — the ``repro.serve/v3`` report and
  ``repro.capacity/v1`` plan schemas with a dependency-free validator
  (the CI gate).

Everything is bit-deterministic for a given scenario + seed: the same
invocation produces byte-identical JSON whether service profiles are
planned serially, fanned out over ``--jobs N`` workers, or served from
the persistent disk cache of a previous process.
"""

from repro.serve.arrivals import generate_arrivals, iter_arrivals
from repro.serve.autoscale import (
    AUTOSCALE_POLICIES,
    AutoscaleConfig,
    Autoscaler,
    make_autoscale_policy,
)
from repro.serve.capacity import (
    compare_capacity_reports,
    plan_capacity,
    render_capacity_report,
)
from repro.serve.dispatch import (
    ClusterState,
    RoutingConfig,
    ServiceProfile,
    select_cluster,
)
from repro.serve.core import (
    ADMITTED,
    REJECTED,
    REJECTED_WARMING,
    EngineCore,
)
from repro.serve.engine import (
    SimDriver,
    prepare_profiles,
    run_scenario,
    simulate_fleet,
)
from repro.serve.live import (
    LiveDriver,
    LiveServer,
    LiveWorkerPool,
    run_live,
)
from repro.serve.queueing import (
    POLICIES,
    AdmissionQueue,
    Request,
    make_policy,
)
from repro.serve.report import (
    REPORT_SCHEMA,
    REPORT_SCHEMA_LLM,
    render_report,
)
from repro.serve.scenario import (
    BatchConfig,
    Overheads,
    Scenario,
    TelemetryConfig,
    TenantSpec,
    builtin_scenarios,
    load_scenario,
    resolve_fleet_cluster,
    validate_scenario_files,
)
from repro.serve.schema import (
    CAPACITY_SCHEMA_PATH,
    REPORT_SCHEMA_PATH,
    validate_capacity_report,
    validate_serve_report,
)
from repro.serve.telemetry import serve_prom_text, write_telemetry

__all__ = [
    "ADMITTED",
    "AUTOSCALE_POLICIES",
    "CAPACITY_SCHEMA_PATH",
    "POLICIES",
    "REJECTED",
    "REJECTED_WARMING",
    "REPORT_SCHEMA",
    "REPORT_SCHEMA_LLM",
    "REPORT_SCHEMA_PATH",
    "AdmissionQueue",
    "EngineCore",
    "LiveDriver",
    "LiveServer",
    "LiveWorkerPool",
    "SimDriver",
    "AutoscaleConfig",
    "Autoscaler",
    "BatchConfig",
    "ClusterState",
    "Overheads",
    "Request",
    "RoutingConfig",
    "Scenario",
    "ServiceProfile",
    "TelemetryConfig",
    "TenantSpec",
    "builtin_scenarios",
    "compare_capacity_reports",
    "generate_arrivals",
    "iter_arrivals",
    "load_scenario",
    "make_autoscale_policy",
    "make_policy",
    "plan_capacity",
    "prepare_profiles",
    "render_capacity_report",
    "render_report",
    "resolve_fleet_cluster",
    "run_live",
    "run_scenario",
    "select_cluster",
    "serve_prom_text",
    "simulate_fleet",
    "validate_capacity_report",
    "validate_scenario_files",
    "validate_serve_report",
    "write_telemetry",
]
