"""One measured pass of a planning or DES workload, in a fresh process.

``run.py`` starts this script once per pass so that every pass pays
the cold costs a new ``repro`` process pays, and nothing a previous
pass cached survives into the next one.  Protocol on stdout:

* ``READY`` once set-up is done (the parent times spawn → ``READY``);
* ``RESULT <json>`` with the pass's timings, output digests and, for a
  traced pass, the per-layer table — the last line.

Everything else goes to stderr.  Usage::

    python worker.py WORKLOAD --seed N [--quick] [--setup-only]
                     [--trace-out TRACE.json]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

#: (system, graph) pairs planned by each planning workload, in order.
PLAN_GRAPHS = {
    # The phase graphs a cold `repro serve llm_chat_hydra_l` plans:
    # 143 decode steps with 32 distinct shapes and ~780k switch-fabric
    # deliveries on Hydra-L, plus the Table II BERT-base cell (prefill
    # is the full encoder) on Hydra-M.
    "plan-llm": [("Hydra-L", "bert_base#decode"),
                 ("Hydra-L", "bert_base#recharge"),
                 ("Hydra-M", "bert_base#prefill")],
    # Low step repetition (37 distinct shapes in 50 steps) on FAB's
    # host-mediated pairwise fabric, plus the Table II ResNet-18 cell.
    "plan-cnn": [("FAB-L", "resnet18"),
                 ("Hydra-M", "resnet18")],
}

#: DES scenarios of the serve-des workload; --quick shortens horizons.
DES_SCENARIOS = ("des_cnn.json", "des_llm.json")
QUICK_HORIZON = 0.1


def canonical_digest(doc):
    """sha256 of the sorted-key, compact JSON form of ``doc``."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def step_shape(step):
    """A step's structural key: every field but its name."""
    import dataclasses

    return tuple(value for key, value in dataclasses.asdict(step).items()
                 if key != "name")


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# planning
# ----------------------------------------------------------------------

def plan_setup():
    from repro.core import HydraSystem
    import repro.llm  # noqa: F401 - phase graphs resolve through it

    return HydraSystem


def plan_op(workload, HydraSystem):
    """Cold-plan every graph of the workload on a fresh system."""
    runs = []
    start = time.perf_counter()
    for system_name, graph in PLAN_GRAPHS[workload]:
        t0 = time.perf_counter()
        result = HydraSystem.named(system_name).run(
            graph, with_energy=False, use_cache=False)
        runs.append((system_name, graph, time.perf_counter() - t0, result))
    op_s = time.perf_counter() - start

    build = getattr(HydraSystem.build_model, "__wrapped__",
                    HydraSystem.build_model)
    plans = {}
    steps = shapes = tasks = 0
    for system_name, graph, seconds, result in runs:
        model = build(HydraSystem.named(system_name), graph)
        steps += len(model.steps)
        shapes += len({step_shape(s) for s in model.steps})
        tasks += sum(n.tasks_executed for n in result.sim.nodes)
        plans[f"{graph}@{system_name}"] = {
            "seconds": seconds,
            "sha256": canonical_digest(result.to_dict()),
            "total_seconds": result.total_seconds,
            "procedure_span": result.procedure_span,
            "bytes_transferred": result.bytes_transferred,
        }
    return {"op_s": op_s, "items": tasks, "plans": plans,
            "steps": steps, "distinct_shapes": shapes}


# ----------------------------------------------------------------------
# serving DES
# ----------------------------------------------------------------------

def des_setup(seed, quick):
    """Load the scenarios and cold-plan their service profiles.

    Returns ``(scenarios, prepare_profiles_s)``.
    """
    from repro.serve import engine
    from repro.serve.scenario import load_scenario

    scenarios = []
    planning = 0.0
    for filename in DES_SCENARIOS:
        scenario = load_scenario(str(BENCH_DIR / "scenarios" / filename))
        duration = scenario.duration_seconds * (QUICK_HORIZON if quick
                                                else 1.0)
        scenario = scenario.override(seed=seed, duration=duration)
        t0 = time.perf_counter()
        profiles, _ = engine.prepare_profiles(scenario)
        planning += time.perf_counter() - t0
        scenarios.append((scenario, profiles))
    return scenarios, planning


def _llm_expected_tokens(scenario, tenant_block, tenant):
    """Σ output tokens the tenant's sessions drew, in creation order."""
    from repro.llm.session import TokenSampler

    sampler = TokenSampler(tenant.name, scenario.seed,
                           tenant.prompt_token_options,
                           tenant.output_token_options)
    total = 0
    for _ in range(tenant_block["arrivals"]):
        sampler.next_prompt()
        total += sampler.next_output()
    return total


def des_op(scenarios):
    """simulate_fleet + build_report over every DES scenario."""
    from repro.serve import engine, report

    timings = []
    reports = []
    for scenario, profiles in scenarios:
        t0 = time.perf_counter()
        fleets = {name: engine.simulate_fleet(scenario, name, profiles)
                  for name in scenario.fleets}
        doc = report.build_report(scenario, list(scenario.fleets), fleets)
        timings.append(time.perf_counter() - t0)
        reports.append(doc)
    op_s = sum(timings)

    out = {"op_s": op_s, "des": {}, "arrivals": 0, "tokens": 0,
           "batches": 0, "batched_requests": 0, "decode_steps": 0}
    for (scenario, _), seconds, doc in zip(scenarios, timings, reports):
        tenants = {t.name: t for t in scenario.tenants}
        rows = []
        arrivals = tokens = 0
        for fleet in doc["fleets"].values():
            counters = fleet["metrics"]
            out["batches"] += sum(counters.get("serve.batches", {}).values())
            out["batched_requests"] += sum(
                counters.get("serve.batched_requests", {}).values())
            for name, block in fleet["tenants"].items():
                row = {k: block[k] for k in ("arrivals", "completed",
                                             "rejected")}
                arrivals += block["arrivals"]
                llm = block.get("llm")
                if llm is not None:
                    row.update({k: llm[k] for k in (
                        "tokens", "decode_steps", "sessions_completed",
                        "sessions_aborted")})
                    row["expected_tokens"] = _llm_expected_tokens(
                        scenario, block, tenants[name])
                    tokens += llm["tokens"]
                    out["decode_steps"] += llm["decode_steps"]
                rows.append(row)
        if any("tokens" in r for r in rows):
            out["tokens"] += tokens
            items = tokens
        else:
            out["arrivals"] += arrivals
            items = arrivals
        out["des"][scenario.name] = {
            "seconds": seconds, "items": items, "seed": scenario.seed,
            "duration_seconds": scenario.duration_seconds,
            "sha256": canonical_digest(doc), "tenants": rows,
        }
    out["items"] = out["arrivals"] + out["tokens"]
    return out


# ----------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=[*PLAN_GRAPHS, "serve-des"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    tracer = None
    setup = {}
    if args.workload == "serve-des":
        state, setup["prepare_profiles_s"] = des_setup(args.seed,
                                                       args.quick)
    else:
        state = plan_setup()
    if args.trace_out:
        from tracer import LayerTracer, install_plan, install_serve

        tracer = LayerTracer()
        install_plan(tracer)
        install_serve(tracer)
    print("READY", flush=True)
    if args.setup_only:
        print("RESULT " + json.dumps({"rss_mb": peak_rss_mb()}), flush=True)
        return 0

    if tracer is None:
        out = _run_op(args.workload, state)
    else:
        from repro.obs import (
            MetricsRegistry,
            Recorder,
            counter_totals,
            use_registry,
            write_chrome_trace,
        )

        registry = MetricsRegistry()
        with Recorder() as recorder, use_registry(registry):
            out = _run_op(args.workload, state)
        program_spans = {}
        for s in recorder.spans:
            row = program_spans.setdefault(s.name, {"calls": 0, "s": 0.0})
            row["calls"] += 1
            row["s"] += s.duration
        out["layers"] = tracer.table()
        out["counters"] = counter_totals(registry.snapshot())
        out["program_spans"] = program_spans
        write_chrome_trace(args.trace_out,
                           spans=tracer.spans + recorder.spans)
    out["rss_mb"] = peak_rss_mb()
    out["setup"] = setup
    print("RESULT " + json.dumps(out, sort_keys=True), flush=True)
    return 0


def _run_op(workload, state):
    if workload == "serve-des":
        return des_op(state)
    return plan_op(workload, state)


if __name__ == "__main__":
    sys.exit(main())
