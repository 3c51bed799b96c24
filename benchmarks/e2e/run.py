#!/usr/bin/env python3
"""End-to-end benchmark of the Hydra reproduction, run from outside it.

Four workloads (see README.md for why each exists):

* ``plan-llm``   — cold plans of the bert_base decode/recharge graphs on
  Hydra-L (and the prefill graph on Hydra-M);
* ``plan-cnn``   — cold plans of resnet18 on FAB-L and on Hydra-M;
* ``serve-des``  — the serving DES over a CNN and an LLM scenario;
* ``live-mixed`` — ``repro serve --live`` under open- and closed-loop
  HTTP load with real CKKS inference.

Every pass runs in a fresh process with ``PYTHONHASHSEED=0``, an empty
temporary ``REPRO_CACHE_DIR`` and the default kernel backend, and every
output is checked against ``expected.json`` or a conservation law.
Usage::

    python3 benchmarks/e2e/run.py --workload plan-llm --seed 3 \\
        --seconds 15 --trace 0
    python3 benchmarks/e2e/run.py --out r.json     # every workload
    python3 benchmarks/e2e/run.py --quick          # smoke run, ~1 min
    python3 benchmarks/e2e/run.py --write-expected # re-pin outputs

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` — the ``end_to_end`` metrics
of ``BENCHMARK.json``, or its ``per_layer`` metrics with ``--trace 1``.
A failed output check prints that line with ``correct: false`` and
exits 1; a benchmark that cannot run exits non-zero without it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
WORK_DIR = ROOT / ".e2e_bench"
sys.path.insert(0, str(BENCH_DIR))

import loadgen  # noqa: E402

WORKLOADS = ("plan-llm", "plan-cnn", "serve-des", "live-mixed")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 25
#: set-up is repeated at least this often per run; the median is kept
SETUP_SAMPLES = 3
#: a pass that has not finished by then is killed (runs must end < 180 s)
PASS_TIMEOUT = 150.0

LIVE_SCENARIO = BENCH_DIR / "scenarios" / "live_mixed.json"
LIVE_READY = "live serving on http://"
TIME_SCALE = 0.01
#: live load phases (open, closed, contended) as shares of --seconds;
#: only traced passes run the ungated two-client "contended" phase
LIVE_PHASES = (0.6, 0.4, 0.25)
#: --quick, in seconds: long enough for one chat session at 0.15/s
QUICK_LIVE_PHASES = (7.0, 2.0, 2.0)

#: EXPERIMENTS.md Table II paper cells (seconds) for the graphs the
#: planning workloads plan; bert_base#prefill is the full encoder.
PAPER_TABLE2 = {
    "resnet18@Hydra-M": 5.60,
    "bert_base#prefill@Hydra-M": 72.31,
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a wrong program output)."""


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------

@contextmanager
def scratch_dir():
    """An empty directory under .e2e_bench/, removed afterwards."""
    base = WORK_DIR / "tmp"
    base.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def trace_dir():
    path = WORK_DIR / "trace"
    path.mkdir(parents=True, exist_ok=True)
    return path


def child_env(cache_dir):
    env = dict(os.environ)
    env.pop("REPRO_BACKEND", None)
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               PYTHONUNBUFFERED="1", REPRO_CACHE_DIR=str(cache_dir))
    return env


class Child:
    """A subprocess whose stdout is read line by line; killed on exit
    from the ``with`` block if still running, or after PASS_TIMEOUT."""

    def __init__(self, cmd, env):
        self.name = " ".join(Path(str(a)).name for a in cmd[1:4])
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                                     stdout=subprocess.PIPE, text=True)
        self._watchdog = threading.Timer(PASS_TIMEOUT, self.proc.kill)
        self._watchdog.daemon = True
        self._watchdog.start()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._watchdog.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        return False

    def wait_for(self, prefix):
        """Next stdout line starting with ``prefix``, and when it came."""
        for line in self.proc.stdout:
            if line.startswith(prefix):
                return line.rstrip("\n"), time.perf_counter()
        raise BenchError(f"{self.name} exited with {self.proc.wait()} "
                         f"before printing {prefix!r}")

    def finish(self):
        """Drain stdout and wait for a clean exit."""
        self.proc.stdout.read()
        code = self.proc.wait(timeout=PASS_TIMEOUT)
        if code != 0:
            raise BenchError(f"{self.name} exited with {code}")


def worker_pass(workload, args, traced=False, setup_only=False):
    """One fresh-process pass of a planning or DES workload."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), workload,
           "--seed", str(args.seed)]
    if args.quick:
        cmd.append("--quick")
    if setup_only:
        cmd.append("--setup-only")
    if traced:
        cmd += ["--trace-out", str(trace_dir() / f"{workload}.trace.json")]
    with scratch_dir() as tmp, Child(cmd, child_env(tmp)) as child:
        _, ready = child.wait_for("READY")
        line, _ = child.wait_for("RESULT ")
        child.finish()
    result = json.loads(line[len("RESULT "):])
    result["setup_s"] = ready - child.started
    result["traced"] = traced
    return result


def vm_hwm_mb(pid):
    """Peak resident set of a running process, from /proc."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def live_pass(args, traced=False, setup_only=False):
    """Boot a live server, load it (unless ``setup_only``), stop it."""
    with scratch_dir() as tmp:
        if traced:
            cmd = [sys.executable, str(BENCH_DIR / "live_server.py"),
                   str(LIVE_SCENARIO), "--time-scale", str(TIME_SCALE),
                   "--stats-out", str(tmp / "stats.json"),
                   "--trace-out", str(trace_dir() / "live-mixed.trace.json")]
        else:
            cmd = [sys.executable, "-m", "repro", "serve",
                   str(LIVE_SCENARIO), "--live", "--warm",
                   "--warm-workers", "2", "--port", "0",
                   "--time-scale", str(TIME_SCALE)]
        result = {"traced": traced}
        with Child(cmd, child_env(tmp)) as child:
            line, ready = child.wait_for(LIVE_READY)
            result["setup_s"] = ready - child.started
            host, _, port = line[len(LIVE_READY):].split()[0].rpartition(":")
            try:
                if not setup_only:
                    durations = (list(QUICK_LIVE_PHASES) if args.quick else
                                 [f * args.seconds for f in LIVE_PHASES])
                    if not traced:
                        durations[2] = 0.0
                    result["load"] = loadgen.run_load(
                        host, int(port), args.seed, durations)
                    result["rss_mb"] = vm_hwm_mb(child.proc.pid)
            finally:
                loadgen.shutdown(host, int(port))
            child.finish()
        if traced:
            result["stats"] = json.loads((tmp / "stats.json").read_text())
    return result


def run_passes(workload, args):
    """Measured passes for ``--seconds``, then set-up-only passes."""
    if workload == "live-mixed":
        def one(**kw):
            return live_pass(args, **kw)
    else:
        def one(**kw):
            return worker_pass(workload, args, **kw)

    # A traced run alternates untraced and traced passes, so the
    # tracing overhead is measured within the run.
    min_passes = 2 if args.trace else 1
    passes = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(one(traced=traced))
        elapsed = time.perf_counter() - start
        done = len(passes) >= min_passes
        if done and (args.quick or elapsed * (len(passes) + 1)
                     / len(passes) > args.seconds):
            break
    setups = []
    if not args.trace and not args.quick:
        while len(passes) + len(setups) < SETUP_SAMPLES:
            setups.append(one(setup_only=True))
    return passes, setups


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------

class Checks:
    """Counts checked operations; remembers what failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def check_plans(passes, expected, checks):
    pins = expected.get("plans", {})
    for result in passes:
        for key, plan in result["plans"].items():
            pin = pins.get(key)
            checks.check(
                pin is not None and pin["sha256"] == plan["sha256"],
                f"plan {key}: sha256 {plan['sha256'][:12]} total "
                f"{plan['total_seconds']!r} does not match the pin "
                + ("(none)" if pin is None else
                   f"{pin['sha256'][:12]} total {pin['total_seconds']!r}"))


def check_des(passes, expected, checks):
    """Pinned report bytes at the pinned seed and horizon, conservation
    laws at any other."""
    pins = expected.get("des", {})
    for result in passes:
        for name, des in result["des"].items():
            pin = pins.get(name)
            if pin is None:
                checks.check(False, f"DES {name}: no pin")
                continue
            if (des["seed"], des["duration_seconds"]) == (
                    pin["seed"], pin["duration_seconds"]):
                checks.check(pin["sha256"] == des["sha256"],
                             f"DES {name}: report sha256 "
                             f"{des['sha256'][:12]} != pin "
                             f"{pin['sha256'][:12]}")
                continue
            ok = True
            for row in des["tenants"]:
                aborted = row.get("sessions_aborted", 0)
                ok &= (row["arrivals"]
                       == row["completed"] + row["rejected"] + aborted)
                if "tokens" in row:
                    ok &= (row["tokens"]
                           == row["decode_steps"] + row["sessions_completed"])
                    if not row["rejected"] and not aborted:
                        ok &= row["tokens"] == row["expected_tokens"]
            checks.check(ok, f"DES {name} seed {des['seed']}: conservation "
                             f"failed: {des['tenants']}")


def check_live(passes, checks):
    for result in passes:
        load = result.get("load")
        if load is None:
            continue
        for phase in load.phases.values():
            checks.attempted += phase["sent"]
        checks.failures.extend(load.errors)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def e2e_samples(workload, passes, setups):
    """Per-sample values of every end-to-end metric, untraced passes."""
    plain = [p for p in passes if not p["traced"]]
    samples = {"setup_s": [p["setup_s"] for p in plain + setups]}
    if workload == "live-mixed":
        samples["latency_p50_ms"] = [1000 * r[0] for p in plain
                                     for r in p["load"].infer]
        samples["throughput_per_s"] = [p["load"].rate("closed", 1)
                                       for p in plain]
    else:
        samples["latency_p50_ms"] = [1000 * p["op_s"] for p in plain]
        samples["throughput_per_s"] = [p["items"] / p["op_s"]
                                       for p in plain]
    samples["peak_rss_mb"] = [p["rss_mb"] for p in plain]
    return samples


def extras(workload, passes):
    """The workload-specific numbers behind the generic metrics."""
    plain = [p for p in passes if not p["traced"]]
    out = {}
    if workload.startswith("plan-"):
        out["plan_s"] = median([p["op_s"] for p in plain])
        for key in plain[0]["plans"]:
            out[f"plan_s[{key}]"] = median([p["plans"][key]["seconds"]
                                            for p in plain])
        cells = [(plain[0]["plans"][k]["total_seconds"], paper)
                 for k, paper in PAPER_TABLE2.items()
                 if k in plain[0]["plans"]]
        if cells:
            out["paper_err_pct"] = 100 * statistics.fmean(
                [abs(ours - paper) / paper for ours, paper in cells])
    elif workload == "serve-des":
        for name, label in (("des_cnn", "des_cnn_arrivals_per_s"),
                            ("des_llm", "des_llm_tokens_per_s")):
            out[label] = median([p["des"][name]["items"]
                                 / p["des"][name]["seconds"]
                                 for p in plain])
    else:
        loads = [p["load"] for p in plain]
        infer = [r[0] for load in loads for r in load.infer]
        itl = [x for load in loads for x in load.itl]
        out.update({
            "infer_p90_ms": 1000 * percentile(infer, 90),
            "infer_samples": len(infer),
            "infer_closed_p50_ms": 1000 * median(
                [x for load in loads for x in load.replies["closed"]]),
            "ttft_p50_ms": 1000 * median(
                [x for load in loads for x in load.ttft]),
            "itl_p50_ms": 1000 * median(itl),
            "itl_p90_ms": 1000 * percentile(itl, 90),
            "itl_samples": len(itl),
            "loadgen_late_p90_ms": 1000 * percentile(
                [x for load in loads for x in load.late], 90),
        })
    return out


def _mean_layers(traced):
    """Per-pass mean of the traced passes' layer tables and counters."""
    n = len(traced)
    layers, counters = {}, {}
    for p in traced:
        table = p.get("layers") or p.get("stats", {}).get("layers", {})
        for name, row in table.items():
            acc = layers.setdefault(name, {"calls": 0.0, "s": 0.0,
                                           "self_s": 0.0})
            for key in acc:
                acc[key] += row[key] / n
        for name, value in p.get("counters", {}).items():
            counters[name] = counters.get(name, 0.0) + value / n
    return layers, counters


def layer_metrics(workload, passes):
    """Every per-layer metric, from the traced passes of one run."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    layers, counters = _mean_layers(traced)

    def self_s(name):
        return layers.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return layers.get(name, {}).get("calls", 0.0)

    def mean(key):
        return statistics.fmean([p.get(key, 0) for p in traced])

    m = {"models.build.s": self_s("models.build")}
    for name in ("sched.map_step", "sim.run"):
        m[f"{name}.s"] = self_s(name)
        m[f"{name}.calls"] = calls(name)
    m["sched.steps"] = mean("steps")
    m["sched.distinct_shapes"] = mean("distinct_shapes")
    m["sim.unique_ratio"] = (m["sched.distinct_shapes"] / m["sched.steps"]
                             if m["sched.steps"] else 0.0)
    m["sim.tasks"] = counters.get("sim.engine.tasks", 0.0)
    m["sim.transfers"] = counters.get("sim.engine.transfers", 0.0)
    m["sim.host_us_per_task"] = (
        1e6 * layers.get("sim.run", {}).get("s", 0.0) / m["sim.tasks"]
        if m["sim.tasks"] else 0.0)
    m["sim.merge.s"] = self_s("sim.merge")
    for fabric in ("hydra", "fab"):
        for kind in ("broadcast", "unicast"):
            name = f"sim.fabric.{fabric}.{kind}"
            m[f"{name}.s"] = self_s(name)
            m[f"{name}.calls"] = calls(name)

    m["serve.engine.run.s"] = self_s("serve.engine.run")
    for handler in ("arrival", "complete", "flush", "dispatch", "autoscale"):
        m[f"serve.core.{handler}.s"] = self_s(f"serve.core.{handler}")
        m[f"serve.core.{handler}.calls"] = calls(f"serve.core.{handler}")
    events = sum(calls(f"serve.core.{h}")
                 for h in ("arrival", "complete", "flush", "autoscale"))
    m["serve.events"] = events
    m["serve.host_us_per_event"] = (
        1e6 * layers.get("serve.engine.run", {}).get("s", 0.0) / events
        if events else 0.0)
    batches = mean("batches")
    m["serve.mean_batch_size"] = (mean("batched_requests") / batches
                                  if batches else 0.0)
    m["serve.tokens"] = mean("tokens")
    m["serve.decode_steps"] = mean("decode_steps")
    for name in ("serve.queue.take_batch", "serve.dispatch.plan_batch",
                 "serve.arrivals", "serve.report", "obs.hist.add"):
        m[f"{name}.s"] = self_s(name)
    m["obs.hist.add.calls"] = calls("obs.hist.add")
    m["runtime.prepare_profiles.s"] = statistics.fmean(
        [p.get("setup", {}).get("prepare_profiles_s", 0.0)
         or p.get("stats", {}).get("prepare_profiles_s", 0.0)
         for p in traced])
    m.update(_live_layer_metrics(traced))

    if workload == "live-mixed":
        base = median([r[0] for p in plain for r in p["load"].infer])
        cost = median([r[0] for p in traced for r in p["load"].infer])
    else:
        base = median([p["op_s"] for p in plain])
        cost = median([p["op_s"] for p in traced])
    m["trace_overhead_pct"] = 100 * (cost / base - 1) if base else 0.0
    return m


def _live_layer_metrics(traced):
    names = ("ckks.infer.ms", "ckks.infer.busy_frac", "ckks.ops_per_infer",
             "math.ntt.calls_per_infer", "live.http_overhead_ms",
             "live.itl_excess_ms", "live.ttft_excess_ms", "live.warm.s",
             "live.contended_rps", "live.overloaded", "loadgen.late_p90_ms")
    m = dict.fromkeys(names, 0.0)
    for phase in loadgen.PHASES:
        for key in ("sent", "ok", "failed"):
            m[f"loadgen.{phase}.{key}"] = 0.0
    live = [p for p in traced if "load" in p]
    if not live:
        return m
    p = live[0]
    load, stats = p["load"], p["stats"]
    infers = stats["infer_s"]
    text = load.metrics_text
    m["ckks.infer.ms"] = 1000 * median(infers)
    m["ckks.infer.busy_frac"] = sum(infers) / (2 * load.wall)
    if infers:
        m["ckks.ops_per_infer"] = (
            loadgen.prom_total(text, "repro_ckks_evaluator_ops")
            / len(infers))
        m["math.ntt.calls_per_infer"] = (
            loadgen.prom_total(text, "repro_math_ntt_calls") / len(infers))
    m["live.http_overhead_ms"] = 1000 * median(
        [client - server for _, client, server in load.infer])
    modeled = _modeled_llm_seconds(load.scenario, stats["context_tokens"])
    if load.itl:
        m["live.itl_excess_ms"] = 1000 * (median(load.itl)
                                          - modeled["decode"])
    if load.ttft:
        m["live.ttft_excess_ms"] = 1000 * (median(load.ttft)
                                           - modeled["prefill"])
    m["live.warm.s"] = stats["warm_s"]
    m["live.contended_rps"] = load.rate("contended", 2)
    m["live.overloaded"] = loadgen.prom_total(
        text, "repro_serve_live_overloaded")
    m["loadgen.late_p90_ms"] = 1000 * percentile(load.late, 90)
    for phase, row in load.phases.items():
        for key, value in row.items():
            m[f"loadgen.{phase}.{key}"] = float(value)
    return m


def _modeled_llm_seconds(scenario_doc, context_tokens):
    """Modeled compute of one chat prefill and one decode step, scaled
    to wall seconds by the server's time scale (compute only: batch
    set-up and I/O staging are left in the excess)."""
    spec = json.loads(LIVE_SCENARIO.read_text())
    chat = next(t for t in spec["tenants"] if t.get("kind") == "llm")
    plans = {p["model"]: p["compute_seconds"]
             for p in scenario_doc["plans"]}
    scale = scenario_doc["time_scale"]
    model = chat["model"]
    prompt = chat["prompt_tokens"]["value"]
    return {
        "prefill": scale * plans[f"{model}#prefill"] * prompt
        / context_tokens[model],
        "decode": scale * plans[f"{model}#decode"],
    }


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def load_declarations():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return doc["end_to_end"], doc["per_layer"]


def run_workload(workload, args, expected):
    """One run of one workload: its result line plus the detail."""
    passes, setups = run_passes(workload, args)
    checks = Checks()
    if workload.startswith("plan-"):
        check_plans(passes, expected, checks)
    elif workload == "serve-des":
        check_des(passes, expected, checks)
    else:
        check_live(passes, checks)

    e2e_decl, layer_decl = load_declarations()
    samples = e2e_samples(workload, passes, setups)
    if args.trace:
        values = layer_metrics(workload, passes)
        decl = layer_decl
    else:
        values = {name: median(v) for name, v in samples.items()}
        decl = e2e_decl
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
               for d in decl}
    detail = {
        "seed": args.seed,
        "passes": len(passes),
        "samples": samples,
        "extras": extras(workload, passes),
        "failures": checks.failures,
    }
    if args.trace:
        detail["layers"] = values
        (trace_dir() / f"{workload}.layers.json").write_text(json.dumps(
            {"metrics": values, "raw": [
                {k: p.get(k, p.get("stats", {}).get(k))
                 for k in ("layers", "counters", "program_spans")}
                for p in passes if p["traced"]]},
            indent=2, sort_keys=True) + "\n")
    line = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": metrics,
    }
    return line, detail


def render(workload, line, detail, out):
    out(f"== {workload} (seed {detail['seed']}, {detail['passes']} "
        f"measured pass(es))")
    for name, m in line["metrics"].items():
        count = len(detail["samples"].get(name, ()))
        note = f"  n={count}" if count else ""
        out(f"  {name:<34} {m['value']:>14.6g} {m['unit']:<6}{note}")
    for name, value in detail["extras"].items():
        out(f"  {name:<34} {value:>14.6g}")
    out(f"  checks: {line['attempted'] - line['failed']}/"
        f"{line['attempted']} ok")
    for failure in detail["failures"]:
        out(f"  FAILED {failure}")


def write_expected(args):
    """Re-pin every planned result and the default-seed DES reports."""
    args.seed, args.quick, args.trace = DEFAULT_SEED, False, 0
    plans, des = {}, {}
    for workload in ("plan-llm", "plan-cnn"):
        for key, plan in worker_pass(workload, args)["plans"].items():
            plans[key] = {k: plan[k] for k in (
                "sha256", "total_seconds", "procedure_span",
                "bytes_transferred")}
    for name, report in worker_pass("serve-des", args)["des"].items():
        des[name] = {k: report[k] for k in ("sha256", "seed",
                                            "duration_seconds")}
    doc = {"plans": plans, "des": des}
    args.expected.write_text(json.dumps(doc, indent=2, sort_keys=True)
                             + "\n")
    print(f"wrote {args.expected}")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured time per workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced "
                             "pass and write Chrome traces")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, seeds seed, seed+1, ...")
    parser.add_argument("--quick", action="store_true",
                        help="one short pass per workload (smoke test)")
    parser.add_argument("--out", type=Path, default=None,
                        help="write every run's metrics here (compare.py)")
    parser.add_argument("--expected", type=Path,
                        default=BENCH_DIR / "expected.json")
    parser.add_argument("--write-expected", action="store_true",
                        help="re-pin outputs into --expected and exit")
    args = parser.parse_args(argv)

    # Unwind through the `with` blocks on SIGTERM, so every child
    # process is stopped and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program is missing ({ROOT / 'src' / 'repro'})",
              file=sys.stderr)
        return 2
    if args.runs < 1 or args.seconds <= 0:
        parser.error("--runs and --seconds must be positive")
    try:
        if args.write_expected:
            write_expected(args)
            return 0
        expected = json.loads(args.expected.read_text())
        workloads = [args.workload] if args.workload else list(WORKLOADS)
        base_seed = args.seed
        lines, record = {}, {}
        for workload in workloads:
            for i in range(args.runs):
                args.seed = base_seed + i
                line, detail = run_workload(workload, args, expected)
                render(workload, line, detail,
                       lambda s: print(s, file=sys.stderr))
                lines[workload] = line
                record.setdefault(workload, []).append(dict(line, **detail))
    except (BenchError, loadgen.HttpError, OSError, ValueError,
            KeyError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 1
    if args.out is not None:
        args.out.write_text(json.dumps({
            "nproc": os.cpu_count(), "seconds": args.seconds,
            "trace": args.trace, "quick": args.quick, "runs": record,
        }, indent=2, sort_keys=True) + "\n")
    if args.workload:
        final = lines[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in lines.values()),
            "attempted": sum(r["attempted"] for r in lines.values()),
            "failed": sum(r["failed"] for r in lines.values()),
            "metrics": {f"{w}/{k}": v for w, r in lines.items()
                        for k, v in r["metrics"].items()},
        }
    ok = all(r["correct"] for runs in record.values() for r in runs)
    print(json.dumps(final, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
