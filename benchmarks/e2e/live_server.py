"""Traced live server for the live-mixed workload.

Wraps the serving and CKKS layers' public functions with
:func:`tracer.install_live`, then boots the same runtime
``python -m repro serve SCENARIO --live --warm --warm-workers 2
--port 0`` boots, through :func:`repro.serve.live.run_live`.  On
shutdown it writes the per-layer table and the kept spans to
``--stats-out`` and a Chrome trace to ``--trace-out``.  Usage::

    python live_server.py SCENARIO --time-scale K --stats-out S.json
                          --trace-out T.json
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenario")
    parser.add_argument("--time-scale", type=float, required=True)
    parser.add_argument("--stats-out", required=True)
    parser.add_argument("--trace-out", required=True)
    args = parser.parse_args(argv)

    from repro.llm import llm_info
    from repro.obs import Recorder, write_chrome_trace
    from repro.serve.live import run_live
    from repro.serve.scenario import load_scenario
    from tracer import LayerTracer, install_live

    tracer = LayerTracer()
    install_live(tracer)
    with Recorder() as recorder:
        status = run_live(args.scenario, host="127.0.0.1", port=0,
                          warm=True, warm_workers=2,
                          time_scale=args.time_scale)
    with open(args.stats_out, "w", encoding="utf-8") as fh:
        json.dump({
            "layers": tracer.table(),
            "infer_s": tracer.durations("ckks.infer"),
            "warm_s": sum(tracer.durations("live.warm")),
            "prepare_profiles_s": sum(
                tracer.durations("runtime.prepare_profiles")),
            "context_tokens": {
                t.model: llm_info(t.model).context_tokens
                for t in load_scenario(args.scenario).tenants
                if t.kind == "llm"},
        }, fh, sort_keys=True)
    write_chrome_trace(args.trace_out, spans=tracer.spans + recorder.spans)
    return status


if __name__ == "__main__":
    sys.exit(main())
