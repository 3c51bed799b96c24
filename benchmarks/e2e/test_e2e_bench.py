"""Smoke test of the end-to-end benchmark (about a minute; not tier-1).

Runs ``run.py --quick`` (one short pass per workload) and checks the
result contract against ``BENCHMARK.json``, that a wrong output pin
fails the run, and that the benchmark refuses to run without the
program.  Run it with::

    python -m pytest benchmarks/e2e/test_e2e_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    """``(exit code, last stdout line as JSON or None, stderr)``."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None, \
        proc.stderr


def units(decls):
    return {d["name"]: d["unit"] for d in decls}


def test_quick_run_emits_every_end_to_end_metric(tmp_path):
    out = tmp_path / "r.json"
    code, line, err = run_bench("--quick", "--out", str(out))
    assert code == 0, err
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    runs = json.loads(out.read_text())["runs"]
    assert sorted(runs) == sorted(w["name"] for w in DECLARED["workloads"])
    for workload, (run,) in runs.items():
        got = {name: m["unit"] for name, m in run["metrics"].items()}
        assert got == units(DECLARED["end_to_end"]), workload
        assert all(m["value"] > 0 for m in run["metrics"].values()), workload


def test_traced_run_emits_every_per_layer_metric():
    code, line, err = run_bench("--quick", "--workload", "serve-des",
                                "--trace", "1")
    assert code == 0, err
    got = {name: m["unit"] for name, m in line["metrics"].items()}
    assert got == units(DECLARED["per_layer"])
    assert line["metrics"]["serve.events"]["value"] > 0
    assert (ROOT / ".e2e_bench" / "trace" / "serve-des.trace.json").is_file()


def test_perturbed_pin_fails_the_run(tmp_path):
    pins = json.loads((BENCH_DIR / "expected.json").read_text())
    pins["plans"]["resnet18@Hydra-M"]["sha256"] = "0" * 64
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(pins))
    code, line, _ = run_bench("--quick", "--workload", "plan-cnn",
                              "--expected", str(path))
    assert code == 1
    assert line["correct"] is False and line["failed"] == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, line, _ = run_bench("--workload", "plan-llm", "--seed", "1",
                              "--seconds", "20", "--trace", "0",
                              cwd=tmp_path)
    assert code != 0 and line is None
