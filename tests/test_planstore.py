"""The sqlite plan store: round-trip fidelity, stale-entry handling,
and cross-process write exclusion and compile-once semantics under
concurrent servers."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.hw import hydra_cluster
from repro.models import resnet18
from repro.runtime import SqlitePlanStore
from repro.sched.planner import Planner

_SRC = str(Path(repro.__file__).resolve().parents[1])


def _small_result():
    return Planner(hydra_cluster(1, 2)).run_model(resnet18())


@pytest.fixture(scope="module")
def result():
    return _small_result()


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_CACHE_DIR", None)
    return env


class TestSqlitePlanStore:
    def test_roundtrip_is_exact(self, tmp_path, result):
        store = SqlitePlanStore(tmp_path)
        store.put("k", result)
        # A second instance must re-read from sqlite, not memory.
        loaded = SqlitePlanStore(tmp_path).get("k")
        assert loaded is not result
        assert json.dumps(loaded.to_dict(), sort_keys=True) == json.dumps(
            result.to_dict(), sort_keys=True
        )
        assert loaded.total_seconds == result.total_seconds
        assert (loaded.sim.components_total.to_dict()
                == result.sim.components_total.to_dict())

    def test_miss_then_hit_stats(self, tmp_path, result):
        store = SqlitePlanStore(tmp_path)
        assert store.get("k") is None
        store.put("k", result)
        assert store.get("k") is not None
        assert (store.stats.misses, store.stats.hits,
                store.stats.puts) == (1, 1, 1)

    def test_memory_layer_serves_same_object(self, tmp_path, result):
        store = SqlitePlanStore(tmp_path)
        store.put("k", result)
        assert store.get("k") is store.get("k")

    def test_overwrite_replaces(self, tmp_path, result):
        store = SqlitePlanStore(tmp_path, memory=False)
        store.put("k", result)
        store.put("k", result)
        assert len(store) == 1

    def test_clear(self, tmp_path, result):
        store = SqlitePlanStore(tmp_path)
        store.put("a", result)
        store.put("b", result)
        assert len(store) == 2 and "a" in store
        store.clear()
        assert len(store) == 0 and "a" not in store

    def test_corrupt_entry_is_a_stale_miss(self, tmp_path, result):
        store = SqlitePlanStore(tmp_path, memory=False)
        store.put("k", result)
        with store._connect() as conn:
            conn.execute(
                "UPDATE plans SET payload = '{not json' WHERE key = 'k'")
        assert store.get("k") is None
        assert store.stats.stale == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_corrupt_entry_counts_stale_once_per_lookup(self, tmp_path,
                                                        result, jobs):
        """``execute`` looks the key up, then re-checks it under the
        key's lock: one lookup, one stale miss."""
        from repro.runtime import RunRequest, execute

        request = RunRequest(benchmark="resnet18",
                             cluster=hydra_cluster(1, 2), with_energy=False)
        store = SqlitePlanStore(tmp_path, memory=False)
        store.put(request.key(), result)
        with store._connect() as conn:
            conn.execute("UPDATE plans SET payload = '{not json'")
        outcome = execute([request], jobs=jobs, cache=store)
        counters = outcome.manifest.metrics["counters"]
        assert counters["runtime.cache.stale"][""] == 1
        assert counters["runtime.cache.misses"][""] == 1
        assert (store.stats.stale, store.stats.misses) == (1, 1)
        # The fresh plan overwrote the corrupt entry.
        assert SqlitePlanStore(tmp_path).get(request.key()) is not None

    def test_unknown_format_is_a_stale_miss(self, tmp_path, result):
        store = SqlitePlanStore(tmp_path, memory=False)
        store.put("k", result)
        with store._connect() as conn:
            conn.execute("UPDATE plans SET format = 999 WHERE key = 'k'")
        assert store.get("k") is None
        assert store.stats.stale == 1

    def test_lock_is_reentrant_across_keys(self, tmp_path):
        store = SqlitePlanStore(tmp_path)
        with store.lock("a"):
            with store.lock("b"):
                pass  # distinct keys never deadlock


# Two processes hammer the same key (plus private keys) with raw puts;
# the database must stay consistent and every entry readable.
_WRITER_SCRIPT = """
import json, os, sys, time
from repro.runtime import SqlitePlanStore
from repro.sched.planner import ModelRunResult

cache_dir, result_json, tag, go_file = sys.argv[1:5]
result = ModelRunResult.from_dict(json.load(open(result_json)))
store = SqlitePlanStore(cache_dir, memory=False)
while not os.path.exists(go_file):
    time.sleep(0.005)
for i in range(30):
    store.put("shared-key", result)
    store.put(f"{tag}-{i}", result)
print("done")
"""

# Two processes race the same two plans through one cached path; the
# per-key locks must let exactly one of them compile each plan.
_RACER_SCRIPT = """
import json, os, sys, time
from repro.core import HydraSystem
from repro.runtime import RunRequest, SqlitePlanStore, execute

cache_dir, go_file, out_path, path = sys.argv[1:5]
store = SqlitePlanStore(cache_dir)
systems = ("Hydra-S", "Hydra-M")
while not os.path.exists(go_file):
    time.sleep(0.005)
if path == "system":
    results = [HydraSystem.named(name, cache=store).run(
        "resnet18", with_energy=False) for name in systems]
else:
    requests = [RunRequest(benchmark="resnet18", system=name,
                           with_energy=False) for name in systems]
    jobs = 2 if path == "execute-jobs2" else 1
    results = [rr.result for rr in execute(requests, jobs=jobs,
                                           cache=store)]
with open(out_path, "w") as fh:
    json.dump({
        "compiled": store.stats.puts,
        "total_seconds": [r.total_seconds for r in results],
    }, fh)
"""


class TestConcurrentWriters:
    def _spawn(self, script, args):
        return subprocess.Popen(
            [sys.executable, "-c", script] + [str(a) for a in args],
            env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )

    def test_two_processes_racing_raw_puts(self, tmp_path, result):
        cache_dir = tmp_path / "store"
        result_json = tmp_path / "result.json"
        result_json.write_text(json.dumps(result.to_dict()),
                               encoding="utf-8")
        go_file = tmp_path / "go"
        procs = [
            self._spawn(_WRITER_SCRIPT,
                        [cache_dir, result_json, tag, go_file])
            for tag in ("a", "b")
        ]
        time.sleep(0.3)  # let both reach the start line
        go_file.touch()
        for proc in procs:
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
        store = SqlitePlanStore(cache_dir, memory=False)
        # 1 shared + 30 per process; nothing lost, nothing corrupt.
        assert len(store) == 61
        assert store.get("shared-key").total_seconds == result.total_seconds
        assert store.stats.stale == 0

    @pytest.mark.parametrize(
        "path", ["execute-jobs1", "execute-jobs2", "system"])
    def test_two_processes_compile_each_plan_once(self, tmp_path, path):
        cache_dir = tmp_path / "store"
        go_file = tmp_path / "go"
        outs = [tmp_path / "out-a.json", tmp_path / "out-b.json"]
        procs = [self._spawn(_RACER_SCRIPT, [cache_dir, go_file, out, path])
                 for out in outs]
        time.sleep(0.3)
        go_file.touch()
        for proc in procs:
            _, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
        reports = [json.loads(out.read_text()) for out in outs]
        # Each of the two plans was compiled (and stored) by exactly one
        # process; the other found it, up front or as a late hit after
        # waiting on the key's lock.
        assert sum(r["compiled"] for r in reports) == 2
        assert reports[0]["total_seconds"] == reports[1]["total_seconds"]
