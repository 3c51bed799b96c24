"""Result caches: stats, the default-cache selection, invalidation, and
cross-process persistence of the sqlite plan store.

Round-trip fidelity and stale-entry handling of the store itself are
pinned in ``tests/test_planstore.py``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core import cluster_named
from repro.hw import hydra_cluster
from repro.models import resnet18
from repro.runtime import (
    MemoryCache,
    RunRequest,
    SqlitePlanStore,
    default_cache,
    default_cache_dir,
    execute,
    set_default_cache,
)
from repro.sched.planner import Planner

_SRC = str(Path(repro.__file__).resolve().parents[1])


def _small_result():
    return Planner(hydra_cluster(1, 2)).run_model(resnet18())


@pytest.fixture(scope="module")
def result():
    return _small_result()


class TestMemoryCache:
    def test_miss_then_hit_stats(self, result):
        cache = MemoryCache()
        assert cache.get("k") is None
        cache.put("k", result)
        assert cache.get("k") is result
        assert (cache.stats.misses, cache.stats.hits,
                cache.stats.puts) == (1, 1, 1)
        assert cache.stats.hit_rate == 0.5
        assert "k" in cache and len(cache) == 1

    def test_clear(self, result):
        cache = MemoryCache()
        cache.put("k", result)
        cache.clear()
        assert "k" not in cache and len(cache) == 0


class TestDefaultCache:
    def test_env_var_controls_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert default_cache_dir() == tmp_path / "env"
        store = SqlitePlanStore()
        assert store.directory == tmp_path / "env"
        assert (tmp_path / "env" / "plans.sqlite").is_file()

    def test_default_cache_honors_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        set_default_cache(None)
        try:
            assert isinstance(default_cache(), SqlitePlanStore)
        finally:
            set_default_cache(None)
            monkeypatch.delenv("REPRO_CACHE_DIR")
            assert isinstance(default_cache(), MemoryCache)


_SUBPROCESS_SCRIPT = """
import json
from repro.core import cluster_named
from repro.runtime import RunRequest, SqlitePlanStore, execute

request = RunRequest(benchmark="resnet18", cluster=cluster_named("Hydra-S"),
                     with_energy=False)
outcome = execute([request], jobs=1, cache=SqlitePlanStore())
manifest = outcome.manifest
print(json.dumps({
    "hits": manifest.hits,
    "misses": manifest.misses,
    "total_seconds": outcome[0].result.total_seconds,
}))
"""


class TestCrossProcessPersistence:
    def _invoke(self, cache_dir):
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_CACHE_DIR"] = str(cache_dir)
        proc = subprocess.run(
            [sys.executable, "-c", _SUBPROCESS_SCRIPT],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_second_invocation_is_all_hits(self, tmp_path):
        first = self._invoke(tmp_path)
        assert (first["hits"], first["misses"]) == (0, 1)
        second = self._invoke(tmp_path)
        assert (second["hits"], second["misses"]) == (1, 0)
        # Cached numbers are identical, not approximately equal.
        assert second["total_seconds"] == first["total_seconds"]


class TestInvalidationThroughRequests:
    def test_changed_calibration_misses(self, tmp_path):
        from dataclasses import replace

        from repro.cost.calibration import DEFAULT_CALIBRATION

        cache = SqlitePlanStore(tmp_path)
        base = RunRequest(benchmark="resnet18",
                          cluster=cluster_named("Hydra-S"),
                          with_energy=False)
        scales = dict(DEFAULT_CALIBRATION.work_scale)
        scales["resnet18"] *= 3.0
        changed = RunRequest(
            benchmark="resnet18", cluster=cluster_named("Hydra-S"),
            with_energy=False,
            calibration=replace(DEFAULT_CALIBRATION, work_scale=scales),
        )
        (r_base,) = execute([base], cache=cache)
        assert not r_base.cache_hit
        (r_changed,) = execute([changed], cache=cache)
        assert not r_changed.cache_hit  # calibration change → miss
        assert (r_changed.result.total_seconds
                > r_base.result.total_seconds)
        assert all(rr.cache_hit
                   for rr in execute([base, changed], cache=cache))
