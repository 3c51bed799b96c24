"""The parallel executor: determinism, dedup, manifests, and the
``bench`` / ``sweep --jobs`` CLI paths."""

import json

import pytest

from repro.core.cli import main
from repro.hw import hydra_cluster
from repro.runtime import (
    MemoryCache,
    RunRequest,
    SqlitePlanStore,
    execute,
    paper_grid,
)


def _small_grid(with_energy=True):
    """The full grid shape at small scale: 2 systems x 2 benchmarks."""
    clusters = (hydra_cluster(1, 1), hydra_cluster(1, 2))
    benchmarks = ("resnet18", "bert_base")
    return [
        RunRequest(benchmark=b, cluster=c, with_energy=with_energy)
        for c in clusters
        for b in benchmarks
    ]


def _dumps(outcome):
    return [
        json.dumps(rr.result.to_dict(), sort_keys=True)
        for rr in outcome
    ]


class _Capture:
    def __init__(self):
        self.lines = []

    def __call__(self, text=""):
        self.lines.append(str(text))

    @property
    def text(self):
        return "\n".join(self.lines)


class TestDeterminism:
    def test_parallel_matches_serial_byte_identical(self):
        requests = _small_grid()
        serial = execute(requests, jobs=1, cache=MemoryCache())
        parallel = execute(requests, jobs=4, cache=MemoryCache())
        assert _dumps(serial) == _dumps(parallel)

    def test_metrics_merge_bit_identical_serial_vs_jobs4(self):
        requests = _small_grid(with_energy=False)
        serial = execute(requests, jobs=1, cache=MemoryCache())
        parallel = execute(requests, jobs=4, cache=MemoryCache())
        assert serial.manifest.metrics is not None
        assert json.dumps(serial.manifest.metrics, sort_keys=True) \
            == json.dumps(parallel.manifest.metrics, sort_keys=True)
        # Snapshots must actually carry simulation counters.
        counters = serial.manifest.metrics["counters"]
        assert counters["sim.engine.runs"][""] > 0
        assert counters["runtime.cache.misses"][""] == len(requests)

    def test_manifest_metrics_embedded_in_json(self):
        requests = _small_grid(with_energy=False)
        outcome = execute(requests, jobs=2, cache=MemoryCache())
        payload = json.loads(outcome.manifest.to_json())
        assert "sim.engine.runs" in payload["metrics"]["counters"]
        simulated = [r for r in payload["records"] if not r["cache_hit"]]
        assert all(r["metrics"] is not None for r in simulated)

    def test_cache_hits_carry_no_fresh_metrics(self):
        request = RunRequest(benchmark="resnet18",
                             cluster=hydra_cluster(1, 1),
                             with_energy=False)
        cache = MemoryCache()
        execute([request], jobs=1, cache=cache)
        second = execute([request], jobs=1, cache=cache)
        assert second.manifest.hits == 1
        counters = second.manifest.metrics["counters"]
        assert counters["runtime.cache.hits"][""] == 1
        assert "sim.engine.runs" not in counters

    def test_results_in_request_order(self):
        requests = _small_grid(with_energy=False)
        outcome = execute(requests, jobs=4, cache=MemoryCache())
        for request, rr in zip(requests, outcome):
            assert rr.request is request
            assert rr.result.model_name == request.benchmark
            assert rr.result.cluster_name == request.cluster.name


class TestCachingAndDedup:
    def test_second_execute_is_all_hits(self):
        requests = _small_grid(with_energy=False)
        cache = MemoryCache()
        first = execute(requests, jobs=2, cache=cache)
        assert first.manifest.hits == 0
        assert first.manifest.misses == len(requests)
        second = execute(requests, jobs=2, cache=cache)
        assert second.manifest.hits == len(requests)
        assert second.manifest.hit_rate == 1.0
        assert second.manifest.simulated_seconds == 0.0
        assert _dumps(first) == _dumps(second)

    def test_duplicate_requests_simulated_once(self):
        request = RunRequest(benchmark="resnet18",
                             cluster=hydra_cluster(1, 1),
                             with_energy=False)
        cache = MemoryCache()
        outcome = execute([request, request], jobs=1, cache=cache)
        assert cache.stats.puts == 1
        assert outcome[0].result is outcome[1].result

    def test_no_cache_bypasses_storage(self):
        request = RunRequest(benchmark="resnet18",
                             cluster=hydra_cluster(1, 1),
                             with_energy=False)
        cache = MemoryCache()
        execute([request], jobs=1, cache=cache, use_cache=False)
        assert len(cache) == 0 and cache.stats.lookups == 0

    def test_single_request_miss_then_hit(self):
        request = RunRequest(benchmark="resnet18",
                             cluster=hydra_cluster(1, 1),
                             with_energy=False)
        cache = MemoryCache()
        (first,) = execute([request], cache=cache)
        assert not first.cache_hit and first.seconds > 0
        (second,) = execute([request], cache=cache)
        assert second.cache_hit and second.seconds == 0.0
        assert second.result is first.result


class TestManifest:
    def test_records_cover_every_request(self):
        requests = _small_grid(with_energy=False)
        outcome = execute(requests, jobs=2, cache=MemoryCache())
        manifest = outcome.manifest
        assert manifest.runs == len(requests)
        assert manifest.jobs == 2
        assert manifest.wall_seconds > 0
        assert 1 <= manifest.workers_used <= 2
        payload = json.loads(manifest.to_json())
        assert payload["runs"] == len(requests)
        assert len(payload["records"]) == len(requests)
        for record in payload["records"]:
            assert record["key"] and record["benchmark"]

    def test_manifest_save(self, tmp_path):
        outcome = execute(
            [RunRequest(benchmark="resnet18",
                        cluster=hydra_cluster(1, 1),
                        with_energy=False)],
            jobs=1, cache=MemoryCache(),
        )
        path = tmp_path / "manifest.json"
        outcome.manifest.save(path)
        assert json.loads(path.read_text())["runs"] == 1

    def test_by_label(self):
        requests = _small_grid(with_energy=False)
        outcome = execute(requests, jobs=1, cache=MemoryCache())
        table = outcome.by_label()
        assert len(table) == len(requests)
        for request in requests:
            assert (request.cluster.name, request.benchmark) in table


class TestPaperGrid:
    def test_full_grid_shape(self):
        requests = paper_grid()
        assert len(requests) == 28  # 7 systems x 4 benchmarks
        assert len({r.key() for r in requests}) == 28

    def test_subset_selection(self):
        requests = paper_grid(systems=["Hydra-S"],
                              benchmarks=["resnet18", "resnet50"])
        assert [r.label for r in requests] == [
            "resnet18 @ Hydra-S", "resnet50 @ Hydra-S",
        ]


class TestCli:
    def test_bench_json_and_persistent_hits(self, tmp_path):
        argv = ["bench", "--jobs", "2", "-s", "Hydra-S", "Hydra-M",
                "-b", "resnet18", "--no-energy", "--json",
                "--cache-dir", str(tmp_path)]
        first_out = _Capture()
        assert main(argv, out=first_out) == 0
        first = json.loads(first_out.text)
        assert first["manifest"]["cache_hits"] == 0
        assert first["manifest"]["cache_misses"] == 2

        second_out = _Capture()
        assert main(argv, out=second_out) == 0
        second = json.loads(second_out.text)
        assert second["manifest"]["cache_hits"] == 2
        assert second["manifest"]["hit_rate"] == 1.0
        assert [r["total_seconds"] for r in second["results"]] == [
            r["total_seconds"] for r in first["results"]
        ]

    def test_bench_table_output(self, tmp_path):
        out = _Capture()
        code = main(["bench", "-s", "Hydra-S", "-b", "resnet18",
                     "--no-energy", "--cache-dir", str(tmp_path)],
                    out=out)
        assert code == 0
        assert "Hydra-S" in out.text
        assert "1 runs" in out.text
        assert str(tmp_path) in out.text

    def test_bench_writes_the_sqlite_plan_store(self, tmp_path):
        # `serve` and `capacity` read SqlitePlanStore; bench plans must
        # land there, not in a side cache nothing else reads.
        assert main(["bench", "-s", "Hydra-S", "-b", "resnet18",
                     "--cache-dir", str(tmp_path)], out=_Capture()) == 0
        (request,) = paper_grid(systems=["Hydra-S"],
                                benchmarks=["resnet18"])
        assert request.key() in SqlitePlanStore(tmp_path, memory=False)
        assert not list(tmp_path.glob("*.json"))

    def test_bench_no_cache(self, tmp_path):
        out = _Capture()
        code = main(["bench", "-s", "Hydra-S", "-b", "resnet18",
                     "--no-energy", "--no-cache", "--json"], out=out)
        assert code == 0
        payload = json.loads(out.text)
        assert payload["manifest"]["cache_hits"] == 0

    def test_sweep_jobs(self):
        out = _Capture()
        code = main(["sweep", "-b", "resnet18", "--cards", "1", "2",
                     "--jobs", "2"], out=out)
        assert code == 0
        assert "scaling" in out.text

    def test_sweep_jobs_matches_serial(self):
        serial, parallel = _Capture(), _Capture()
        base = ["sweep", "-b", "resnet18", "--cards", "1", "2", "4"]
        assert main(base + ["--jobs", "1"], out=serial) == 0
        assert main(base + ["--jobs", "3"], out=parallel) == 0
        assert serial.text == parallel.text


class TestRemovedShims:
    def test_pre_runtime_helpers_are_gone(self):
        import repro
        import repro.core

        assert not hasattr(repro.core, "run_benchmark")
        assert not hasattr(repro.core, "clear_run_cache")
        assert not hasattr(repro, "run_benchmark")

    def test_run_is_keyword_only_after_benchmark(self):
        from repro.core import HydraSystem

        with pytest.raises(TypeError):
            HydraSystem.hydra_s().run("resnet18", False)
