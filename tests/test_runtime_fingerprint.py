"""Fingerprint keys: stability, sensitivity, and the planner-config
regression (stale cross-config cache hits)."""

from dataclasses import replace
from pathlib import Path

import pytest

from repro.ckks.params import PAPER_PARAMS
from repro.core import HydraSystem, cluster_named
from repro.cost.calibration import DEFAULT_CALIBRATION, Calibration
from repro.hw import hydra_cluster
from repro.models import resnet18
from repro.runtime import (
    MemoryCache,
    RunRequest,
    code_fingerprint,
    config_fingerprint,
    run_key,
)


def _key(**overrides):
    base = dict(
        cluster=hydra_cluster(1, 2),
        params=PAPER_PARAMS,
        calibration=DEFAULT_CALIBRATION,
        rounds=4,
        benchmark="resnet18",
        with_energy=False,
    )
    base.update(overrides)
    return run_key(**base)


class TestFingerprintSensitivity:
    def test_stable_across_equal_configs(self):
        assert _key() == _key(calibration=Calibration())

    def test_filename_safe(self):
        key = _key()
        assert all(c.isalnum() or c in "-_." for c in key)

    def test_calibration_changes_key(self):
        changed = replace(DEFAULT_CALIBRATION, ntt_butterfly_pj=999.0)
        assert _key() != _key(calibration=changed)

    def test_work_scale_changes_key(self):
        scales = dict(DEFAULT_CALIBRATION.work_scale)
        scales["resnet18"] *= 2.0
        changed = replace(DEFAULT_CALIBRATION, work_scale=scales)
        assert _key() != _key(calibration=changed)

    def test_rounds_change_key(self):
        assert _key() != _key(rounds=8)

    def test_cluster_changes_key(self):
        assert _key() != _key(cluster=hydra_cluster(1, 4))

    def test_card_spec_changes_key(self):
        card = replace(hydra_cluster(1, 2).card, dtu_bandwidth=1e9)
        cluster = hydra_cluster(1, 2, card=card)
        assert _key() != _key(cluster=cluster)

    def test_energy_flag_changes_key(self):
        assert _key() != _key(with_energy=True)

    def test_benchmark_changes_key(self):
        assert _key() != _key(benchmark="resnet50")

    def test_custom_model_distinct_from_registered(self):
        model = resnet18()
        assert _key() != _key(model=model)

    def test_code_fingerprint_is_cached_hex(self):
        fp = code_fingerprint()
        assert fp == code_fingerprint()
        assert len(fp) == 12
        int(fp, 16)  # hex digest

    @pytest.mark.parametrize("edited", ["ir/ops.py", "llm/profile.py"])
    def test_code_fingerprint_covers_planning_source(self, edited,
                                                     tmp_path, monkeypatch):
        import shutil

        import repro
        from repro.runtime import fingerprint

        package = Path(repro.__file__).resolve().parent
        copy = tmp_path / "repro"
        shutil.copytree(package, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        monkeypatch.setattr(repro, "__file__", str(copy / "__init__.py"))
        monkeypatch.setattr(fingerprint, "_code_digest", None)
        before = code_fingerprint()
        with open(copy / edited, "a", encoding="utf-8") as fh:
            fh.write("# edited\n")
        monkeypatch.setattr(fingerprint, "_code_digest", None)
        assert code_fingerprint() != before

    def test_config_fingerprint_length(self):
        fp = config_fingerprint(hydra_cluster(1, 2), PAPER_PARAMS,
                                DEFAULT_CALIBRATION, 4)
        assert len(fp) == 16


class TestPlannerConfigRegression:
    """Two HydraSystems sharing a cache but differing in planner
    configuration must never serve each other's results (the old
    ``(benchmark, cluster.name, with_energy)`` key allowed exactly
    that)."""

    def test_different_calibration_not_shared(self):
        cache = MemoryCache()
        scales = dict(DEFAULT_CALIBRATION.work_scale)
        scales["resnet18"] *= 2.0
        slow = replace(DEFAULT_CALIBRATION, work_scale=scales)

        default = HydraSystem(hydra_cluster(1, 1), cache=cache)
        doubled = HydraSystem(hydra_cluster(1, 1), cache=cache,
                              calibration=slow)
        r_default = default.run("resnet18", with_energy=False)
        r_doubled = doubled.run("resnet18", with_energy=False)
        assert r_doubled is not r_default
        # work_scale multiplies the unit-parallel steps, so the doubled
        # calibration must produce a strictly slower run — the old key
        # would have returned r_default itself here.
        assert r_doubled.total_seconds > r_default.total_seconds

    def test_different_rounds_not_shared(self):
        cache = MemoryCache()
        a = HydraSystem(hydra_cluster(1, 2), cache=cache, rounds=4)
        b = HydraSystem(hydra_cluster(1, 2), cache=cache, rounds=1)
        ra = a.run("resnet18", with_energy=False)
        rb = b.run("resnet18", with_energy=False)
        assert ra is not rb

    def test_same_config_is_shared(self):
        cache = MemoryCache()
        a = HydraSystem(hydra_cluster(1, 2), cache=cache)
        b = HydraSystem(hydra_cluster(1, 2), cache=cache)
        assert a.run("resnet18", with_energy=False) is b.run(
            "resnet18", with_energy=False
        )


class TestRunRequestKeys:
    def test_named_system_matches_explicit_cluster_config(self):
        named = RunRequest(benchmark="resnet18",
                           cluster=cluster_named("Hydra-M"),
                           with_energy=False)
        system = HydraSystem.named("Hydra-M")
        assert named.key() == system.run_key("resnet18",
                                             with_energy=False)
