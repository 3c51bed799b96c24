"""Remaining coverage: run cache semantics and graph utility methods."""

from dataclasses import replace

import pytest

from repro.analysis import parallelism_census
from repro.core import (
    HydraSystem,
    available_benchmarks,
    available_systems,
)
from repro.models import ModelGraph, Step, resnet18
from repro.runtime import default_cache


class TestRunCache:
    def test_clear_default_cache(self):
        sys_m = HydraSystem.hydra_s()
        first = sys_m.run("resnet18", with_energy=False)
        default_cache().clear()
        second = sys_m.run("resnet18", with_energy=False)
        assert second is not first
        assert second.total_seconds == pytest.approx(first.total_seconds)

    def test_cache_bypass(self):
        sys_m = HydraSystem.hydra_s()
        cached = sys_m.run("resnet18", with_energy=False)
        fresh = sys_m.run("resnet18", with_energy=False, use_cache=False)
        assert fresh is not cached

    def test_energy_flag_is_part_of_key(self):
        sys_m = HydraSystem.hydra_s()
        with_e = sys_m.run("resnet18", with_energy=True)
        without = sys_m.run("resnet18", with_energy=False)
        assert with_e is not without
        assert with_e.energy is not None
        assert without.energy is None

    def test_model_graph_objects_accepted(self):
        model = resnet18()
        result = HydraSystem.hydra_s().run(model, with_energy=False)
        assert result.model_name == "resnet18"


class TestRegistries:
    def test_benchmarks_sorted(self):
        names = available_benchmarks()
        assert names == sorted(names)

    def test_systems_include_baselines(self):
        names = available_systems()
        for required in ("Hydra-S", "Hydra-M", "Hydra-L", "FAB-M",
                         "Poseidon"):
            assert required in names


class TestGraphUtilities:
    def test_procedures_listing(self):
        g = ModelGraph(name="g", display_name="G")
        g.add(Step(kind="convbn", name="a", procedure="ConvBN", level=5,
                   units=4))
        g.add(Step(kind="bootstrap", name="b", procedure="Boot", level=9,
                   jobs=1))
        assert g.procedures == ["Boot", "ConvBN"]

    def test_duplicate_step_name_rejected(self):
        step = Step(kind="convbn", name="a", procedure="ConvBN", level=5,
                    units=4)
        g = ModelGraph(name="g", display_name="G")
        g.add(step)
        with pytest.raises(ValueError, match="duplicate step name"):
            g.add(step)
        # A graph rebuilt with other steps checks against those steps.
        b = replace(step, name="b")
        h = replace(g, steps=[b])
        h.add(step)
        with pytest.raises(ValueError):
            h.add(b)
        assert [s.name for s in h.steps] == ["b", "a"]

    def test_parallelism_range_missing_kind(self):
        # The Table I census has no row for a kind the graph lacks.
        g = ModelGraph(name="g", display_name="G")
        g.add(Step(kind="convbn", name="a", procedure="ConvBN", level=5,
                   units=4))
        census = parallelism_census(g)
        assert "ConvBN" in census and "PCMM" not in census

    def test_step_flags(self):
        conv = Step(kind="convbn", name="c", procedure="C", level=5,
                    units=4)
        relu = Step(kind="nonlinear", name="r", procedure="R", level=5,
                    jobs=2, degree=3)
        boot = Step(kind="bootstrap", name="b", procedure="B", level=9,
                    jobs=1)
        assert conv.is_unit_parallel and not conv.is_polynomial
        assert relu.is_polynomial and not relu.is_unit_parallel
        assert not boot.is_unit_parallel and not boot.is_polynomial

    def test_unit_work_validation(self):
        with pytest.raises(ValueError):
            Step(kind="convbn", name="c", procedure="C", level=5,
                 units=4, unit_work=0.0)
