"""Tests for the perf-regression subsystem (:mod:`repro.perf`)."""

import copy
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.cli import main
from repro.math.ntt import get_ntt_context, get_ntt_kernel
from repro.math.primes import find_ntt_primes
from repro.perf import (
    SCHEMA,
    SUITE,
    compare_reports,
    get_workload,
    load_report,
    run_workload,
    save_report,
    suite_names,
    validate_report,
)

# The pinned suite: removing or renaming any of these breaks stored
# baselines, so the registry itself is under test.
EXPECTED_WORKLOADS = (
    "ntt.forward.n4096",
    "ntt.inverse.n4096",
    "ntt.forward.n8192",
    "ntt.inverse.n8192",
    "ntt.forward.n16384",
    "ntt.inverse.n16384",
    "rns.mul.n4096x5",
    "rns.add.n4096x5",
    "ckks.keyswitch.mult",
    "ckks.rotation",
    "ckks.bsgs_matmul",
    "ckks.bootstrap.coeff_to_slot",
    "sim.hydra_s.resnet18_step",
    "sim.hydra_l.bert_decode_pcmm_step",
    "sim.fab_l.resnet18_convbn_step",
    "serve.steady.hydra_m",
    "serve.stream.hydra_m",
    "serve.llm.chat",
    "serve.live.infer",
)


_BASELINE = Path(__file__).resolve().parents[1] / "BENCH_perf.json"


def _report(calibration=1000.0, **medians):
    """Minimal well-formed v1 report with the given workload medians."""
    return {
        "schema": SCHEMA,
        "calibration_ns": calibration,
        "warmup": 1,
        "repeats": 3,
        "workloads": {
            name: {"median_ns": float(ns), "min_ns": float(ns) * 0.9}
            for name, ns in medians.items()
        },
    }


class TestSuiteRegistry:
    def test_pinned_names_complete(self):
        assert suite_names() == EXPECTED_WORKLOADS
        assert set(SUITE) == set(EXPECTED_WORKLOADS)

    def test_workloads_well_formed(self):
        for name, workload in SUITE.items():
            assert workload.name == name
            assert workload.description
            assert callable(workload.setup)
            assert callable(workload.run)
            assert workload.seed == get_workload(name).seed

    def test_unknown_name_lists_suite(self):
        with pytest.raises(KeyError, match="ntt.forward.n4096"):
            get_workload("no.such.workload")

    def test_seeds_are_distinct(self):
        seeds = [w.seed for w in SUITE.values()]
        assert len(set(seeds)) == len(seeds)


class TestWorkloadDeterminism:
    """Two setups of the same workload must build bit-identical inputs."""

    def test_ntt_inputs_deterministic(self):
        w = get_workload("ntt.forward.n4096")
        s1, s2 = w.setup(w.seed), w.setup(w.seed)
        assert np.array_equal(s1["coeffs"], s2["coeffs"])
        assert np.array_equal(s1["values"], s2["values"])
        assert s1["ctx"] is s2["ctx"]  # cached factory

    def test_rns_inputs_deterministic(self):
        w = get_workload("rns.mul.n4096x5")
        s1, s2 = w.setup(w.seed), w.setup(w.seed)
        assert np.array_equal(s1["a"].data, s2["a"].data)
        assert np.array_equal(s1["b"].data, s2["b"].data)

    def test_ckks_inputs_deterministic(self):
        w = get_workload("ckks.rotation")
        s1, s2 = w.setup(w.seed), w.setup(w.seed)
        assert np.array_equal(s1["ct"].c0.data, s2["ct"].c0.data)
        assert np.array_equal(s1["ct"].c1.data, s2["ct"].c1.data)

    def test_rns_run_output_deterministic(self):
        w = get_workload("rns.mul.n4096x5")
        state = w.setup(w.seed)
        assert np.array_equal(w.run(state).data, w.run(state).data)


class TestRunnerAndRoundTrip:
    def test_run_workload_record_shape(self):
        record = run_workload("rns.add.n4096x5", warmup=1, repeats=3)
        assert record["repeats"] == 3
        assert len(record["samples_ns"]) == 3
        assert 0 < record["min_ns"] <= record["median_ns"]

    def test_report_round_trip(self, tmp_path):
        report = _report(**{"rns.add.n4096x5": 1234.5})
        path = tmp_path / "bench.json"
        save_report(report, path)
        assert load_report(path) == report
        # On-disk form is sorted, indented, newline-terminated JSON.
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text)["schema"] == SCHEMA

    def test_validate_rejects_bad_reports(self):
        with pytest.raises(ValueError, match="schema"):
            validate_report({"schema": "nope", "calibration_ns": 1,
                             "workloads": {"a": {}}})
        with pytest.raises(ValueError, match="calibration_ns"):
            validate_report({"schema": SCHEMA, "calibration_ns": 0,
                             "workloads": {"a": {}}})
        with pytest.raises(ValueError, match="median_ns"):
            validate_report(_report(**{"a": -5.0}))
        with pytest.raises(ValueError, match="workloads"):
            validate_report({"schema": SCHEMA, "calibration_ns": 1.0,
                             "workloads": {}})


class TestCompare:
    def test_threshold_boundary(self):
        old = _report(**{"k": 1000.0})
        # Exactly at +20%: not a regression (strictly-greater-than gate).
        at = compare_reports(old, _report(**{"k": 1200.0}), 20.0)
        assert not at.has_regressions
        # Just above: flagged.
        above = compare_reports(old, _report(**{"k": 1200.0001}), 20.0)
        assert above.has_regressions
        assert above.regressions[0].name == "k"

    def test_calibration_normalizes_machine_speed(self):
        old = _report(calibration=1000.0, **{"k": 1000.0})
        # Twice as slow in wall time, but the machine is twice as slow
        # too — normalized ratio is 1.0, not a regression.
        new = _report(calibration=2000.0, **{"k": 2000.0})
        assert not compare_reports(old, new, 20.0).has_regressions

    def test_faster_machine_does_not_flag_python_bound_workloads(self):
        # The calibration kernel sped up 2x but the workload's wall time
        # is unchanged (e.g. interpreter-bound): the normalized view says
        # "+100%" while the raw view says "+0%" — not a code regression.
        old = _report(calibration=1000.0, **{"k": 1000.0})
        new = _report(calibration=500.0, **{"k": 1000.0})
        assert not compare_reports(old, new, 20.0).has_regressions

    def test_regression_in_both_views_is_flagged(self):
        old = _report(calibration=1000.0, **{"k": 1000.0})
        new = _report(calibration=1000.0, **{"k": 1500.0})
        result = compare_reports(old, new, 20.0)
        assert result.has_regressions
        delta = result.regressions[0]
        assert delta.raw_ratio == pytest.approx(1.5)
        assert delta.norm_ratio == pytest.approx(1.5)

    def test_missing_workload_is_regression(self):
        old = _report(**{"a": 100.0, "b": 100.0})
        new = _report(**{"a": 100.0})
        result = compare_reports(old, new, 20.0)
        assert result.has_regressions
        assert result.regressions[0].missing
        assert "MISSING" in result.render()

    def test_new_workloads_are_informational(self):
        old = _report(**{"a": 100.0})
        new = _report(**{"a": 100.0, "extra": 1.0})
        assert not compare_reports(old, new, 20.0).has_regressions

    def test_faster_is_never_flagged(self):
        old = _report(**{"a": 100.0})
        assert not compare_reports(
            old, _report(**{"a": 1.0}), 20.0).has_regressions

    def test_raised_count_fails_exactly(self):
        old = _report(**{"k": 1000.0})
        old["workloads"]["k"]["ops_per_run"] = {"sim.engine.events": 8.0,
                                                "sim.engine.runs": 1.0}
        new = copy.deepcopy(old)
        # Faster, one count lower, one count new: all pass.
        new["workloads"]["k"]["median_ns"] = 500.0
        new["workloads"]["k"]["ops_per_run"] = {"sim.engine.events": 7.0,
                                                "sim.engine.runs": 1.0,
                                                "extra": 5.0}
        assert not compare_reports(old, new, 20.0).has_regressions
        new["workloads"]["k"]["ops_per_run"]["sim.engine.runs"] = 1.5
        result = compare_reports(old, new, 20.0)
        assert [d.name for d in result.regressions] == ["k"]
        assert result.regressions[0].counts_rose == (
            ("sim.engine.runs", 1.0, 1.5),)
        assert "COUNT ROSE: sim.engine.runs 1 -> 1.5" in result.render()

    def test_committed_baseline_count_gate(self):
        """Any committed count edited down by 1 fails the compare."""
        baseline = load_report(_BASELINE)
        assert not compare_reports(baseline, baseline, 20.0).has_regressions
        for name, record in baseline["workloads"].items():
            for op, count in record["ops_per_run"].items():
                if count < 1:
                    continue
                edited = copy.deepcopy(baseline)
                edited["workloads"][name]["ops_per_run"][op] = count - 1
                result = compare_reports(edited, baseline, 20.0)
                assert [d.name for d in result.regressions] == [name]


class TestCli:
    def _write(self, path, report):
        path.write_text(json.dumps(report))

    def test_compare_exit_codes(self, tmp_path):
        old = _report(**{"k": 1000.0})
        self._write(tmp_path / "old.json", old)
        self._write(tmp_path / "ok.json", _report(**{"k": 1100.0}))
        slow = copy.deepcopy(old)
        slow["workloads"]["k"]["median_ns"] *= 2
        self._write(tmp_path / "slow.json", slow)

        lines = []
        assert main(["perf", "compare", str(tmp_path / "old.json"),
                     str(tmp_path / "ok.json")], out=lines.append) == 0
        assert main(["perf", "compare", str(tmp_path / "old.json"),
                     str(tmp_path / "slow.json"),
                     "--max-regress", "20"], out=lines.append) == 1
        # Generous threshold lets the 2x slowdown through.
        assert main(["perf", "compare", str(tmp_path / "old.json"),
                     str(tmp_path / "slow.json"),
                     "--max-regress", "150"], out=lines.append) == 0

    def test_compare_fails_on_a_lowered_baseline_count(self, tmp_path):
        baseline = load_report(_BASELINE)
        edited = copy.deepcopy(baseline)
        ops = edited["workloads"]["sim.hydra_l.bert_decode_pcmm_step"][
            "ops_per_run"]
        ops["sim.engine.events"] -= 1
        self._write(tmp_path / "edited.json", edited)
        lines = []
        assert main(["perf", "compare", str(tmp_path / "edited.json"),
                     str(_BASELINE)], out=lines.append) == 1
        assert "COUNT ROSE: sim.engine.events" in "\n".join(lines)

    def test_compare_rejects_malformed_input(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        good = tmp_path / "good.json"
        self._write(good, _report(**{"k": 1.0}))
        assert main(["perf", "compare", str(bad), str(good)],
                    out=lambda _line: None) == 2

    def test_run_subset_writes_report(self, tmp_path):
        out_path = tmp_path / "new.json"
        lines = []
        code = main(["perf", "run", "--workloads", "rns.add.n4096x5",
                     "--warmup", "1", "--repeats", "2",
                     "--out", str(out_path)], out=lines.append)
        assert code == 0
        report = load_report(out_path)
        assert list(report["workloads"]) == ["rns.add.n4096x5"]

    def test_run_unknown_workload_errors(self):
        lines = []
        assert main(["perf", "run", "--workloads", "nope"],
                    out=lines.append) == 2
        assert any("unknown workload" in line for line in lines)

    def test_run_list(self):
        lines = []
        assert main(["perf", "run", "--list"], out=lines.append) == 0
        assert len(lines) == len(EXPECTED_WORKLOADS)


class TestNttContextFactory:
    """The memoized factory is what makes repeated setups cheap."""

    def test_context_factory_returns_same_object(self):
        degree = 64
        q = find_ntt_primes(degree, 20, 1)[0]
        assert get_ntt_context(degree, q) is get_ntt_context(degree, q)

    def test_kernel_factory_returns_same_object(self):
        degree = 64
        q = find_ntt_primes(degree, 20, 1)[0]
        assert (get_ntt_kernel(degree, (q,))
                is get_ntt_kernel(degree, (q,)))

    def test_distinct_parameters_distinct_contexts(self):
        degree = 64
        q1, q2 = find_ntt_primes(degree, 20, 2)
        assert get_ntt_context(degree, q1) is not get_ntt_context(degree, q2)
