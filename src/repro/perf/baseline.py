"""Baseline store and regression comparator for perf reports.

A baseline is a ``repro.perf/v1`` report (see :mod:`repro.perf.runner`)
committed to the repository as ``BENCH_perf.json``.  CI re-runs the suite
on every push and compares against the committed file:

    repro perf compare BENCH_perf.json bench_new.json --max-regress 20

Comparison is **machine-normalized**: each workload's median is divided
by its report's ``calibration_ns`` spin-loop score before computing a
normalized ratio, so a slower CI runner does not read as a code
regression.  Because a single scalar score cannot capture every regime
(a NumPy-bound kernel and a Python-bound scheduler react differently to
machine load), a workload is flagged only when **both** its raw ratio
and its normalized ratio exceed the threshold: a genuine code
regression slows the workload in both views, while a machine-speed
shift moves exactly one of them.  A workload present in the baseline
but missing from the new report is a failure (the pinned suite must
never silently shrink).

Work counts gate exactly.  Each record's ``ops_per_run`` (evaluator
ops, NTTs, simulator events, ...) is deterministic on any host, so a
workload also fails when any count its baseline records rises.  A change
that adds work on purpose regenerates that baseline row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

__all__ = [
    "SCHEMA",
    "CompareResult",
    "WorkloadDelta",
    "compare_reports",
    "load_report",
    "save_report",
    "validate_report",
]

SCHEMA = "repro.perf/v1"


def validate_report(report, source="report"):
    """Raise ``ValueError`` unless ``report`` is a well-formed v1 report."""
    if not isinstance(report, dict):
        raise ValueError(f"{source}: expected a JSON object")
    schema = report.get("schema")
    if schema != SCHEMA:
        raise ValueError(
            f"{source}: unsupported schema {schema!r} (expected {SCHEMA!r})"
        )
    calibration = report.get("calibration_ns")
    if not isinstance(calibration, (int, float)) or calibration <= 0:
        raise ValueError(f"{source}: calibration_ns must be a positive number")
    workloads = report.get("workloads")
    if not isinstance(workloads, dict) or not workloads:
        raise ValueError(f"{source}: workloads must be a non-empty object")
    for name, record in workloads.items():
        if not isinstance(record, dict):
            raise ValueError(f"{source}: workload {name!r} is not an object")
        for field in ("median_ns", "min_ns"):
            value = record.get(field)
            if not isinstance(value, (int, float)) or value <= 0:
                raise ValueError(
                    f"{source}: workload {name!r} field {field!r} must be "
                    f"a positive number"
                )
        per_workload_cal = record.get("calibration_ns")
        if per_workload_cal is not None and (
            not isinstance(per_workload_cal, (int, float))
            or per_workload_cal <= 0
        ):
            raise ValueError(
                f"{source}: workload {name!r} calibration_ns must be a "
                f"positive number when present"
            )
    return report


def save_report(report, path):
    """Write a validated report as pretty, sorted, diff-friendly JSON."""
    validate_report(report)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_report(path):
    """Read and validate a report from ``path``."""
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    return validate_report(report, source=str(path))


@dataclass(frozen=True)
class WorkloadDelta:
    """Old-vs-new comparison for one workload."""

    name: str
    old_norm: float   # old median / old calibration score
    new_norm: float   # new median / new calibration score
    raw_ratio: float  # new median / old median (wall time)
    norm_ratio: float # new_norm / old_norm (machine-normalized)
    regressed: bool
    missing: bool = False
    #: ``(name, old, new)`` for every baseline count that rose
    counts_rose: tuple = ()

    @property
    def ratio(self):
        """The gated ratio: the more favorable of the two views."""
        return min(self.raw_ratio, self.norm_ratio)

    @property
    def change_pct(self):
        return (self.ratio - 1.0) * 100.0


@dataclass(frozen=True)
class CompareResult:
    """Outcome of comparing a new report against a baseline."""

    deltas: tuple
    max_regress_pct: float

    @property
    def regressions(self):
        return tuple(d for d in self.deltas
                     if d.regressed or d.missing or d.counts_rose)

    @property
    def has_regressions(self):
        return bool(self.regressions)

    def render(self):
        """Human-readable table, one line per workload."""
        lines = [
            f"{'workload':34s} {'old':>10s} {'new':>10s} "
            f"{'change':>8s}  status"
        ]
        for d in self.deltas:
            if d.missing:
                lines.append(
                    f"{d.name:34s} {d.old_norm:10.3f} {'-':>10s} "
                    f"{'-':>8s}  MISSING"
                )
                continue
            status = "REGRESSED" if d.regressed else "ok"
            if d.counts_rose:
                status += ", COUNT ROSE: " + ", ".join(
                    f"{name} {old:g} -> {new:g}"
                    for name, old, new in d.counts_rose
                )
            lines.append(
                f"{d.name:34s} {d.old_norm:10.3f} {d.new_norm:10.3f} "
                f"{d.change_pct:+7.1f}%  {status}"
            )
        verdict = (
            f"FAIL: {len(self.regressions)} workload(s) exceed "
            f"+{self.max_regress_pct:g}% (machine-normalized), raised a "
            f"work count or went missing"
            if self.has_regressions
            else f"OK: no workload regressed beyond "
                 f"+{self.max_regress_pct:g}% (machine-normalized) or "
                 f"raised a work count"
        )
        lines.append(verdict)
        return "\n".join(lines)


def compare_reports(old, new, max_regress_pct=20.0):
    """Compare two validated reports; flags genuine slowdowns.

    A workload regresses when **both** ``new/old`` wall-time medians and
    the calibration-normalized medians exceed ``1 + max_regress_pct/100``
    (see the module docstring for why both views must agree), or when
    any ``ops_per_run`` count of its baseline record rises.  Workloads
    only present in the new report are informational (the suite grew);
    workloads only present in the baseline are failures (the suite
    shrank).
    """
    validate_report(old, source="old report")
    validate_report(new, source="new report")
    threshold = 1.0 + max_regress_pct / 100.0
    old_cal = float(old["calibration_ns"])
    new_cal = float(new["calibration_ns"])
    deltas = []
    for name, old_record in old["workloads"].items():
        # Prefer the per-workload score (taken right before the timing
        # loop) over the stale suite-start one.
        old_norm = float(old_record["median_ns"]) / float(
            old_record.get("calibration_ns", old_cal))
        new_record = new["workloads"].get(name)
        if new_record is None:
            deltas.append(WorkloadDelta(
                name=name, old_norm=old_norm, new_norm=float("nan"),
                raw_ratio=float("inf"), norm_ratio=float("inf"),
                regressed=False, missing=True,
            ))
            continue
        raw_ratio = float(new_record["median_ns"]) / float(
            old_record["median_ns"])
        new_norm = float(new_record["median_ns"]) / float(
            new_record.get("calibration_ns", new_cal))
        norm_ratio = new_norm / old_norm
        new_ops = new_record.get("ops_per_run", {})
        counts_rose = tuple(
            (op, count, new_ops[op])
            for op, count in sorted(old_record.get("ops_per_run",
                                                   {}).items())
            if new_ops.get(op, 0) > count
        )
        deltas.append(WorkloadDelta(
            name=name, old_norm=old_norm, new_norm=new_norm,
            raw_ratio=raw_ratio, norm_ratio=norm_ratio,
            regressed=min(raw_ratio, norm_ratio) > threshold,
            counts_rose=counts_rose,
        ))
    return CompareResult(deltas=tuple(deltas), max_regress_pct=max_regress_pct)
