"""Timing engine for the pinned perf suite.

Each workload is measured with explicit warmup iterations (JIT-free
Python still benefits: NumPy kernels fault in pages, caches fill, the
memoized NTT/keyswitch tables build) followed by ``repeats`` timed runs
via :func:`time.perf_counter_ns`.  We report the **median** (robust
location) and the **min** (best-case floor) — never the mean, which a
single scheduler hiccup can ruin.

Machine normalization: absolute nanoseconds are incomparable across CI
runners, so every report carries ``calibration_ns`` scores — the median
time of a fixed NumPy spin kernel.  One score is taken at suite start
(report level) and one **immediately before each workload's timing
loop** (record level), because shared runners drift on minute scales;
the comparator divides workload medians by the nearest-in-time score,
turning "did the machine get slower?" into a no-op and leaving "did the
code get slower?" as the signal.

Op-level metrics from :mod:`repro.obs` are captured per workload under a
fresh registry, so a report also records *how much work* each benchmark
did (NTT calls, evaluator ops) — a regression in those counts is visible
even when wall time hides it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.obs.metrics import MetricsRegistry, counter_totals, use_registry
from repro.perf.workloads import SUITE, get_workload

__all__ = [
    "DEFAULT_REPEATS",
    "DEFAULT_WARMUP",
    "calibrate",
    "run_suite",
    "run_workload",
]

DEFAULT_WARMUP = 2
DEFAULT_REPEATS = 7

_CALIBRATION_SIZE = 1 << 16
_CALIBRATION_REPEATS = 9


def _calibration_kernel(data, q):
    """Fixed modular-arithmetic kernel shaped like our hot loops."""
    s = data * np.uint64(3) % q
    s = s + data
    return np.minimum(s, s - q)


def calibrate(repeats=_CALIBRATION_REPEATS):
    """Median ns of the fixed spin kernel on this machine, right now."""
    rng = np.random.default_rng(0xC0FFEE)
    q = np.uint64((1 << 30) - 35)
    data = rng.integers(0, int(q), _CALIBRATION_SIZE, dtype=np.uint64)
    _calibration_kernel(data, q)  # warm
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        _calibration_kernel(data, q)
        samples.append(time.perf_counter_ns() - t0)
    return float(statistics.median(samples))


def run_workload(workload, warmup=DEFAULT_WARMUP, repeats=DEFAULT_REPEATS):
    """Measure one workload; returns its result record (plain JSON)."""
    if isinstance(workload, str):
        workload = get_workload(workload)
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    state = workload.setup(workload.seed)
    for _ in range(warmup):
        workload.run(state)
    # Snapshot machine speed right next to the timed loop: shared
    # runners drift on minute scales, so a suite-start score is stale by
    # the time the last workload runs.
    calibration_ns = calibrate()
    samples = []
    registry = MetricsRegistry()
    with use_registry(registry):
        for _ in range(repeats):
            t0 = time.perf_counter_ns()
            workload.run(state)
            samples.append(time.perf_counter_ns() - t0)
    totals = counter_totals(registry.snapshot())
    # Metrics accumulate over all repeats; report per-run op counts.
    ops = {name: value / repeats for name, value in totals.items()}
    return {
        "description": workload.description,
        "warmup": warmup,
        "repeats": repeats,
        "calibration_ns": calibration_ns,
        "median_ns": float(statistics.median(samples)),
        "min_ns": float(min(samples)),
        "samples_ns": [int(s) for s in samples],
        "ops_per_run": ops,
    }


def run_suite(names=None, warmup=DEFAULT_WARMUP, repeats=DEFAULT_REPEATS,
              progress=None):
    """Run the pinned suite (or a named subset) and return a report.

    The report is the "repro.perf/v1" JSON document that
    :mod:`repro.perf.baseline` stores and compares.
    """
    if names is None:
        names = tuple(SUITE)
    calibration_ns = calibrate()
    workloads = {}
    for name in names:
        workload = get_workload(name)
        if progress is not None:
            progress(f"perf: {name} ...")
        workloads[name] = run_workload(workload, warmup=warmup,
                                       repeats=repeats)
    return {
        "schema": "repro.perf/v1",
        "calibration_ns": calibration_ns,
        "warmup": warmup,
        "repeats": repeats,
        "workloads": workloads,
    }
