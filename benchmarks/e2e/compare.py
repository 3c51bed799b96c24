#!/usr/bin/env python3
"""Compare two ``run.py --out`` files, metric by metric.

Usage::

    python3 benchmarks/e2e/compare.py BEFORE.json AFTER.json

For every workload in both files and every ``end_to_end`` metric of
``BENCHMARK.json``, prints one row: the two medians, their change, the
run-to-run spread, and a verdict:

* ``worse`` / ``better`` — the medians differ by more than the metric's
  bound, in its ``better`` direction;
* ``same`` — they differ by less;
* ``unresolved`` — the spread on either side exceeds the bound, so a
  difference cannot be told from noise (unless every AFTER value beats
  every BEFORE value, which reads ``better``).

Values are the per-run results when a file holds several runs of a
workload (``run.py --runs N``), else the samples inside its one run.
The spread is the interquartile range over the median.  Exits 1 when
any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def values(runs, metric):
    if len(runs) > 1:
        return [run["metrics"][metric]["value"] for run in runs]
    return runs[0]["samples"].get(metric) or [
        runs[0]["metrics"][metric]["value"]]


def spread(vals):
    if len(vals) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / statistics.median(vals)


def verdict(before, after, better, bound):
    """``(change, spread, verdict)`` for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(before)
    change = (statistics.median(after) - base) / base
    noise = max(spread(before), spread(after))
    if noise > bound:
        beats = (max(after) < min(before) if better == "lower"
                 else min(after) > max(before))
        return change, noise, "better" if beats else "unresolved"
    if sign * change > bound:
        return change, noise, "worse"
    if sign * change < -bound:
        return change, noise, "better"
    return change, noise, "same"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    before = json.loads(args.before.read_text())["runs"]
    after = json.loads(args.after.read_text())["runs"]
    worse = 0
    print(f"{'workload':<12} {'metric':<18} {'before':>12} {'after':>12} "
          f"{'change':>8} {'spread':>7} {'bound':>6}  verdict")
    for workload in sorted(set(before) & set(after)):
        for decl in declared["end_to_end"]:
            name = decl["name"]
            if name not in before[workload][0]["metrics"]:
                continue
            a = values(before[workload], name)
            b = values(after[workload], name)
            change, noise, word = verdict(a, b, decl["better"],
                                          decl["bound"])
            worse += word == "worse"
            print(f"{workload:<12} {name:<18} {statistics.median(a):>12.6g} "
                  f"{statistics.median(b):>12.6g} {change:>+8.1%} "
                  f"{noise:>7.1%} {decl['bound']:>6.0%}  {word}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
