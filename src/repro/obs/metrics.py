"""Labeled metrics with mergeable, deterministic snapshots.

A :class:`MetricsRegistry` holds named **counters**, **gauges** and
**histograms**, each keyed by a sorted label string.  A registry
``snapshot()`` is a plain JSON structure — no live objects — so it
pickles across the :mod:`repro.runtime` process-pool boundary: workers
run with a fresh registry, return its snapshot alongside the result, and
the parent merges snapshots **in request order** with
:func:`merge_snapshots`.  Because both the snapshot layout and the merge
order are deterministic, a ``jobs=4`` execution merges bit-identically
to a serial one.

Instrumented code records through the module-level *active* registry::

    from repro.obs.metrics import inc

    inc("ckks.evaluator.ops", op="cmult")

which is a dictionary update under the registry's lock.  One registry
may be shared by threads — the live server's CKKS worker threads record
into the registry ``/metrics`` reads, and so does its event loop when
it refuses a request at max inflight — so every update and snapshot
holds that lock; an unlocked read-modify-write loses counts under
contention.  The serving engine's per-event counts do not come through
here: :meth:`repro.serve.EngineCore.counters` renders its ``serve.*``
counters in a snapshot's ``counters`` layout from the tallies the core
keeps anyway, and the live server merges them in at scrape time.
:func:`use_registry` swaps the active registry for a scope (the runtime
executor does this around every simulated request).
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager

__all__ = [
    "DEFAULT_BUCKETS",
    "MetricsRegistry",
    "counter_totals",
    "get_registry",
    "inc",
    "merge_snapshots",
    "observe",
    "set_gauge",
    "set_registry",
    "use_registry",
]

#: Default histogram bucket upper bounds (seconds-flavoured; 1 µs – 1000 s).
DEFAULT_BUCKETS = tuple(10.0 ** e for e in range(-6, 4))

_INF = "+Inf"


def _label_key(labels):
    """Canonical label encoding: sorted ``k=v`` pairs joined by commas."""
    if not labels:
        return ""
    return ",".join(f"{k}={labels[k]}" for k in sorted(labels))


def _bucket_key(bound):
    return _INF if math.isinf(bound) else f"{bound:g}"


class MetricsRegistry:
    """Counters, gauges and histograms with deterministic snapshots.

    Recording and :meth:`snapshot` are thread-safe: each holds the
    registry's one lock.
    """

    def __init__(self):
        self._counters = {}  # name -> {label_key: float}
        self._gauges = {}  # name -> {label_key: float}
        self._hists = {}  # name -> {label_key: hist dict}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def inc(self, name, value=1, **labels):
        """Add ``value`` to counter ``name`` for the given labels."""
        key = _label_key(labels)
        with self._lock:
            series = self._counters.setdefault(name, {})
            series[key] = series.get(key, 0) + value

    def set_gauge(self, name, value, **labels):
        """Set gauge ``name`` to ``value`` (last write wins)."""
        key = _label_key(labels)
        with self._lock:
            self._gauges.setdefault(name, {})[key] = value

    def observe(self, name, value, buckets=DEFAULT_BUCKETS, **labels):
        """Record one observation into histogram ``name``."""
        key = _label_key(labels)
        with self._lock:
            series = self._hists.setdefault(name, {})
            hist = series.get(key)
            if hist is None:
                hist = series[key] = {
                    "count": 0,
                    "sum": 0.0,
                    "min": None,
                    "max": None,
                    "buckets": {_bucket_key(b): 0
                                for b in tuple(buckets) + (float("inf"),)},
                }
            hist["count"] += 1
            hist["sum"] += value
            hist["min"] = (value if hist["min"] is None
                           else min(hist["min"], value))
            hist["max"] = (value if hist["max"] is None
                           else max(hist["max"], value))
            for bound in buckets:
                if value <= bound:
                    hist["buckets"][_bucket_key(bound)] += 1
                    break
            else:
                hist["buckets"][_INF] += 1

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def snapshot(self):
        """Plain-JSON copy of every series, with sorted keys throughout."""

        def _sorted_series(table, copy_value):
            return {
                name: {key: copy_value(value)
                       for key, value in sorted(series.items())}
                for name, series in sorted(table.items())
            }

        def _copy_hist(hist):
            out = dict(hist)
            out["buckets"] = dict(hist["buckets"])
            return out

        with self._lock:
            return {
                "counters": _sorted_series(self._counters, lambda v: v),
                "gauges": _sorted_series(self._gauges, lambda v: v),
                "histograms": _sorted_series(self._hists, _copy_hist),
            }

    def reset(self):
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._hists.clear()

    @property
    def is_empty(self):
        return not (self._counters or self._gauges or self._hists)


def empty_snapshot():
    """The snapshot of a registry that recorded nothing."""
    return {"counters": {}, "gauges": {}, "histograms": {}}


def _merge_hist(into, hist):
    into["count"] += hist["count"]
    into["sum"] += hist["sum"]
    for side, pick in (("min", min), ("max", max)):
        if hist[side] is not None:
            into[side] = (hist[side] if into[side] is None
                          else pick(into[side], hist[side]))
    for bound, count in hist["buckets"].items():
        into["buckets"][bound] = into["buckets"].get(bound, 0) + count


def counter_totals(snapshot):
    """Collapse a snapshot's counters over labels: ``{name: total}``.

    Useful for op-level perf accounting (``repro perf run`` reports the
    number of NTTs / evaluator ops a workload performed) where the label
    breakdown is noise and only the per-name volume matters.
    """
    return {
        name: sum(series.values())
        for name, series in sorted(snapshot.get("counters", {}).items())
    }


def merge_snapshots(snapshots):
    """Merge snapshots **in iteration order** into one snapshot.

    Counters and histogram sums accumulate left to right (float addition
    is order-sensitive, so callers must supply a deterministic order —
    the runtime executor uses request order); gauges are last-write-wins.
    The result is re-sorted, so ``merge([a]) == a`` up to key order.
    """
    merged = empty_snapshot()
    for snap in snapshots:
        for name, series in snap.get("counters", {}).items():
            out = merged["counters"].setdefault(name, {})
            for key, value in series.items():
                out[key] = out.get(key, 0) + value
        for name, series in snap.get("gauges", {}).items():
            merged["gauges"].setdefault(name, {}).update(series)
        for name, series in snap.get("histograms", {}).items():
            out = merged["histograms"].setdefault(name, {})
            for key, hist in series.items():
                if key in out:
                    _merge_hist(out[key], hist)
                else:
                    out[key] = {
                        "count": hist["count"],
                        "sum": hist["sum"],
                        "min": hist["min"],
                        "max": hist["max"],
                        "buckets": dict(hist["buckets"]),
                    }
    for kind, table in merged.items():
        merged[kind] = {
            name: dict(sorted(series.items()))
            for name, series in sorted(table.items())
        }
    return merged


# ----------------------------------------------------------------------
# The active registry
# ----------------------------------------------------------------------

_registry = MetricsRegistry()


def get_registry():
    """The registry instrumented code currently records into."""
    return _registry


def set_registry(registry):
    """Replace the active registry; returns the previous one."""
    global _registry
    previous = _registry
    _registry = registry if registry is not None else MetricsRegistry()
    return previous


@contextmanager
def use_registry(registry):
    """Scope ``registry`` as the active one (restores on exit)."""
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


def inc(name, value=1, **labels):
    """Increment a counter on the active registry."""
    _registry.inc(name, value, **labels)


def set_gauge(name, value, **labels):
    """Set a gauge on the active registry."""
    _registry.set_gauge(name, value, **labels)


def observe(name, value, buckets=DEFAULT_BUCKETS, **labels):
    """Record a histogram observation on the active registry."""
    _registry.observe(name, value, buckets=buckets, **labels)
