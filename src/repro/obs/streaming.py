"""Bounded-memory streaming aggregators (``repro.obs`` v2).

The accumulate-then-report pattern (collect every latency, sort once at
the end) is linear in the horizon: a 10⁶-request serving run holds 10⁶
floats per tenant before the report can say "p99".  The aggregators here
replace it with **fixed-memory, deterministic** state:

* :class:`StreamingHistogram` — a fixed-boundary log-bucketed histogram
  (DDSketch-style) with an exact-mode fallback for small samples.
  Quantile estimates carry a *documented, tested* relative error bound:
  for values ``>= min_value`` the streamed quantile ``est`` satisfies
  ``|est - exact| <= relative_accuracy * exact`` against the exact
  nearest-rank quantile, and samples below ``exact_limit`` are answered
  exactly from retained values.  Memory is ``O(log(max/min) /
  log(gamma))`` buckets, independent of the observation count.
* :class:`WindowedCounter` — event counts/sums over a fixed number of
  aligned windows spanning ``[0, horizon)``; events past the horizon
  clamp into the final window.  Memory is ``O(num_windows)``.
* :class:`TimeWeightedWindows` / :class:`TimeWeightedValue` — windowed
  and whole-run time-weighted means of step signals (queue depth) and
  interval coverage (cluster busy time).
* :class:`StreamingIntervalUnion` — the union length of an interval
  stream whose *release times* are nondecreasing, finalized on the fly
  so only in-flight intervals stay resident.

Every aggregator is pure bookkeeping over the values fed in — no wall
clock, no randomness — so snapshots are byte-deterministic and merge
deterministically, the same contract :mod:`repro.obs.metrics` snapshots
honor across the :mod:`repro.runtime` process-pool boundary.
"""

from __future__ import annotations

import math

__all__ = [
    "DEFAULT_EXACT_LIMIT",
    "DEFAULT_RELATIVE_ACCURACY",
    "StreamingHistogram",
    "StreamingIntervalUnion",
    "TimeWeightedValue",
    "TimeWeightedWindows",
    "WindowedCounter",
]

#: Default relative accuracy of streamed quantiles (1%).
DEFAULT_RELATIVE_ACCURACY = 0.01

#: Observations retained exactly before folding into log buckets.
DEFAULT_EXACT_LIMIT = 256

#: Values below this are counted in the zero bucket (estimate 0.0); the
#: relative error bound applies to values at or above it.
DEFAULT_MIN_VALUE = 1e-9


def nearest_rank(sorted_values, q):
    """Exact nearest-rank percentile of pre-sorted values (None if empty)."""
    if not sorted_values:
        return None
    if not 0 < q <= 100:
        raise ValueError(f"percentile q must be in (0, 100], got {q}")
    rank = math.ceil(q / 100.0 * len(sorted_values))
    return sorted_values[rank - 1]


class StreamingHistogram:
    """Log-bucketed quantile sketch with an exact-mode fallback.

    Buckets have *fixed* boundaries ``(gamma**(k-1), gamma**k]`` with
    ``gamma = (1 + a) / (1 - a)`` for ``a = relative_accuracy`` — they
    depend only on the constructor arguments, never on the data, so two
    histograms fed the same values in any order hold identical state.
    A value in bucket ``k`` is estimated as ``2 * gamma**k / (gamma +
    1)``, which is within ``a`` (relative) of anywhere in the bucket;
    quantile estimates are additionally clamped into ``[min, max]``
    (both tracked exactly), which can only shrink the error.

    The first ``exact_limit`` observations are retained verbatim and
    quantiles over them are **exact** nearest-rank values; once the
    count exceeds the limit the retained values fold into buckets and
    the sketch streams from then on.  ``exact=True`` disables promotion
    entirely (the ``--exact`` escape hatch: unbounded memory, exact
    answers — for tests and small runs).

    ``count`` / ``sum`` / ``min`` / ``max`` (hence ``mean``) are always
    exact in either mode.
    """

    __slots__ = ("relative_accuracy", "min_value", "exact_limit", "exact",
                 "_gamma", "_log_gamma", "count", "sum", "min", "max",
                 "_zero", "_buckets", "_values")

    def __init__(self, relative_accuracy=DEFAULT_RELATIVE_ACCURACY,
                 min_value=DEFAULT_MIN_VALUE,
                 exact_limit=DEFAULT_EXACT_LIMIT, exact=False):
        if not 0 < relative_accuracy < 1:
            raise ValueError("relative_accuracy must be in (0, 1)")
        if min_value <= 0:
            raise ValueError("min_value must be positive")
        self.relative_accuracy = float(relative_accuracy)
        self.min_value = float(min_value)
        self.exact_limit = int(exact_limit)
        self.exact = bool(exact)
        self._gamma = (1.0 + relative_accuracy) / (1.0 - relative_accuracy)
        self._log_gamma = math.log(self._gamma)
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None
        self._zero = 0  # values in [0, min_value)
        self._buckets = {}  # bucket index -> count
        self._values = []  # retained exact values (until promotion)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _index(self, value):
        return math.ceil(math.log(value) / self._log_gamma)

    def _bucket_estimate(self, index):
        return 2.0 * self._gamma ** index / (self._gamma + 1.0)

    def _fold(self, value):
        if value < self.min_value:
            self._zero += 1
        else:
            index = self._index(value)
            self._buckets[index] = self._buckets.get(index, 0) + 1

    def _promote(self):
        """Fold retained exact values into buckets (one-way)."""
        for value in self._values:
            self._fold(value)
        self._values = []

    @property
    def _is_raw(self):
        """True while every observation is still retained verbatim."""
        return not self._buckets and not self._zero

    @property
    def is_exact(self):
        """True while quantiles are answered from retained raw values."""
        return self.count == len(self._values)

    @property
    def bucket_count(self):
        """Resident bucket cells (the memory bound, data-independent)."""
        return len(self._buckets)

    def add(self, value):
        """Record one observation of ``value`` (``value >= 0``)."""
        value = float(value)
        if value < 0:
            raise ValueError(f"StreamingHistogram values must be >= 0, "
                             f"got {value}")
        self.count += 1
        self.sum += value
        if self.min is None:
            self.min = self.max = value
        else:
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
        if self.exact or (self.count <= self.exact_limit and self._is_raw):
            self._values.append(value)
            return
        if self._values:
            self._promote()
        self._fold(value)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def mean(self):
        return self.sum / self.count if self.count else None

    def quantile(self, q):
        """Nearest-rank quantile: exact below ``exact_limit``, else the
        bucket estimate (within ``relative_accuracy`` of exact)."""
        if not self.count:
            return None
        if self._values:
            return nearest_rank(sorted(self._values), q)
        rank = math.ceil(q / 100.0 * self.count)
        seen = self._zero
        if seen >= rank:
            return self._clamp(0.0)
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= rank:
                return self._clamp(self._bucket_estimate(index))
        return self.max  # pragma: no cover - counts always add up

    def _clamp(self, estimate):
        if self.min is not None:
            estimate = max(estimate, self.min)
        if self.max is not None:
            estimate = min(estimate, self.max)
        return estimate

    def summary(self, quantiles=(50, 95, 99)):
        """The report-ready dict: count/mean/max plus quantiles."""
        out = {"count": self.count,
               "mean": self.mean,
               "max": self.max}
        for q in quantiles:
            out[f"p{q:g}"] = self.quantile(q)
        return out

    # ------------------------------------------------------------------
    # Snapshots and merging
    # ------------------------------------------------------------------

    def snapshot(self):
        """Plain-JSON state (sorted keys; values sorted when retained)."""
        return {
            "relative_accuracy": self.relative_accuracy,
            "min_value": self.min_value,
            "exact_limit": self.exact_limit,
            "exact": self.exact,
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "zero_count": self._zero,
            "buckets": {str(k): self._buckets[k]
                        for k in sorted(self._buckets)},
            "values": sorted(self._values),
        }

    @classmethod
    def from_snapshot(cls, snap):
        hist = cls(relative_accuracy=snap["relative_accuracy"],
                   min_value=snap["min_value"],
                   exact_limit=snap["exact_limit"],
                   exact=snap["exact"])
        hist.count = snap["count"]
        hist.sum = snap["sum"]
        hist.min = snap["min"]
        hist.max = snap["max"]
        hist._zero = snap["zero_count"]
        hist._buckets = {int(k): v for k, v in snap["buckets"].items()}
        hist._values = list(snap["values"])
        return hist

    def merge(self, other):
        """Accumulate ``other`` (a histogram or snapshot) into self.

        Both sides must share bucket parameters; the merged sketch holds
        exactly the state of one sketch fed both value streams (up to
        exact-mode retention: the merge stays exact only while the
        combined count fits under ``exact_limit``).
        """
        if isinstance(other, dict):
            other = StreamingHistogram.from_snapshot(other)
        if (other.relative_accuracy != self.relative_accuracy
                or other.min_value != self.min_value):
            raise ValueError(
                "cannot merge histograms with different bucket layouts"
            )
        if not other.count:
            return self
        self.count += other.count
        self.sum += other.sum
        for side, pick in (("min", min), ("max", max)):
            theirs = getattr(other, side)
            ours = getattr(self, side)
            if theirs is not None:
                setattr(self, side,
                        theirs if ours is None else pick(ours, theirs))
        if self._is_raw and other._is_raw and (
                (self.exact and other.exact)
                or self.count <= self.exact_limit):
            # Both sides still hold raw values and the combined sample
            # stays answerable exactly: keep it exact.
            self._values.extend(other._values)
            return self
        self.exact = self.exact and other.exact
        if self._values:
            self._promote()
        for value in other._values:
            self._fold(value)
        self._zero += other._zero
        for index, count in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + count
        return self


class WindowedCounter:
    """Event counts over ``num_windows`` aligned windows of ``[0, horizon)``.

    Window boundaries are fixed at construction (``horizon /
    num_windows``), so memory is ``O(num_windows)`` whatever the event
    count; events at or past the horizon (post-horizon queue drain)
    clamp into the final window.
    """

    __slots__ = ("horizon", "num_windows", "window_seconds", "_counts")

    def __init__(self, horizon, num_windows):
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        if num_windows < 1:
            raise ValueError("num_windows must be >= 1")
        self.horizon = float(horizon)
        self.num_windows = int(num_windows)
        self.window_seconds = self.horizon / self.num_windows
        self._counts = [0.0] * self.num_windows

    def add(self, t, value=1.0):
        if t < 0:
            raise ValueError(f"negative event time {t}")
        index = int(t / self.window_seconds)
        last = self.num_windows - 1
        self._counts[index if index < last else last] += value

    @property
    def total(self):
        return sum(self._counts)

    def counts(self):
        return list(self._counts)

    def rates(self):
        """Per-window event rate (count / window width)."""
        return [c / self.window_seconds for c in self._counts]


class TimeWeightedWindows:
    """Time-weighted accumulation of interval coverage into fixed windows.

    ``add_interval(start, end, value)`` spreads ``value`` over the
    overlap of ``[start, end)`` with each window; ``means()`` divides by
    window width, yielding e.g. per-window busy fraction (``value=1``
    during compute) or mean queue depth (``value=depth`` between
    transitions).  Intervals are clipped to ``[0, horizon)``.
    """

    __slots__ = ("horizon", "num_windows", "window_seconds", "_weighted")

    def __init__(self, horizon, num_windows):
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        if num_windows < 1:
            raise ValueError("num_windows must be >= 1")
        self.horizon = float(horizon)
        self.num_windows = int(num_windows)
        self.window_seconds = self.horizon / self.num_windows
        self._weighted = [0.0] * self.num_windows

    def add_interval(self, start, end, value=1.0):
        start = max(0.0, float(start))
        end = min(float(end), self.horizon)
        if end <= start or value == 0.0:
            return
        width = self.window_seconds
        final = self.num_windows - 1
        first = int(start / width)
        last = int(end / width)
        weighted = self._weighted
        for index in range(first if first < final else final,
                           (last if last < final else final) + 1):
            # Clip the window to [start, end); ``end`` is already
            # clipped to the horizon, which closes the final window.
            lo = index * width
            if lo < start:
                lo = start
            if index == final:
                hi = end
            else:
                hi = (index + 1) * width
                if hi > end:
                    hi = end
            if hi > lo:
                weighted[index] += value * (hi - lo)

    def weighted(self):
        return list(self._weighted)

    def means(self):
        return [w / self.window_seconds for w in self._weighted]


class TimeWeightedValue:
    """Whole-run mean/max of a step signal, plus its windowed means.

    Tracks a piecewise-constant signal (queue depth) through
    ``update(t, value)`` transitions: the previous value is weighted
    over ``[last_t, t)`` — into the running total *and* the windows —
    and ``value`` becomes current.  ``finish(horizon)`` extends the
    final value to the horizon.  State is ``O(num_windows)``.
    """

    __slots__ = ("windows", "max_value", "_weighted_total", "_last_t",
                 "_last_value")

    def __init__(self, horizon, num_windows):
        self.windows = TimeWeightedWindows(horizon, num_windows)
        self.max_value = 0.0
        self._weighted_total = 0.0
        self._last_t = 0.0
        self._last_value = 0.0

    def update(self, t, value):
        last_t = self._last_t
        if t < last_t:
            raise ValueError(f"non-monotonic update: {t} < {last_t}")
        last_value = self._last_value
        if t > last_t and last_value:
            self._weighted_total += last_value * (t - last_t)
            self.windows.add_interval(last_t, t, last_value)
        self._last_t = t
        value = self._last_value = float(value)
        if value > self.max_value:
            self.max_value = value

    def finish(self, horizon):
        """Flush the final segment; returns self for chaining."""
        if horizon > self._last_t:
            self.update(horizon, self._last_value)
        return self

    def mean(self, horizon):
        return self._weighted_total / horizon if horizon > 0 else 0.0


class StreamingIntervalUnion:
    """Union length of an interval stream with nondecreasing release times.

    ``add(start, end, now)`` asserts the *caller's clock*: every future
    interval will satisfy ``start >= now`` (true for dispatch-time
    commits — a batch scheduled at simulated time ``now`` never starts a
    phase before ``now``).  Any merged interval ending at or before
    ``now`` can therefore never gain new overlap and is folded into a
    running length, keeping resident state at the in-flight interval
    count rather than the horizon.

    Produces exactly the union length :func:`repro.obs.overlap_report`
    computes from a full trace (an equivalence test pins this).
    """

    __slots__ = ("_finalized", "_active", "_now")

    def __init__(self):
        self._finalized = 0.0
        self._active = []  # disjoint (start, end), sorted
        self._now = 0.0

    def add(self, start, end, now=None):
        if now is None:
            now = start
        if now < self._now:
            raise ValueError(f"non-monotonic release time {now}")
        self._now = now
        if end > start:
            new = (float(start), float(end))
            active = self._active
            if not active or new[0] > active[-1][1]:
                # After every active interval (the last one ends last):
                # nothing merges and the list stays sorted.  One that
                # starts exactly where the last ends merges below.
                active.append(new)
            else:
                merged = []
                placed = False
                for interval in active:
                    if interval[1] < new[0] or new[1] < interval[0]:
                        if not placed and interval[0] > new[1]:
                            merged.append(new)
                            placed = True
                        merged.append(interval)
                    else:
                        new = (min(interval[0], new[0]),
                               max(interval[1], new[1]))
                if not placed:
                    merged.append(new)
                merged.sort()
                self._active = merged
        still_active = []
        for interval in self._active:
            if interval[1] <= now:
                self._finalized += interval[1] - interval[0]
            else:
                still_active.append(interval)
        self._active = still_active

    @property
    def active_count(self):
        """Resident intervals (the memory bound)."""
        return len(self._active)

    @property
    def length(self):
        return self._finalized + sum(e - s for s, e in self._active)
