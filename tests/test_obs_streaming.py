"""Tests for the bounded-memory streaming aggregators (repro.obs v2).

The headline contract is the quantile error bound: for any value stream,
the streamed p50/p95/p99 are within ``relative_accuracy`` (relative) of
the exact nearest-rank quantiles — and *exactly* equal below the
retention limit.  The second contract is memory: bucket cells, window
arrays and in-flight intervals stay bounded however long the stream.
"""

import json
import math
import random

import pytest

from repro.obs import (
    StreamingHistogram,
    StreamingIntervalUnion,
    TimeWeightedValue,
    TimeWeightedWindows,
    WindowedCounter,
    nearest_rank,
)
from repro.obs.report import _length, _union


def _rel_err(est, exact):
    return abs(est - exact) / exact if exact else abs(est)


class TestNearestRank:
    def test_matches_definition(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert nearest_rank(values, 50) == 2.0
        assert nearest_rank(values, 75) == 3.0
        assert nearest_rank(values, 95) == 4.0
        assert nearest_rank(values, 100) == 4.0
        assert nearest_rank([7.0], 99) == 7.0
        assert nearest_rank([], 50) is None

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="percentile"):
            nearest_rank([1.0], 0)
        with pytest.raises(ValueError, match="percentile"):
            nearest_rank([1.0], 101)


class TestStreamingHistogram:
    def test_exact_below_limit(self):
        hist = StreamingHistogram(exact_limit=64)
        values = [random.Random(0).lognormvariate(0, 1) for _ in range(60)]
        for v in values:
            hist.add(v)
        assert hist.is_exact
        ordered = sorted(values)
        for q in (50, 95, 99):
            assert hist.quantile(q) == nearest_rank(ordered, q)

    def test_error_bound_documented_and_held(self):
        # The committed bound: streamed quantiles are within
        # relative_accuracy of the exact nearest-rank quantile.
        rng = random.Random(1234)
        hist = StreamingHistogram()  # 1% default
        values = [rng.lognormvariate(0.0, 2.0) for _ in range(20000)]
        for v in values:
            hist.add(v)
        assert not hist.is_exact
        ordered = sorted(values)
        for q in (50, 95, 99):
            exact = nearest_rank(ordered, q)
            est = hist.quantile(q)
            assert _rel_err(est, exact) <= hist.relative_accuracy, (
                f"p{q}: streamed {est} vs exact {exact}"
            )

    def test_memory_is_bounded_by_dynamic_range(self):
        hist = StreamingHistogram()
        rng = random.Random(2)
        for _ in range(50000):
            hist.add(rng.uniform(1e-3, 1e3))
        # log(1e6) / log(gamma) ~ 691 buckets for a 1e6 dynamic range.
        bound = math.ceil(math.log(1e6) / math.log(hist._gamma)) + 2
        assert hist.bucket_count <= bound
        assert hist.count == 50000

    def test_exact_mode_never_promotes(self):
        hist = StreamingHistogram(exact_limit=4, exact=True)
        values = [float(i) for i in range(100)]
        for v in values:
            hist.add(v)
        assert hist.is_exact
        assert hist.bucket_count == 0
        assert hist.quantile(50) == nearest_rank(values, 50)

    def test_mean_min_max_always_exact(self):
        hist = StreamingHistogram(exact_limit=2)
        for v in (5.0, 1.0, 9.0, 3.0):
            hist.add(v)
        assert hist.min == 1.0 and hist.max == 9.0
        assert hist.mean == pytest.approx(4.5)

    def test_zero_and_tiny_values(self):
        hist = StreamingHistogram(exact_limit=1)
        hist.add(0.0)
        hist.add(1e-12)  # below min_value: zero bucket
        hist.add(10.0)
        assert hist.count == 3
        assert hist.quantile(50) == 0.0
        assert hist.quantile(100) == pytest.approx(10.0, rel=0.01)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match=">= 0"):
            StreamingHistogram().add(-1.0)

    def test_snapshot_round_trip(self):
        hist = StreamingHistogram(exact_limit=8)
        for v in (0.5, 2.0, 2.0, 100.0, 0.0, 7.5, 1e-10, 3.0, 42.0):
            hist.add(v)
        snap = hist.snapshot()
        json.dumps(snap)  # plain JSON
        clone = StreamingHistogram.from_snapshot(snap)
        assert clone.snapshot() == snap
        for q in (50, 95, 99):
            assert clone.quantile(q) == hist.quantile(q)

    def test_merge_equals_single_stream(self):
        rng = random.Random(3)
        values = [rng.lognormvariate(0, 1) for _ in range(4000)]
        whole = StreamingHistogram()
        for v in values:
            whole.add(v)
        left, right = StreamingHistogram(), StreamingHistogram()
        for v in values[:1500]:
            left.add(v)
        for v in values[1500:]:
            right.add(v)
        left.merge(right.snapshot())
        # Fixed bucket boundaries: the merged sketch holds the exact
        # bucket state of the single-stream sketch; only the running sum
        # differs, by float summation order.
        merged, single = left.snapshot(), whole.snapshot()
        assert merged.pop("sum") == pytest.approx(single.pop("sum"))
        assert merged == single

    def test_merge_keeps_exactness_under_limit(self):
        a, b = StreamingHistogram(), StreamingHistogram()
        for v in (1.0, 2.0):
            a.add(v)
        for v in (3.0, 4.0):
            b.add(v)
        a.merge(b)
        assert a.is_exact
        assert a.quantile(50) == 2.0

    def test_merge_rejects_layout_mismatch(self):
        a = StreamingHistogram(relative_accuracy=0.01)
        b = StreamingHistogram(relative_accuracy=0.02)
        b.add(1.0)
        with pytest.raises(ValueError, match="bucket layouts"):
            a.merge(b)

    def test_summary_shape(self):
        hist = StreamingHistogram()
        hist.add(1.0)
        summary = hist.summary()
        assert set(summary) == {"count", "mean", "max", "p50", "p95", "p99"}
        empty = StreamingHistogram().summary()
        assert empty["count"] == 0 and empty["p99"] is None


class TestWindowedCounter:
    def test_counts_land_in_windows(self):
        counter = WindowedCounter(horizon=10.0, num_windows=5)
        counter.add(0.0)
        counter.add(1.9)
        counter.add(4.0)
        counter.add(9.99)
        assert counter.counts() == [2.0, 0.0, 1.0, 0.0, 1.0]
        assert counter.total == 4.0
        assert counter.rates() == [1.0, 0.0, 0.5, 0.0, 0.5]

    def test_post_horizon_clamps_to_last_window(self):
        counter = WindowedCounter(horizon=10.0, num_windows=5)
        counter.add(10.0)  # queue drain past the horizon
        counter.add(57.5)
        assert counter.counts()[-1] == 2.0

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError, match="negative"):
            WindowedCounter(10.0, 5).add(-0.1)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError, match="horizon"):
            WindowedCounter(0.0, 5)
        with pytest.raises(ValueError, match="num_windows"):
            WindowedCounter(10.0, 0)


class TestTimeWeightedWindows:
    def test_interval_spread_over_windows(self):
        windows = TimeWeightedWindows(horizon=10.0, num_windows=5)
        windows.add_interval(1.0, 5.0)  # 1s in w0, 2s in w1, 1s in w2
        assert windows.weighted() == pytest.approx([1.0, 2.0, 1.0, 0.0, 0.0])
        assert windows.means() == pytest.approx([0.5, 1.0, 0.5, 0.0, 0.0])

    def test_clips_to_horizon(self):
        windows = TimeWeightedWindows(horizon=10.0, num_windows=2)
        windows.add_interval(-5.0, 100.0)
        assert sum(windows.weighted()) == pytest.approx(10.0)

    def test_zero_duration_and_zero_value_are_noops(self):
        windows = TimeWeightedWindows(horizon=10.0, num_windows=2)
        windows.add_interval(3.0, 3.0)
        windows.add_interval(1.0, 2.0, value=0.0)
        assert windows.weighted() == [0.0, 0.0]


class TestTimeWeightedValue:
    def test_step_signal_mean_and_max(self):
        depth = TimeWeightedValue(horizon=10.0, num_windows=2)
        depth.update(0.0, 2)   # depth 2 over [0, 4)
        depth.update(4.0, 6)   # depth 6 over [4, 10)
        depth.finish(10.0)
        assert depth.max_value == 6.0
        assert depth.mean(10.0) == pytest.approx((2 * 4 + 6 * 6) / 10.0)
        assert depth.windows.means() == pytest.approx([
            (2 * 4 + 6 * 1) / 5.0, 6.0,
        ])

    def test_rejects_time_travel(self):
        depth = TimeWeightedValue(horizon=10.0, num_windows=2)
        depth.update(5.0, 1)
        with pytest.raises(ValueError, match="non-monotonic"):
            depth.update(4.0, 2)


class TestStreamingIntervalUnion:
    def test_matches_offline_union_on_random_streams(self):
        # The pinned equivalence: the streaming union equals the offline
        # merge obs.report computes from a full interval list, for any
        # stream with nondecreasing release times.
        rng = random.Random(9)
        for _ in range(20):
            union = StreamingIntervalUnion()
            intervals = []
            now = 0.0
            for _ in range(200):
                now += rng.uniform(0.0, 1.0)
                start = now + rng.uniform(0.0, 0.5)
                end = start + rng.uniform(0.0, 2.0)
                intervals.append((start, end))
                union.add(start, end, now=now)
            assert union.length == pytest.approx(_length(_union(intervals)))

    def test_finalizes_behind_the_clock(self):
        union = StreamingIntervalUnion()
        for k in range(1000):
            t = float(k)
            union.add(t, t + 0.5, now=t)
        # Every interval ends before the next release: nothing stays
        # resident except (at most) the newest one.
        assert union.active_count <= 1
        assert union.length == pytest.approx(500.0)

    def test_zero_duration_intervals_add_nothing(self):
        union = StreamingIntervalUnion()
        union.add(1.0, 1.0, now=0.0)
        union.add(5.0, 4.0, now=2.0)  # inverted == empty
        assert union.length == 0.0
        assert union.active_count == 0

    def test_empty_union(self):
        assert StreamingIntervalUnion().length == 0.0

    def test_rejects_non_monotonic_release(self):
        union = StreamingIntervalUnion()
        union.add(5.0, 6.0, now=5.0)
        with pytest.raises(ValueError, match="non-monotonic"):
            union.add(1.0, 2.0, now=1.0)

    def test_overlapping_intervals_merge(self):
        union = StreamingIntervalUnion()
        union.add(0.0, 4.0, now=0.0)
        union.add(2.0, 6.0, now=1.0)
        union.add(10.0, 11.0, now=2.0)
        assert union.length == pytest.approx(7.0)


# The aggregators' earlier add bodies, kept as references: the rewritten
# bodies (conditional expressions for the min/max builtins, fewer method
# calls) must leave bit-identical state.

def _reference_hist_add(hist, value):
    value = float(value)
    hist.count += 1
    hist.sum += value * 1
    hist.min = value if hist.min is None else min(hist.min, value)
    hist.max = value if hist.max is None else max(hist.max, value)
    if hist.exact or (hist._is_raw and hist.count <= hist.exact_limit):
        hist._values.extend([value])
        return
    if hist._values:
        hist._promote()
    if value < hist.min_value:
        hist._zero += 1
    else:
        index = math.ceil(math.log(value) / hist._log_gamma)
        hist._buckets[index] = hist._buckets.get(index, 0) + 1


def _reference_union_add(union, start, end, now=None):
    if now is None:
        now = start
    if now < union._now:
        raise ValueError(f"non-monotonic release time {now}")
    union._now = now
    if end > start:
        merged = []
        placed = False
        new = (float(start), float(end))
        for interval in union._active:
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
        union._active = merged
    still_active = []
    for interval in union._active:
        if interval[1] <= now:
            union._finalized += interval[1] - interval[0]
        else:
            still_active.append(interval)
    union._active = still_active


def _reference_counter_add(counter, t, value=1.0):
    index = min(int(t / counter.window_seconds), counter.num_windows - 1)
    counter._counts[index] += value


def _reference_add_interval(windows, start, end, value=1.0):
    start = max(0.0, float(start))
    end = min(float(end), windows.horizon)
    if end <= start or value == 0.0:
        return
    width = windows.window_seconds
    first = min(int(start / width), windows.num_windows - 1)
    last = min(int(end / width), windows.num_windows - 1)
    for index in range(first, last + 1):
        lo = max(start, index * width)
        hi = min(end, (index + 1) * width)
        if index == windows.num_windows - 1:
            hi = min(end, windows.horizon)
        if hi > lo:
            windows._weighted[index] += value * (hi - lo)


class TestAddsMatchTheReferenceBodies:
    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("bucketed", [False, True])
    def test_histogram_single_adds(self, exact, bucketed):
        rng = random.Random(5)
        snap = StreamingHistogram(exact=exact, exact_limit=64).snapshot()
        if bucketed:
            # Folded into buckets below the exact limit, as after merging
            # a promoted sketch: later adds must keep folding.
            small = StreamingHistogram(exact_limit=2)
            for value in (0.5, 2.0, 8.0):
                small.add(value)
            snap = dict(small.snapshot(), exact=exact, exact_limit=64)
        fast = StreamingHistogram.from_snapshot(snap)
        ref = StreamingHistogram.from_snapshot(snap)
        for _ in range(500):
            value = rng.choice([0.0, 1e-12, rng.random(),
                                rng.lognormvariate(0.0, 3.0), 2.5])
            fast.add(value)
            _reference_hist_add(ref, value)
            # Each step, so a promotion one value early or late shows.
            assert fast.snapshot() == ref.snapshot()

    # 9 * (2.9 / 9) < 2.9: the final window's computed left edge falls
    # short of the horizon, so an unclamped index past it would count.
    @pytest.mark.parametrize("horizon", [7.3, 2.9])
    def test_windowed_counter_adds(self, horizon):
        rng = random.Random(6)
        windows = 9
        fast = WindowedCounter(horizon, windows)
        ref = WindowedCounter(horizon, windows)
        width = horizon / windows
        for _ in range(2000):
            t = rng.choice([rng.uniform(0.0, 1.2 * horizon),
                            rng.randrange(windows + 2) * width])
            value = rng.random()
            fast.add(t, value)
            _reference_counter_add(ref, t, value)
        assert fast.counts() == ref.counts()

    def test_interval_union_adds(self):
        # Starts on a half-unit grid, at the last active end (touching),
        # inside an active interval (nested) and off the grid; empty and
        # inverted intervals too.
        rng = random.Random(8)
        for _ in range(40):
            fast = StreamingIntervalUnion()
            ref = StreamingIntervalUnion()
            now = 0.0
            for _ in range(300):
                now += rng.choice([0.0, 0.0, 0.5, 1.0, rng.uniform(0.0, 1.5)])
                starts = [now + rng.choice([0.0, 0.5, 1.0, 2.5]),
                          now + rng.uniform(0.0, 3.0)]
                if fast._active:
                    lo, hi = fast._active[-1]
                    starts.append(hi)
                    starts.append(max(lo, now) + (hi - max(lo, now)) / 3)
                start = rng.choice(starts)
                end = start + rng.choice([0.0, -0.5, 0.5, 1.0, 1.5,
                                          rng.uniform(0.0, 2.0)])
                release = rng.choice([now, None]) if start == now else now
                fast.add(start, end, now=release)
                _reference_union_add(ref, start, end, now=release)
                assert (repr((fast._active, fast._finalized))
                        == repr((ref._active, ref._finalized)))

    @pytest.mark.parametrize("horizon", [7.3, 2.9])
    def test_intervals_inside_and_across_windows(self, horizon):
        rng = random.Random(7)
        windows = 9
        fast = TimeWeightedWindows(horizon, windows)
        ref = TimeWeightedWindows(horizon, windows)
        width = horizon / windows
        for _ in range(2000):
            edges = [rng.uniform(-0.5, 1.2 * horizon),
                     rng.randrange(-1, windows + 2) * width]
            start = rng.choice(edges)
            end = start + rng.choice([0.0, rng.uniform(0.0, 0.3 * width),
                                      rng.uniform(0.0, 3.0 * width),
                                      width])
            value = rng.choice([1.0, 0.0, rng.uniform(0.0, 5.0)])
            fast.add_interval(start, end, value)
            _reference_add_interval(ref, start, end, value)
        assert fast.weighted() == ref.weighted()
