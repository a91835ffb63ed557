"""Unit tests for counters/gauges/histograms (repro.obs.metrics)."""

from __future__ import annotations

import pytest

from repro.obs.metrics import (
    Counter,
    Digest,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentile,
)


class TestPercentile:
    def test_empty(self):
        assert percentile([], 95) == 0.0

    def test_single(self):
        assert percentile([7.0], 50) == 7.0

    def test_bounds(self):
        values = [3.0, 1.0, 2.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 3.0

    def test_median_odd(self):
        assert percentile([1.0, 2.0, 3.0], 50) == 2.0

    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        assert percentile(values, 95) == 95
        assert percentile(values, 95.5) == 96

    def test_unsorted_input(self):
        assert percentile([5.0, 1.0, 3.0], 100) == 5.0

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)
        with pytest.raises(ValueError):
            percentile([1.0], -1)


class TestCounter:
    def test_inc(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        c.add(5)
        assert c.value == 10


class TestGauge:
    def test_set_tracks_max(self):
        g = Gauge("x")
        g.set(5)
        g.set(2)
        assert g.value == 2
        assert g.max_value == 5

    def test_set_max_only_raises(self):
        g = Gauge("x")
        g.set_max(3)
        g.set_max(1)
        assert g.value == 3
        assert g.max_value == 3


class TestHistogram:
    def test_summary(self):
        h = Histogram("x")
        for v in [1.0, 2.0, 3.0, 4.0]:
            h.observe(v)
        summary = h.summary()
        assert summary["count"] == 4
        assert summary["total"] == pytest.approx(10.0)
        assert summary["mean"] == pytest.approx(2.5)
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0
        assert summary["p50"] == 2.0

    def test_empty(self):
        h = Histogram("x")
        assert h.summary() == {
            "count": 0, "total": 0.0, "mean": 0.0,
            "min": 0.0, "max": 0.0, "p50": 0.0, "p95": 0.0,
        }


class TestDigest:
    """The one digest behind cumulative histograms and sliding windows."""

    # exactly representable, so totals agree whatever the summing order
    VALUES = [0.0, -1.0, 0.25, 0.5, 3.0, 3.0, 1024.0]

    def test_merge_equals_observing_everything_in_one(self):
        whole, parts = Digest(), [Digest(), Digest(), Digest()]
        for i, value in enumerate(self.VALUES):
            whole.observe(value)
            parts[i % 2].observe(value)  # parts[2] stays empty
        merged = Digest()
        for part in parts:
            merged.merge(part)
        assert (merged.count, merged.total, merged.min, merged.max) == (
            whole.count, whole.total, whole.min, whole.max
        )
        assert merged.bucket_counts() == whole.bucket_counts()
        for p in (0, 10, 50, 95, 99, 100):
            assert merged.quantile(p) == whole.quantile(p)

    def test_histogram_is_a_digest_plus_reservoir(self):
        h = Histogram("lat", reservoir=4)
        digest = Digest()
        for value in self.VALUES:
            h.observe(value)
            digest.observe(value)
        assert not h.exact
        assert h.bucket_counts() == digest.bucket_counts()
        assert h.p95 == digest.quantile(95)


class TestRegistry:
    def test_create_on_demand_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_accumulation_across_repeated_use(self):
        # The same named counter keeps its tally across any number of
        # lookup/increment rounds — what instrumented loops rely on.
        registry = MetricsRegistry()
        for _ in range(100):
            registry.counter("ops").inc()
        assert registry.counter("ops").value == 100

    def test_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("splits").add(3)
        registry.gauge("inodes").set_max(42)
        registry.histogram("lap").observe(0.5)
        snap = registry.snapshot()
        assert snap["counters"] == {"splits": 3}
        assert snap["gauges"] == {"inodes": {"value": 42, "max": 42}}
        assert snap["histograms"]["lap"]["count"] == 1

    def test_snapshot_sorted_names(self):
        registry = MetricsRegistry()
        registry.counter("b")
        registry.counter("a")
        assert list(registry.snapshot()["counters"]) == ["a", "b"]

    def test_reset(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.reset()
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }


class TestHistogramBoundedMemory:
    """The satellite regression: a histogram must cost O(1) memory no
    matter how many observations flow through it (the pre-live-plane
    implementation kept every sample forever)."""

    #: generous fixed budget: 1024-float reservoir + ~512 bucket entries
    BYTE_BUDGET = 128 * 1024

    def test_exact_until_reservoir_fills_then_sampled(self):
        h = Histogram("x", reservoir=8)
        for i in range(8):
            h.observe(float(i + 1))
        assert h.exact
        assert h.percentile(50) == 4.0  # nearest-rank over all 8 values
        h.observe(9.0)
        assert not h.exact
        assert len(h.values) == 8  # reservoir never grows past capacity
        assert h.count == 9

    def test_one_million_observes_stay_under_budget(self):
        h = Histogram("commit_seconds")
        values = [1e-6 * (1.5 ** (i % 48)) for i in range(48)]
        for i in range(100_000):
            h.observe(values[i % 48])
        saturated = h.approx_bytes()
        assert saturated < self.BYTE_BUDGET
        for i in range(900_000):
            h.observe(values[i % 48])
        assert h.count == 1_000_000
        # not merely under budget: flat from 100k to 1M
        assert h.approx_bytes() == saturated

    def test_quantiles_stay_sane_after_sampling_kicks_in(self):
        h = Histogram("x")
        for i in range(50_000):
            h.observe(0.010 if i % 20 else 0.100)  # 5% slow outliers
        assert h.percentile(50) == pytest.approx(0.010, rel=0.10)
        assert h.percentile(99) == pytest.approx(0.100, rel=0.10)
        assert h.max == pytest.approx(0.100)

    def test_summary_keys_are_backward_compatible(self):
        h = Histogram("x")
        for i in range(5_000):
            h.observe(float(i % 7 + 1))
        summary = h.summary()
        assert set(summary) == {"count", "total", "mean", "min", "max", "p50", "p95"}
        assert summary["count"] == 5_000
