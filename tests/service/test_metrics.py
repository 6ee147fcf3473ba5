"""Tests for the service metrics surface (histograms + snapshots)."""

import pytest

from repro.core import CacheStats
from repro.harness import format_latency, format_service_stats
from repro.service import HistogramSnapshot, LatencyHistogram, ServiceStats


class TestLatencyHistogram:
    def test_empty(self):
        snap = LatencyHistogram().snapshot()
        assert snap.count == 0
        assert snap.mean == 0.0
        assert snap.quantile(0.5) == 0.0

    def test_quantiles_bucket_accurate(self):
        hist = LatencyHistogram()
        for _ in range(90):
            hist.record(0.001)   # 1 ms
        for _ in range(10):
            hist.record(1.0)     # slow tail
        snap = hist.snapshot()
        assert snap.count == 100
        # Log-bucketed: estimates are accurate to one 2x bucket.
        assert 0.0005 <= snap.p50 <= 0.002
        assert 0.5 <= snap.p99 <= 2.0
        assert snap.mean == pytest.approx((90 * 0.001 + 10 * 1.0) / 100)

    def test_quantile_bounds_validated(self):
        with pytest.raises(ValueError):
            LatencyHistogram().snapshot().quantile(1.5)

    def test_snapshot_delta_is_interval(self):
        hist = LatencyHistogram()
        hist.record(0.010)
        before = hist.snapshot()
        hist.record(10.0)
        interval = hist.snapshot() - before
        assert interval.count == 1
        assert interval.sum_seconds == pytest.approx(10.0)
        assert 5.0 <= interval.p50 <= 20.0, (
            "the interval must contain only the later sample")

    def test_snapshot_merge(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        a.record(0.001)
        b.record(0.004)
        merged = a.snapshot() + b.snapshot()
        assert merged.count == 2
        assert merged.sum_seconds == pytest.approx(0.005)

    def test_negative_duration_rejected(self):
        hist = LatencyHistogram()
        hist.record(0.0)  # a zero-duration sample is legitimate
        with pytest.raises(ValueError, match="negative duration"):
            hist.record(-1.0)
        snap = hist.snapshot()
        assert snap.count == 1, "a rejected duration is not counted"
        assert snap.sum_seconds == 0.0


class TestServiceStats:
    def make(self, completed, hits, misses, depth, uptime, latency=None):
        return ServiceStats(
            submitted=completed, admitted=completed, completed=completed,
            cache_hits=hits, cache=CacheStats(hits=hits, misses=misses),
            queue_depth=depth, uptime_seconds=uptime,
            latency=latency or {})

    def test_delta_subtracts_counters_keeps_gauges(self):
        earlier = self.make(10, 6, 4, depth=3, uptime=10.0)
        later = self.make(25, 19, 6, depth=1, uptime=20.0)
        delta = later - earlier
        assert delta.completed == 15
        assert delta.cache.hits == 13 and delta.cache.misses == 2
        assert delta.hit_rate == pytest.approx(13 / 15)
        assert delta.queue_depth == 1, "gauges carry the newer value"
        assert delta.uptime_seconds == pytest.approx(10.0)
        assert delta.throughput == pytest.approx(1.5)

    def test_delta_with_new_histogram_key(self):
        hist = LatencyHistogram()
        hist.record(0.5)
        later = self.make(1, 1, 0, 0, 1.0,
                          latency={"execute": hist.snapshot()})
        delta = later - self.make(0, 0, 0, 0, 0.0)
        assert delta.histogram("execute").count == 1
        assert delta.histogram("absent").count == 0

    def test_throughput_zero_uptime(self):
        assert ServiceStats().throughput == 0.0


class TestRendering:
    def test_format_latency(self):
        hist = LatencyHistogram()
        assert format_latency(hist.snapshot()) == "n=0"
        hist.record(0.002)
        text = format_latency(hist.snapshot())
        assert text.startswith("n=1 ")
        assert "p50=" in text and "p99=" in text

    def test_format_service_stats(self):
        hist = LatencyHistogram()
        hist.record(0.01)
        stats = ServiceStats(
            submitted=4, admitted=3, completed=3, rejected_queue_full=1,
            coalesced=1, cache=CacheStats(hits=2, misses=1),
            uptime_seconds=2.0,
            latency={"execute": hist.snapshot()})
        text = format_service_stats(stats)
        assert "submitted=4" in text
        assert "rejected_queue_full=1" in text
        assert "hits=2 misses=1" in text
        assert "latency[execute]:" in text
        assert "req/s" in text
