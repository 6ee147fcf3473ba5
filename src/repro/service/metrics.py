"""Service observability: latency histograms and monotonic snapshots.

The long-lived offload server (:mod:`repro.service.server`) shares one
configuration cache across every request it ever serves, so its counters
must never be reset — a reset would destroy another reader's baseline.
Everything here is therefore *monotonic* and *subtractable*: a dashboard
takes a :class:`ServiceStats` snapshot whenever it likes and subtracts the
previous one to get exact interval metrics (``current - previous``), the
same way :class:`~repro.core.configure.CacheStats` deltas are computed
from the monotonic :meth:`ConfigCache.stats` counters.

Latency is tracked in log-spaced buckets (:class:`LatencyHistogram`):
recording is O(log buckets), snapshots are cheap tuples, and quantiles are
estimated from the bucket counts — accurate to one bucket width (quarter
octave, ~19%), plenty for p50/p99 tiering of microsecond-to-second offload
latencies.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field, fields
from typing import Mapping

from ..core.configure import CacheStats

__all__ = ["BUCKET_BOUNDS", "HistogramSnapshot", "LatencyHistogram",
           "ServiceStats"]

#: Geometric spacing of the bucket bounds: a quarter octave (~19% steps),
#: fine enough to separate the cold and warm execute paths.
_STEP = 2.0 ** 0.25

#: Field metadata marking a :class:`ServiceStats` gauge: a level sampled at
#: snapshot time, which a delta keeps from the newer snapshot.
_GAUGE = {"gauge": True}

#: Upper bounds (seconds) of the histogram buckets: 1 µs rising a quarter
#: octave at a time up to ~9 hours; a final overflow bucket catches
#: anything beyond.
BUCKET_BOUNDS: tuple[float, ...] = tuple(1e-6 * (_STEP ** k)
                                         for k in range(4 * 45))


@dataclass(frozen=True)
class HistogramSnapshot:
    """Immutable histogram state; monotonic and bucket-wise subtractable."""

    counts: tuple[int, ...] = ()
    count: int = 0
    sum_seconds: float = 0.0
    #: Recordings whose duration was negative (a clock went backwards, or
    #: a caller's bookkeeping bug) and were clamped to zero.  Surfaced so
    #: a nonzero rate is visible instead of silently polluting the first
    #: bucket.
    clamped: int = 0

    @property
    def mean(self) -> float:
        return self.sum_seconds / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated q-quantile in seconds (geometric bucket midpoint)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if not self.count:
            return 0.0
        rank = q * (self.count - 1)
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative > rank:
                upper = (BUCKET_BOUNDS[index]
                         if index < len(BUCKET_BOUNDS)
                         else _STEP * BUCKET_BOUNDS[-1])
                lower = BUCKET_BOUNDS[index - 1] if index else upper / _STEP
                return (lower * upper) ** 0.5
        return _STEP * BUCKET_BOUNDS[-1]

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def __sub__(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        counts = list(self.counts)
        for index, value in enumerate(other.counts):
            counts[index] -= value
        return HistogramSnapshot(counts=tuple(counts),
                                 count=self.count - other.count,
                                 sum_seconds=self.sum_seconds
                                 - other.sum_seconds,
                                 clamped=self.clamped - other.clamped)

    def __add__(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        length = max(len(self.counts), len(other.counts))
        counts = [0] * length
        for source in (self.counts, other.counts):
            for index, value in enumerate(source):
                counts[index] += value
        return HistogramSnapshot(counts=tuple(counts),
                                 count=self.count + other.count,
                                 sum_seconds=self.sum_seconds
                                 + other.sum_seconds,
                                 clamped=self.clamped + other.clamped)


class LatencyHistogram:
    """Mutable log-bucketed recorder; snapshots are monotonic."""

    __slots__ = ("_counts", "_count", "_sum", "_clamped")

    def __init__(self) -> None:
        self._counts = [0] * (len(BUCKET_BOUNDS) + 1)
        self._count = 0
        self._sum = 0.0
        self._clamped = 0

    def record(self, seconds: float) -> None:
        if seconds < 0.0:
            self._clamped += 1
            seconds = 0.0
        index = bisect.bisect_left(BUCKET_BOUNDS, seconds)
        self._counts[index] += 1
        self._count += 1
        self._sum += seconds

    @property
    def count(self) -> int:
        return self._count

    def snapshot(self) -> HistogramSnapshot:
        return HistogramSnapshot(counts=tuple(self._counts),
                                 count=self._count, sum_seconds=self._sum,
                                 clamped=self._clamped)


@dataclass(frozen=True)
class ServiceStats:
    """One monotonic snapshot of the offload service.

    All counters only ever grow over the service's lifetime; subtracting
    an earlier snapshot yields the interval in between, with *gauges*
    (``queue_depth``, ``inflight``) carrying the newer snapshot's value
    (a gauge has no meaningful difference).
    """

    # -- monotonic counters --------------------------------------------------
    submitted: int = 0
    admitted: int = 0
    rejected_queue_full: int = 0
    rejected_client_quota: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    #: Requests that hit their deadline (while queued or mid-execution)
    #: and resolved ``status="timeout"``.
    timed_out: int = 0
    #: Requests the circuit breaker served a CPU-baseline fallback for.
    degraded: int = 0
    #: Requests that deduplicated against an identical in-flight region
    #: (waited for its leader's translation instead of starting their own).
    coalesced: int = 0
    #: Resubmissions replayed from an idempotency-key match instead of
    #: being executed a second time.
    deduped: int = 0
    #: Completed requests whose region actually offloaded to the fabric.
    accelerated: int = 0
    #: Completed requests whose configuration came from the shared cache.
    cache_hits: int = 0
    #: Completed requests that reused a cached CPU baseline (trace and
    #: core-model result) instead of recomputing it.
    baseline_hits: int = 0
    # -- robustness counters (worker pool and persistence) --------------------
    #: Worker processes that died mid-request (each degraded exactly one
    #: request; the supervisor replaced the worker in place).
    worker_crashes: int = 0
    #: Replacement workers booted by the supervisor (crashes + hung
    #: workers killed at their deadline).
    worker_restarts: int = 0
    #: Config-cache snapshots flushed to disk (interval + shutdown).
    checkpoints_saved: int = 0
    #: Region records warm-restored from a snapshot at boot.
    regions_restored: int = 0
    #: Shared-cache counters summed over every chip in the pool.
    cache: CacheStats = field(default_factory=CacheStats)
    uptime_seconds: float = 0.0
    # -- gauges ---------------------------------------------------------------
    queue_depth: int = field(default=0, metadata=_GAUGE)
    inflight: int = field(default=0, metadata=_GAUGE)
    # -- latency histograms, keyed by phase -----------------------------------
    #: ``queue_wait`` / ``execute`` / ``total`` plus ``execute_cold`` /
    #: ``execute_warm`` / ``execute_cpu`` (split by configuration-cache
    #: outcome; CPU-only regions never consult the cache) and
    #: ``phase:<name>`` for each controller pipeline phase.
    latency: Mapping[str, HistogramSnapshot] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        """Shared-cache hit rate over every lookup the pool ever made."""
        return self.cache.hit_rate

    @property
    def throughput(self) -> float:
        """Completed requests per second of service uptime."""
        return (self.completed / self.uptime_seconds
                if self.uptime_seconds > 0 else 0.0)

    def histogram(self, name: str) -> HistogramSnapshot:
        return self.latency.get(name, HistogramSnapshot())

    def __sub__(self, other: "ServiceStats") -> "ServiceStats":
        delta = {}
        for f in fields(self):
            mine = getattr(self, f.name)
            if f.name == "latency":
                delta["latency"] = {
                    name: hist - other.latency[name]
                    if name in other.latency else hist
                    for name, hist in mine.items()}
            elif f.metadata.get("gauge"):
                delta[f.name] = mine
            else:
                delta[f.name] = mine - getattr(other, f.name)
        return ServiceStats(**delta)
