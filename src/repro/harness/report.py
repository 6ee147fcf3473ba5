"""Plain-text rendering of experiment results (tables and series).

The benchmark harness prints the same rows/series the paper's tables and
figures report; these helpers keep that output consistent and legible.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from ..core import CacheStats
    from ..service import HistogramSnapshot, ServiceStats

__all__ = ["render_table", "format_value",
           "format_cache_stats", "format_latency", "format_service_stats",
           "degraded_footer", "geomean"]


def format_value(value: Any) -> str:
    """Consistent scalar formatting for table cells."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def format_cache_stats(stats: "CacheStats") -> str:
    """One-line summary of configuration-cache counters.

    Example: ``hits=3 misses=1 evictions=0 insertions=1 (75.0% hit rate)``.
    """
    line = (f"hits={stats.hits} misses={stats.misses} "
            f"evictions={stats.evictions} insertions={stats.insertions}")
    if stats.lookups:
        line += f" ({stats.hit_rate:.1%} hit rate)"
    return line


def format_latency(hist: "HistogramSnapshot") -> str:
    """One-line ``count / mean / p50 / p99`` summary of a histogram."""
    if not hist.count:
        return "n=0"
    return (f"n={hist.count} mean={hist.mean * 1e3:.2f}ms "
            f"p50={hist.p50 * 1e3:.2f}ms p99={hist.p99 * 1e3:.2f}ms")


def format_service_stats(stats: "ServiceStats") -> str:
    """Multi-line dashboard block of one offload-service snapshot."""
    lines = [
        f"requests:   submitted={stats.submitted} admitted={stats.admitted} "
        f"completed={stats.completed} failed={stats.failed} "
        f"cancelled={stats.cancelled} timed_out={stats.timed_out} "
        f"degraded={stats.degraded}",
        f"admission:  rejected_queue_full={stats.rejected_queue_full} "
        f"rejected_client_quota={stats.rejected_client_quota}",
        f"amortized:  accelerated={stats.accelerated} "
        f"cache_hits={stats.cache_hits} "
        f"baseline_hits={stats.baseline_hits} coalesced={stats.coalesced} "
        f"deduped={stats.deduped}",
        f"robustness: worker_crashes={stats.worker_crashes} "
        f"worker_restarts={stats.worker_restarts}",
        f"persistence: checkpoints_saved={stats.checkpoints_saved} "
        f"regions_restored={stats.regions_restored}",
        f"cache:      {format_cache_stats(stats.cache)}",
        f"queue:      depth={stats.queue_depth} inflight={stats.inflight}",
        f"throughput: {stats.throughput:.1f} req/s over "
        f"{stats.uptime_seconds:.2f}s",
    ]
    for name in sorted(stats.latency):
        lines.append(f"latency[{name}]: "
                     f"{format_latency(stats.latency[name])}")
    return "\n".join(lines)


def render_table(headers: Sequence[str],
                 rows: Sequence[Sequence[Any]],
                 title: str | None = None) -> str:
    """Render an aligned text table."""
    cells = [[format_value(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def degraded_footer(entries: Sequence[str]) -> str:
    """The ``degraded shards (N):`` block a sharded result renders below
    its table, one indented line per failed shard; empty when none failed."""
    if not entries:
        return ""
    lines = [f"degraded shards ({len(entries)}):"]
    lines += [f"  {entry}" for entry in entries]
    return "\n" + "\n".join(lines)


def geomean(values: Sequence[float]) -> float:
    """Geometric mean (0 when empty or any non-positive value)."""
    cleaned = [v for v in values if v > 0]
    if not cleaned:
        return 0.0
    product = 1.0
    for value in cleaned:
        product *= value
    return product ** (1.0 / len(cleaned))
