"""Service-level cache amortization under a Zipfian request mix.

The offload server's whole value proposition is that a *shared* config
cache amortizes MESA's translate/map/configure pipeline across clients:
the first request for a region pays the full cold path, every later
request for the same binary pays only the bitstream load.  This benchmark
replays a Zipfian(s=1.1) popularity stream — the classic skew of request
traces — over all 19 Rodinia kernels through an in-process
:class:`repro.service.MesaService` and reports:

* the shared-cache hit rate (asserted >= 80%: under Zipfian skew, all but
  the first touch of each region must be amortized);
* server-side p50/p99 for the cold vs warm execute paths (warm p50 is
  asserted below cold p50 — the amortization must be visible in latency,
  not just in counters);
* client-observed latency tiers: requests are bucketed *hot* / *warm* /
  *cold* by the popularity rank of their kernel, the way a trace analysis
  would slice a production service's logs;
* an interval snapshot (``stats() - midpoint``) over the second half of the
  stream, demonstrating that steady-state hit rate exceeds the lifetime
  average once the cache is populated;
* a **kill → restart** phase: the service's checkpoint is flushed, the
  service is torn down, a fresh one warm-restores the snapshot and
  replays another wave — the post-restore steady-state hit rate must sit
  within 5 points of the pre-kill steady state, the persistence layer's
  acceptance bar.
"""

import asyncio
import statistics
import tempfile
from pathlib import Path

from repro.service import (
    ControllerPool,
    MesaService,
    OffloadRequest,
    popularity_tier,
    zipfian_stream,
)
from repro.workloads import kernel_names

from _common import emit, run_once

REQUESTS = 300
#: Requests replayed against the restored service after the kill.
REPLAY_REQUESTS = 150
ITERATIONS = 64
ZIPF_S = 1.1
SEED = 11
#: Post-restore steady-state hit rate must be within this many points of
#: the pre-kill steady state.
RESTORE_TOLERANCE = 0.05


def _quantile(samples, q):
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = q * (len(ordered) - 1)
    return ordered[min(len(ordered) - 1, round(rank))]


async def _drive():
    kernels = kernel_names()  # list order doubles as popularity rank
    stream = zipfian_stream(kernels, REQUESTS + REPLAY_REQUESTS, s=ZIPF_S,
                            seed=SEED)
    stream, replay = stream[:REQUESTS], stream[REQUESTS:]
    with tempfile.TemporaryDirectory(prefix="mesa-bench-") as tmp:
        snapshot = str(Path(tmp) / "cache.snapshot.json")
        pool = ControllerPool(cache_capacity=64, cache_policy="lru")
        service = MesaService(pool=pool, max_queue=REQUESTS,
                              max_per_client=REQUESTS, workers=2,
                              checkpoint_path=snapshot)
        await service.start()

        first, second = stream[: REQUESTS // 2], stream[REQUESTS // 2:]
        responses = list(await asyncio.gather(*[
            service.offload(OffloadRequest.for_kernel(
                name, iterations=ITERATIONS, client="bench"))
            for name in first]))
        midpoint = service.stats()
        responses += list(await asyncio.gather(*[
            service.offload(OffloadRequest.for_kernel(
                name, iterations=ITERATIONS, client="bench"))
            for name in second]))
        stats = service.stats()
        steady = stats - midpoint
        # Kill: tear the service down (close also flushes the final
        # checkpoint — the regions survive on disk, nothing else does).
        await service.close()

        # Restart: a fresh pool, a fresh service, a warm snapshot.
        restored = MesaService(
            pool=ControllerPool(cache_capacity=64, cache_policy="lru"),
            max_queue=REPLAY_REQUESTS, max_per_client=REPLAY_REQUESTS,
            workers=2, checkpoint_path=snapshot)
        await restored.start()
        replay_responses = list(await asyncio.gather(*[
            restored.offload(OffloadRequest.for_kernel(
                name, iterations=ITERATIONS, client="bench"))
            for name in replay]))
        restart_stats = restored.stats()
        await restored.close()
    return (stream, responses, stats, steady, replay_responses,
            restart_stats)


def test_service_amortization(benchmark):
    (stream, responses, stats, steady, replay_responses,
     restart_stats) = run_once(benchmark, lambda: asyncio.run(_drive()))

    assert len(responses) == REQUESTS
    assert all(r.ok for r in responses), "every admitted request completes"

    # -- the amortization claims -------------------------------------------
    assert stats.hit_rate >= 0.80, (
        f"Zipfian reuse must amortize the config pipeline: "
        f"hit rate {stats.hit_rate:.1%} < 80%")
    cold = stats.histogram("execute_cold")
    warm = stats.histogram("execute_warm")
    assert cold.count > 0 and warm.count > 0
    assert warm.p50 < cold.p50, (
        f"warm-path p50 ({warm.p50 * 1e3:.1f} ms) must sit below cold-path "
        f"p50 ({cold.p50 * 1e3:.1f} ms)")
    assert steady.hit_rate >= stats.hit_rate, (
        "steady-state hit rate must not trail the lifetime average")

    # -- the persistence claim ---------------------------------------------
    assert all(r.ok for r in replay_responses)
    assert restart_stats.regions_restored > 0, (
        "the restart must warm-restore the shutdown checkpoint")
    restore_gap = steady.hit_rate - restart_stats.hit_rate
    assert restore_gap <= RESTORE_TOLERANCE, (
        f"post-restore steady-state hit rate "
        f"({restart_stats.hit_rate:.1%}) trails the pre-kill steady state "
        f"({steady.hit_rate:.1%}) by more than "
        f"{RESTORE_TOLERANCE:.0%}")

    # -- client-observed latency by popularity tier ------------------------
    # Tiered on the execute path: the batch submission above queues all
    # requests at once, so total_seconds is dominated by queue position
    # rather than by cache residency.
    kernels = kernel_names()
    tiers = {"hot": [], "warm": [], "cold": []}
    for name, response in zip(stream, responses):
        tiers[popularity_tier(kernels, name)].append(
            response.execute_seconds)
    queue_waits = [r.queue_seconds for r in responses]

    lines = [
        f"service amortization: {REQUESTS} requests, Zipf(s={ZIPF_S}) over "
        f"{len(kernels)} kernels, {ITERATIONS} iterations, workers=2",
        f"  cache:          hits={stats.cache.hits} "
        f"misses={stats.cache.misses} ({stats.hit_rate:.1%} hit rate)",
        f"  steady state:   {steady.hit_rate:.1%} hit rate over the last "
        f"{steady.completed} requests",
        f"  coalesced:      {stats.coalesced} requests piggybacked on an "
        f"in-flight translation",
        f"  server cold:    n={cold.count} p50={cold.p50 * 1e3:.1f}ms "
        f"p99={cold.p99 * 1e3:.1f}ms",
        f"  server warm:    n={warm.count} p50={warm.p50 * 1e3:.1f}ms "
        f"p99={warm.p99 * 1e3:.1f}ms",
        f"  queue wait:     p50={_quantile(queue_waits, 0.50):.2f}s "
        f"p99={_quantile(queue_waits, 0.99):.2f}s "
        f"(batch of {REQUESTS // 2} per wave, workers=2)",
        f"  kill-restart:   {restart_stats.regions_restored} regions "
        f"restored; replay of {len(replay_responses)} requests hit "
        f"{restart_stats.hit_rate:.1%} (pre-kill steady state "
        f"{steady.hit_rate:.1%})",
        "  client execute latency by popularity tier:",
    ]
    for tier in ("hot", "warm", "cold"):
        samples = tiers[tier]
        if not samples:
            lines.append(f"    {tier:<5} n=0")
            continue
        lines.append(
            f"    {tier:<5} n={len(samples):<4} "
            f"p50={_quantile(samples, 0.50) * 1e3:7.1f}ms "
            f"p99={_quantile(samples, 0.99) * 1e3:7.1f}ms "
            f"mean={statistics.fmean(samples) * 1e3:7.1f}ms")
    emit("service_amortization", "\n".join(lines))
