"""Throughput scaling of the service's supervised worker pool.

The service runs every request through one task function, either in its
own process (``workers=0``: one simulation at a time) or on the
supervised process pool (:class:`repro.service.ProcessWorkerPool`), where
N worker *processes* simulate N requests genuinely in parallel, with
sticky region→worker affinity keeping per-worker caches warm.

This benchmark drives the same request wave in-process and at
``workers=4`` and reports requests/second.  On hosts with at least 4
physical cores the pooled run must clear **1.5x** the in-process
throughput (the acceptance bar; in practice it lands near the core
count).  On smaller hosts the numbers are still recorded, but the
assertion is skipped — without real cores behind the workers the
comparison measures scheduler noise, not scaling.
"""

import asyncio
import time

from repro.service import ControllerPool, MesaService, OffloadRequest
from repro.workloads import build_kernel  # noqa: F401  (warm import)

from _common import CORES, emit, run_once

WORKERS = 4
REQUESTS = 24
ITERATIONS = 256
#: Accelerating kernels with meaty per-request simulation time.
KERNELS = ("hotspot", "pathfinder", "nn", "kmeans")
#: Acceptance bar for the pooled run on a >=4-core host.
MIN_SCALING = 1.5


async def _drive(workers: int) -> tuple[float, int]:
    """One timed wave; returns (wall_seconds, completed)."""
    service = MesaService(pool=ControllerPool(),
                          max_queue=REQUESTS + len(KERNELS),
                          max_per_client=REQUESTS + len(KERNELS),
                          workers=workers)
    await service.start()
    # Warm-up wave: one request per kernel populates the caches (the
    # in-process cache, or each sticky worker's cache) so the timed wave
    # compares steady-state throughput.
    warmup = await asyncio.gather(*[
        service.offload(OffloadRequest.for_kernel(
            name, iterations=ITERATIONS, client="warmup"))
        for name in KERNELS])
    assert all(r.ok for r in warmup)
    begin = time.perf_counter()
    responses = await asyncio.gather(*[
        service.offload(OffloadRequest.for_kernel(
            KERNELS[index % len(KERNELS)], iterations=ITERATIONS,
            client="bench"))
        for index in range(REQUESTS)])
    wall = time.perf_counter() - begin
    await service.close()
    completed = sum(1 for r in responses if r.ok)
    assert completed == REQUESTS, "every request completes"
    return wall, completed


def _run_both() -> dict[str, float]:
    inline_wall, _ = asyncio.run(_drive(0))
    pooled_wall, _ = asyncio.run(_drive(WORKERS))
    return {"inline": REQUESTS / inline_wall,
            "pooled": REQUESTS / pooled_wall}


def test_service_procpool_scaling(benchmark):
    throughput = run_once(benchmark, _run_both)
    scaling = throughput["pooled"] / throughput["inline"]
    gated = CORES >= 4

    lines = [
        f"service worker pool: {REQUESTS} requests over "
        f"{len(KERNELS)} kernels, {ITERATIONS} iterations, "
        f"host cores={CORES}",
        f"  workers=0 (in-process): {throughput['inline']:6.2f} req/s "
        f"(one simulation at a time)",
        f"  workers={WORKERS} (pooled):     {throughput['pooled']:6.2f} "
        f"req/s (supervised pool; sticky per-worker caches)",
        f"  scaling:                {scaling:.2f}x "
        + (f"(assertion: >= {MIN_SCALING}x on this {CORES}-core host)"
           if gated else
           f"(informational only: {CORES} core(s) < 4, "
           f"assertion skipped)"),
    ]
    emit("service_procpool", "\n".join(lines))

    if gated:
        assert scaling >= MIN_SCALING, (
            f"the worker pool must scale on a {CORES}-core host: "
            f"{scaling:.2f}x < {MIN_SCALING}x")
