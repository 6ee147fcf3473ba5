"""Harness throughput: serial vs process-parallel sweep execution.

The simulator itself is single-threaded Python, so the harness's only
route to multi-core throughput is sharding: every ``(kernel, config)``
point of a sweep is one shard on a pool of worker processes
(:mod:`repro.harness.parallel`).  This benchmark times one 15-kernel sweep
at ``workers=1`` (the in-process serial path) and ``workers=2`` — plus
``workers=4`` when the host has the cores for it — asserts every pooled
run reproduces the serial points, cache stats and rendered table exactly,
and records the wall clocks (with the host core count) under
``benchmarks/results/``.

Two scaling assertions guard against negative-scaling regressions landing
silently in a results file:

* on any host with ≥2 cores, ``workers=2`` must finish within 1.05x of
  the serial wall clock (warm pooling must at least not *hurt*);
* on hosts with ≥4 cores, ``workers=4`` must deliver ≥2x.

On a 1-core box the pooled numbers are still recorded for the report, and
the identity assertions — the property that cannot degrade gracefully —
always run.
"""

import time

from repro.accel import M_128, M_64
from repro.harness import sweep_backends

from _common import CORES, WORKERS, emit, run_once

#: 15 Rodinia kernels (every kernel the harness ships minus the four
#: slowest outliers, keeping one benchmark run under a few minutes).
SWEEP_KERNELS = [
    "backprop", "bfs", "btree", "cfd", "gaussian", "hotspot", "hotspot3d",
    "kmeans", "lud", "myocyte", "nn", "nw", "pathfinder", "srad",
    "streamcluster",
]
#: Long enough that the serial sweep takes several seconds (8.1 s on a
#: 2-vCPU x86 host), so worker boot and host noise cannot decide the
#: workers=2 scaling gate.
SWEEP_ITERATIONS = 3072


def _timed_sweep(workers):
    start = time.perf_counter()
    result = sweep_backends(SWEEP_KERNELS, [M_64, M_128],
                            iterations=SWEEP_ITERATIONS, workers=workers)
    return result, time.perf_counter() - start


def _assert_matches_serial(pooled, serial):
    assert pooled.points == serial.points, (
        "sharded sweep must reproduce every serial point")
    assert pooled.cache_stats == serial.cache_stats
    assert pooled.render("speedup") == serial.render("speedup"), (
        "sharded sweep must merge to a byte-identical table")
    assert not pooled.degraded_points()


def test_parallel_sweep_matches_serial(benchmark):
    serial, serial_seconds = _timed_sweep(workers=1)

    # workers=2 is the scaling-sanity point CI asserts on; run it under
    # pytest-benchmark so the pooled path is what gets measured.
    start = time.perf_counter()
    pooled2 = run_once(benchmark, lambda: sweep_backends(
        SWEEP_KERNELS, [M_64, M_128], iterations=SWEEP_ITERATIONS,
        workers=2))
    pooled2_seconds = time.perf_counter() - start
    _assert_matches_serial(pooled2, serial)

    rows = [(1, serial_seconds), (2, pooled2_seconds)]
    if CORES >= 4 and max(WORKERS, 4) >= 4:
        pooled4, pooled4_seconds = _timed_sweep(workers=4)
        _assert_matches_serial(pooled4, serial)
        rows.append((4, pooled4_seconds))

    lines = [
        f"parallel sweep: {len(SWEEP_KERNELS)} kernels x 2 configs, "
        f"{SWEEP_ITERATIONS} iterations",
        f"  host cores:        {CORES}",
    ]
    for workers, seconds in rows:
        speedup = serial_seconds / seconds if seconds else 0.0
        tag = "serial  " if workers == 1 else "parallel"
        lines.append(f"  {tag} (workers={workers}): {seconds:8.2f} s "
                     f"({speedup:5.2f}x)")
    lines.append("  points, cache stats and tables identical: True")
    emit("parallel_sweep",
         "\n".join(lines) + "\n\n" + serial.render("speedup"))

    if CORES >= 2:
        assert pooled2_seconds <= 1.05 * serial_seconds, (
            f"workers=2 must not scale negatively on {CORES} cores: "
            f"{pooled2_seconds:.2f}s vs {serial_seconds:.2f}s serial")
    if CORES >= 4 and len(rows) == 3:
        speedup4 = serial_seconds / rows[2][1]
        assert speedup4 >= 2.0, (
            f"expected >=2x sweep speedup at workers=4 on {CORES} cores, "
            f"got {speedup4:.2f}x")
