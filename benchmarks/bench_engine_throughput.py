"""Engine throughput: fabric iterations per host-second, per kernel.

This benchmark measures the *simulator*, not the modeled hardware: how fast
the dataflow engine retires fabric iterations now that execution advances
vectorized blocks of iterations (``repro.accel.batch``) instead of
re-interpreting the configuration every iteration.  It reports, per kernel:

* iterations/second on the batched path (the default drive path);
* iterations/second on the reference interpreter path (``compiled=False``);
* the batched-over-interpreter speedup (both paths are bit-identical —
  see ``tests/accel/test_batch_equivalence.py``).

It also times the full Fig. 11 pipeline end-to-end and records it against
the pre-plan baseline wall clock, which is the headline number for this
optimization round.
"""

from __future__ import annotations

import time

from repro.accel import DataflowEngine, M_128
from repro.core import MesaController, state_at_loop_entry
from repro.harness import fig11_rodinia
from repro.workloads import build_kernel

from _common import ITERATIONS, emit, run_once

#: Wall clock of ``fig11_rodinia(iterations=384)`` on the reference machine
#: before the execution-plan work (interpreted engine, per-call trace
#: collection and CPU-model runs).
PRE_PLAN_FIG11_SECONDS = 9.70

KERNELS = ("hotspot", "cfd", "kmeans", "nn", "backprop", "pathfinder",
           "streamcluster", "nw", "lavamd", "myocyte", "bfs")

#: Kernels whose plan the batched capability analysis must accept at M-128;
#: a silent fallback to the interpreter here is a regression.  The set
#: covers contended NoC rings (kmeans, lavamd — closed-form grant chain),
#: guarded memory (streamcluster — masked gathers), coupled recurrences
#: (nw, myocyte — recurrence clusters), and load-dependent store
#: addressing (bfs — blocks cut at the first store-to-load hazard).
BATCHABLE = {"hotspot", "cfd", "nn", "backprop", "pathfinder", "kmeans",
             "streamcluster", "nw", "lavamd", "myocyte", "bfs"}

_REPORT: list[str] = []


def _offload_setup(name: str):
    """Run the pipeline once; return the configured engine + entry states."""
    kernel = build_kernel(name, iterations=512, seed=1)
    controller = MesaController(M_128)
    result = controller.execute(kernel.program, kernel.state_factory,
                                parallelizable=kernel.parallelizable)
    assert result.accelerated, f"{name} must offload for this benchmark"
    options = result.loop_plan.to_execution_options()

    def entry_state():
        return state_at_loop_entry(kernel.program,
                                   result.decision.loop.start_address,
                                   kernel.state_factory())

    return result.accel_program, controller.interconnect, options, entry_state


def _iterations_per_second(engine: DataflowEngine, options,
                           entry_state, repeats: int = 3):
    best = float("inf")
    iterations = 0
    drive = ""
    for _ in range(repeats):
        state = entry_state()
        start = time.perf_counter()
        run = engine.run(state, options)
        best = min(best, time.perf_counter() - start)
        iterations = run.iterations
        drive = run.drive_path
    return iterations / best, drive


def test_engine_throughput(benchmark):
    rows = ["engine throughput (fabric iterations / host second, M-128):",
            f"  {'kernel':<13} {'batched':>10} {'interpreted':>12} "
            f"{'bat/int':>8}  drive"]
    ratios = []
    prepared = {name: _offload_setup(name) for name in KERNELS}

    def measured():
        results = {}
        for name, (program, interconnect, options, entry) in prepared.items():
            fast = DataflowEngine(program, interconnect=interconnect)
            slow = DataflowEngine(program, interconnect=interconnect,
                                  compiled=False)
            batched_ips, drive = _iterations_per_second(fast, options, entry)
            interp_ips, _ = _iterations_per_second(slow, options, entry)
            results[name] = (batched_ips, interp_ips, drive)
        return results

    results = run_once(benchmark, measured)
    for name, (batched_ips, interp_ips, drive) in results.items():
        ratio = batched_ips / interp_ips
        rows.append(f"  {name:<13} {batched_ips:>10.0f} {interp_ips:>12.0f} "
                    f"{ratio:>7.2f}x  {drive}")
        ratios.append(ratio)
        if name in BATCHABLE:
            # A capability-analysis regression must fail loudly, not just
            # show up as a slower row.
            assert drive == "batched", (name, drive)
    _REPORT.extend(rows)

    # The batched path must beat the interpreter on every kernel (the
    # cluster kernels and bfs's truncated blocks have the thinnest
    # margin), with >=6x on at least 3 kernels.
    assert all(ratio > 1.0 for ratio in ratios), ratios
    assert sum(ratio >= 6.0 for ratio in ratios) >= 3, ratios


def test_fig11_wall_clock(benchmark):
    start = time.perf_counter()
    result = run_once(benchmark, lambda: fig11_rodinia(iterations=ITERATIONS))
    wall = time.perf_counter() - start
    assert result.rows, "fig11 produced no rows"

    _REPORT.append("")
    _REPORT.append(f"fig11_rodinia(iterations={ITERATIONS}) end-to-end "
                   "wall clock:")
    _REPORT.append(f"  pre-plan baseline: {PRE_PLAN_FIG11_SECONDS:.2f} s")
    _REPORT.append(f"  this run:          {wall:.2f} s "
                   f"({PRE_PLAN_FIG11_SECONDS / wall:.2f}x)")
    emit("engine_throughput", "\n".join(_REPORT))
