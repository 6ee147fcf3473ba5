"""Supervised multi-process execution for the offload service.

One asyncio process tops out at ~1 core of simulation (the GIL serializes
the thread-pool executors), so the service's multi-process backend runs
``MesaController.execute`` in N long-lived worker *processes* on the
repo's one supervised pool, :class:`repro.harness.parallel.WorkerPool`:
dispatch over per-worker pipes (the per-request deadline anchors at
actual dispatch and crash blame is exact), kill-and-replace repair (a
worker that crashes or blows its deadline degrades only its own request
and is replaced in place), and a cap on consecutive boot failures.  This
module holds only what is particular to the service.

Each worker owns its own per-chip controllers (process memory is not
shared), so warm-cache behavior is preserved two ways: *sticky affinity*
routes identical regions to the same worker when it is idle, and every
worker's warm boot (initial or replacement) is seeded with the service's
:class:`~repro.service.checkpoint.RegionStore` records as they stand at
that spawn, so a replacement rejoins warm instead of cold.

Results cross the pipe as compact summary dicts (a
:class:`~repro.core.controller.MesaResult` holds closures and traces and
is deliberately not pickled); freshly configured regions come back as
exported bitstream records for the parent's store.

:class:`CircuitBreaker` lives here too: the per-(config, region)
consecutive-failure counter the server consults before dispatching, with
half-open probing so a recovered region closes the circuit again.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable

from ..harness.parallel import (
    PoolBroken,
    WorkerCrash,
    WorkerPool,
    WorkerTaskError,
    WorkerTimeout,
)

__all__ = ["ProcessWorkerPool", "WorkerCrash", "WorkerTimeout",
           "WorkerTaskError", "PoolBroken", "CircuitBreaker",
           "cpu_baseline_summary"]


def cpu_baseline_summary(program, state_factory, cpu_config=None) -> dict:
    """CPU-only execution summary (the circuit breaker's degraded path)."""
    from ..cpu import CpuConfig, OutOfOrderCore, collect_trace
    from ..mem import MemoryHierarchy

    config = cpu_config if cpu_config is not None else CpuConfig()
    trace = collect_trace(program, state_factory())
    core = OutOfOrderCore(config, MemoryHierarchy(config.memory)).run(trace)
    return {"accelerated": False, "cache_hit": False,
            "reason": "cpu baseline", "speedup": 1.0,
            "total_cycles": float(core.cycles), "phase_seconds": {}}


# -- worker process side ------------------------------------------------------


class _WorkerChips:
    """One worker process's per-chip controllers.

    The pool hands the same instance to every worker as both the task
    function and (via :meth:`seed`) the initializer; each worker process
    gets its own copy, which the two share.
    """

    def __init__(self, options, cpu_config) -> None:
        self.options = options
        self.cpu_config = cpu_config
        self.controllers: dict[str, Any] = {}

    def controller(self, name: str):
        controller = self.controllers.get(name)
        if controller is None:
            from ..accel import mesa_config
            from ..core import MesaController

            controller = MesaController(mesa_config(name), self.cpu_config,
                                        self.options)
            self.controllers[name] = controller
        return controller

    def seed(self, records: list[dict]) -> None:
        """Warm boot: restore the parent's region records into the caches."""
        for record in records:
            try:
                controller = self.controller(record["config"])
            except Exception:
                continue
            controller.restore_cache_regions([record])

    def __call__(self, payload: dict) -> dict:
        """Run one request payload; returns a summary dict."""
        fault = payload.get("fault")
        if fault == "crash":
            # Injected fault: die exactly the way a segfaulting worker
            # would — no exception crosses the pipe, the parent sees EOF.
            os._exit(13)
        if fault == "hang":
            # Injected fault: wedge until the supervisor's deadline kills us.
            time.sleep(float(payload.get("hang_s", 3600.0)))

        from ..workloads import build_kernel

        kernel = build_kernel(payload["kernel"],
                              iterations=int(payload["iterations"]))
        if payload.get("mode") == "cpu":
            return {**cpu_baseline_summary(kernel.program,
                                           kernel.state_factory,
                                           self.cpu_config),
                    "pid": os.getpid()}
        controller = self.controller(payload.get("config", "M-128"))
        result = controller.execute(kernel.program, kernel.state_factory,
                                    parallelizable=bool(
                                        payload.get("parallelizable", False)))
        tally = result.cache_stats
        # Fresh insertions mean this worker configured something the
        # parent's store may not know yet; the full export is small
        # (bitstream words) and the store deduplicates by key.
        new_regions = (controller.export_cache_regions()
                       if tally.insertions else [])
        return {"accelerated": result.accelerated,
                "cache_hit": result.config_cache_hit,
                "reason": result.reason,
                "speedup": result.speedup_vs_single_core,
                "total_cycles": result.total_cycles,
                "phase_seconds": dict(result.phase_seconds),
                "cache_stats": (tally.hits, tally.misses, tally.evictions,
                                tally.insertions),
                "new_regions": new_regions,
                "pid": os.getpid()}


# -- parent side --------------------------------------------------------------


class ProcessWorkerPool(WorkerPool):
    """Fixed-size supervised pool of simulation worker processes.

    The asyncio server calls ``execute`` from executor threads, one
    request per thread, with the region's ``(config, digest)`` key as the
    affinity: identical regions tend to land on an already-warm process
    without ever serializing the pool behind one hot key.
    ``seed_source`` is read at every spawn, so each worker boots with the
    region records the service holds then.
    """

    def __init__(self, workers: int, options=None, cpu_config=None,
                 seed_source: Callable[[], list[dict]] | None = None) -> None:
        chips = _WorkerChips(options, cpu_config)
        super().__init__(workers, chips, initializer=chips.seed)
        self._seed_source = seed_source

    def _spawn_initargs(self) -> tuple:
        seed = self._seed_source() if self._seed_source is not None else []
        return (list(seed),)


class CircuitBreaker:
    """Per-key consecutive-failure circuit with half-open probing.

    A key (the server uses ``(config, region digest)``) whose last
    ``threshold`` requests all failed has its circuit *opened*: further
    requests are told to degrade to the CPU baseline instead of burning a
    worker on a region that keeps crashing or timing out.  Every
    ``probe_interval``-th request while open is let through as a probe —
    one success closes the circuit again.

    Single-threaded by design: the asyncio server consults it from the
    event loop only.
    """

    def __init__(self, threshold: int = 3, probe_interval: int = 8) -> None:
        if threshold < 1:
            raise ValueError("threshold must be positive")
        self.threshold = threshold
        self.probe_interval = max(0, probe_interval)
        self._failures: dict[Any, int] = {}
        self._last_error: dict[Any, str] = {}
        self._skipped: dict[Any, int] = {}

    def check(self, key: Any) -> str | None:
        """None = dispatch normally; a string = degrade, with the reason."""
        failures = self._failures.get(key, 0)
        if failures < self.threshold:
            return None
        skipped = self._skipped.get(key, 0) + 1
        self._skipped[key] = skipped
        if self.probe_interval and skipped % self.probe_interval == 0:
            return None  # half-open probe
        last = self._last_error.get(key, "repeated failures")
        return (f"circuit open after {failures} consecutive failures "
                f"({last}); served CPU baseline")

    def record(self, key: Any, ok: bool, error: str = "") -> None:
        if ok:
            self._failures.pop(key, None)
            self._last_error.pop(key, None)
            self._skipped.pop(key, None)
        else:
            self._failures[key] = self._failures.get(key, 0) + 1
            if error:
                self._last_error[key] = error

    def open_keys(self) -> list[Any]:
        return [key for key, failures in self._failures.items()
                if failures >= self.threshold]
