"""The service's one task function and the supervised pool that runs it.

Every request the service executes — a named kernel, a generated region,
or the circuit breaker's CPU-baseline fallback — becomes one picklable
:class:`OffloadTask`: the request's program, its state factory, the chip,
and the fault (if any) a test plan injects.  :class:`ChipTask` runs it
against a :class:`ControllerPool`, one controller per chip, and returns a
compact summary dict (a :class:`~repro.core.controller.MesaResult` holds
traces and is deliberately not shipped).  The summary carries the
execute's cache counters, its phase seconds, whether the CPU baseline was
reused, the region records it inserted and the keys of the regions that
hit — the parent learns about the caches only through it.

A request's CPU baseline — the dynamic trace and the core model's result
over it — depends only on the program, its initial state and the pool's
``cpu_config``, so each :class:`ChipTask` keeps the last
``cache_capacity`` of them, holding at most :data:`BASELINE_TRACE_ENTRIES`
trace entries between them, in one LRU keyed by the program's base
address, the digest of its instruction bytes and its
:class:`~repro.workloads.base.StateRecipe`.  A hit hands the entry to
:meth:`MesaController.execute` (or serves the CPU-baseline fallback from
it), so a warm request skips trace collection and the CPU model as well
as T1–T3.  A state factory that is not a recipe (a lambda, say) has no
value identity and bypasses the cache.

With ``workers >= 1`` the service runs the task in N long-lived worker
processes on the repo's one supervised pool,
:class:`repro.harness.parallel.WorkerPool`: dispatch over per-worker
pipes (the per-request deadline anchors at actual dispatch and crash
blame is exact), kill-and-replace repair (a worker that crashes or blows
its deadline degrades only its own request and is replaced in place), and
a cap on consecutive boot failures.  With ``workers=0`` the same task
function runs in the service's own process.

Each worker owns its own per-chip controllers and baseline cache (process
memory is not shared), so warm-cache behavior is preserved three ways:
*sticky affinity* routes identical regions to the same worker when it is
idle, a coalesced request carries its leader's freshly inserted records,
and every worker's warm boot (initial or replacement) is seeded with the
service's :class:`~repro.service.checkpoint.RegionStore` records as they
stand at that spawn.  Records are written and read by the chip's
:class:`~repro.core.configure.ConfigCache` alone (``export_regions`` /
``restore_regions``, which skips keys already held), and a region's key
comes from the digest the controller computed for it, so a restored entry
serves exactly the warm path a locally configured one does.

:class:`CircuitBreaker` lives here too: the per-(config, region)
consecutive-failure counter the server consults before dispatching, with
half-open probing so a recovered region closes the circuit again.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import time
from collections import OrderedDict
from dataclasses import dataclass
from threading import Lock
from typing import Any, Callable

from ..accel import mesa_config
from ..core import MesaController, MesaOptions, region_digest
from ..cpu import CoreResult, CpuConfig, Trace
from ..harness.parallel import (
    PoolBroken,
    WorkerCrash,
    WorkerPool,
    WorkerTaskError,
    WorkerTimeout,
)
from ..isa import MachineState, Program
from ..workloads.base import StateRecipe

__all__ = ["OffloadTask", "ControllerPool", "ChipTask", "ProcessWorkerPool",
           "WorkerCrash", "WorkerTimeout", "WorkerTaskError", "PoolBroken",
           "CircuitBreaker"]

#: The most dynamic trace entries one :class:`ChipTask`'s baseline LRU
#: holds in total; a wire client picks ``iterations`` freely, so
#: ``cache_capacity`` alone would not bound a worker's memory.  The 19
#: named kernels at the service's usual 64 iterations (0.5k-1.9k entries
#: each) fit about six times over; a trace larger than the whole budget
#: is served but never kept.
BASELINE_TRACE_ENTRIES = 1 << 17


@dataclass(frozen=True)
class OffloadTask:
    """One execution, as it crosses to wherever the task runs."""

    program: Program
    state_factory: Callable[[], MachineState]
    config: str = "M-128"
    parallelizable: bool = False
    #: ``"mesa"`` runs the controller; ``"cpu"`` the CPU baseline only.
    mode: str = "mesa"
    #: Injected fault (``"crash"`` / ``"hang"``) from a test fault plan.
    fault: str | None = None
    hang_s: float = 30.0
    #: Region records restored before executing: a coalesced request
    #: carries its leader's, so it hits on whichever worker it lands.
    seed: tuple[dict, ...] = ()


class ControllerPool:
    """One shared :class:`MesaController` per chip (backend config).

    The pool is the unit of sharing: every request routed to chip
    ``M-128`` lands on the same controller, hence the same configuration
    cache.  Controllers are built lazily on first use with service-grade
    cache settings (larger, LRU) derived from ``base_options``.  A pool
    crosses a process boundary as its settings only: each process builds
    its own controllers.
    """

    def __init__(self, base_options: MesaOptions | None = None,
                 cpu_config: CpuConfig | None = None,
                 cache_capacity: int = 64,
                 cache_policy: str = "lru",
                 factory: Callable[[str], MesaController] | None = None
                 ) -> None:
        self.options = dataclasses.replace(
            base_options if base_options is not None else MesaOptions(),
            cache_capacity=cache_capacity,
            cache_policy=cache_policy)
        self.cpu_config = cpu_config
        self._factory = factory
        self._controllers: dict[str, MesaController] = {}
        self._lock = Lock()

    def __getstate__(self) -> dict:
        return {"options": self.options, "cpu_config": self.cpu_config,
                "_factory": self._factory}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, _controllers={}, _lock=Lock())

    def controller(self, config_name: str) -> MesaController:
        with self._lock:
            controller = self._controllers.get(config_name)
            if controller is None:
                if self._factory is not None:
                    controller = self._factory(config_name)
                else:
                    controller = MesaController(
                        mesa_config(config_name), self.cpu_config,
                        self.options)
                self._controllers[config_name] = controller
            return controller


class ChipTask:
    """The task function: runs an :class:`OffloadTask` on a chip's controller.

    The pool hands the same instance to every worker as both the task
    function and (via :meth:`seed`) the initializer; each worker process
    gets its own copy, with an empty CPU-baseline cache.  ``isolated``
    says the task runs in a worker process, where an injected crash kills
    the process the way a segfault would; in the service's own process it
    raises instead.
    """

    def __init__(self, pool: ControllerPool, isolated: bool) -> None:
        self.pool = pool
        self.isolated = isolated
        self._baselines: OrderedDict[tuple, tuple[Trace, CoreResult]] = \
            OrderedDict()
        self._lock = Lock()

    def __getstate__(self) -> dict:
        return {"pool": self.pool, "isolated": self.isolated}

    def __setstate__(self, state: dict) -> None:
        self.__init__(**state)

    def seed(self, records: list[dict]) -> None:
        """Warm boot: restore region records into each chip's cache."""
        for config in dict.fromkeys(record.get("config")
                                    for record in records):
            try:
                controller = self.pool.controller(config)
            except Exception:
                continue
            controller.config_cache.restore_regions(records,
                                                    controller.config)

    def _baseline_key(self, task: OffloadTask) -> tuple | None:
        """The task's CPU-baseline cache key; None bypasses the cache.

        Only a :class:`StateRecipe` compares by value: any other factory
        could build a different state on every call.  ``cpu_config`` is
        fixed per pool, so it is not part of the key.
        """
        if not isinstance(task.state_factory, StateRecipe):
            return None
        program = task.program
        return (program.base_address,
                region_digest(program, program.base_address,
                              program.end_address),
                task.state_factory)

    def _cached_baseline(self, key: tuple | None
                         ) -> tuple[Trace, CoreResult] | None:
        if key is None:
            return None
        with self._lock:
            baseline = self._baselines.get(key)
            if baseline is not None:
                self._baselines.move_to_end(key)
            return baseline

    def _remember_baseline(self, key: tuple | None,
                           baseline: tuple[Trace, CoreResult]) -> None:
        if key is None or len(baseline[0]) > BASELINE_TRACE_ENTRIES:
            return
        with self._lock:
            self._baselines[key] = baseline
            self._baselines.move_to_end(key)
            while (len(self._baselines) > self.pool.options.cache_capacity
                   or sum(len(trace) for trace, _ in self._baselines.values())
                   > BASELINE_TRACE_ENTRIES):
                self._baselines.popitem(last=False)

    def __call__(self, task: OffloadTask) -> dict:
        """Run one task; returns a summary dict."""
        if task.fault == "crash":
            if self.isolated:
                # Die exactly the way a segfaulting worker would — no
                # exception crosses the pipe, the parent sees EOF.
                os._exit(13)
            raise RuntimeError("injected crash")
        if task.fault == "hang":
            # Wedge until the supervisor's deadline kills us.
            time.sleep(task.hang_s)
        controller = self.pool.controller(task.config)
        key = self._baseline_key(task)
        baseline = self._cached_baseline(key)
        hit = baseline is not None
        if task.mode == "cpu":
            if not hit:
                baseline = controller.cpu_baseline(task.program,
                                                   task.state_factory)
                self._remember_baseline(key, baseline)
            return {"accelerated": False, "cache_hit": False,
                    "baseline_hit": hit, "reason": "cpu baseline",
                    "speedup": 1.0, "total_cycles": float(baseline[1].cycles),
                    "phase_seconds": {}, "pid": os.getpid()}
        if task.seed:
            controller.config_cache.restore_regions(task.seed,
                                                    controller.config)
        trace, cpu_only = baseline if hit else (None, None)
        result = controller.execute(task.program, task.state_factory,
                                    parallelizable=task.parallelizable,
                                    trace=trace, cpu_only=cpu_only)
        if not hit:
            self._remember_baseline(key, (result.trace, result.cpu_only))
        tally = result.cache_stats
        hits, misses = set(), set()
        for region in (result.regions
                       if tally.hits or tally.insertions else ()):
            (hits if region.cache_hit else misses).add(
                (region.loop.start_address, region.loop.end_address,
                 region.digest))
        return {"accelerated": result.accelerated,
                "cache_hit": result.config_cache_hit,
                "baseline_hit": hit,
                "reason": result.reason,
                "speedup": result.speedup_vs_single_core,
                "total_cycles": result.total_cycles,
                "phase_seconds": dict(result.phase_seconds),
                "cache_stats": (tally.hits, tally.misses, tally.evictions,
                                tally.insertions),
                "new_regions": (
                    controller.config_cache.export_regions(misses)
                    if tally.insertions else []),
                "hit_regions": [(controller.config.name, *region)
                                for region in hits],
                "pid": os.getpid()}


class ProcessWorkerPool(WorkerPool):
    """Fixed-size supervised pool of simulation worker processes.

    The asyncio server calls ``execute`` from executor threads, one
    request per thread, with the region's ``(config, digest)`` key as the
    affinity: identical regions tend to land on an already-warm process
    without ever serializing the pool behind one hot key.
    ``seed_source`` is read at every spawn, so each worker boots with the
    region records the service holds then.
    """

    def __init__(self, workers: int, pool: ControllerPool | None = None,
                 seed_source: Callable[[], list[dict]] | None = None) -> None:
        # A copy (settings only): a forked worker must not inherit the
        # caller's controllers, or its lock in whatever state it is in.
        task = ChipTask(copy.copy(pool) if pool is not None
                        else ControllerPool(), isolated=True)
        super().__init__(workers, task, initializer=task.seed)
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
