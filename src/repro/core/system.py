"""Chip-level scheduling: one MESA controller, many threads (paper M1).

"From a CPU perspective, pooling together accelerator resources as a shared
scheduling target adds another dimension of specialized execution beyond
microarchitecture variants ... only one MESA controller is needed per chip
to interface with all cores unless we explicitly want to configure multiple
accelerators simultaneously."

:class:`MesaSystem` models that scenario: a set of threads (programs), each
pinned to its own core, compete for a single spatial accelerator.  The chip
holds **one** :class:`MesaController`, so its configuration cache is shared
across cores — two threads running the same binary configure once and the
second hits the cache, skipping translation and mapping (§4.3).  Each
thread is evaluated by the shared controller, one after another in
submission order; qualifying threads offload their hot loops, and the
accelerator serializes accelerated regions in arrival order (with a
benefit-ordered policy available).  The result is a timeline with a
makespan to compare against the all-CPU schedule — the transparent
utilization-of-idle-silicon story of the paper's introduction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

from ..accel import AcceleratorConfig
from ..isa import MachineState, Program
from .configure import CacheStats
from .controller import MesaController, MesaResult

__all__ = ["SchedulingPolicy", "ThreadSpec", "ThreadOutcome", "SystemRun",
           "MesaSystem"]


class SchedulingPolicy(enum.Enum):
    """How competing accelerated regions are ordered on the one fabric."""

    #: First come, first served (arrival = the order threads reach their
    #: offload point on the shared timeline; submission order breaks ties).
    FIFO = "fifo"
    #: Highest expected speedup first (the Thread-Director-style choice).
    BEST_SPEEDUP_FIRST = "best_speedup"


@dataclass(frozen=True)
class ThreadSpec:
    """One CPU thread submitted to the system."""

    name: str
    program: Program
    state_factory: Callable[[], MachineState]
    parallelizable: bool = False


@dataclass
class ThreadOutcome:
    """Per-thread scheduling outcome."""

    name: str
    result: MesaResult
    #: Cycle at which this thread's accelerated region started on the
    #: fabric (None when the thread ran CPU-only).
    accel_start: float | None = None
    #: Thread completion time on the shared timeline.
    finish: float = 0.0
    #: Extra cycles spent waiting for the fabric behind other threads.
    wait_cycles: float = 0.0

    @property
    def accelerated(self) -> bool:
        return self.result.accelerated

    @property
    def config_cache_hit(self) -> bool:
        """This thread reused a configuration another encounter cached."""
        return self.result.config_cache_hit


@dataclass
class SystemRun:
    """Outcome of scheduling a thread set on one accelerator."""

    outcomes: list[ThreadOutcome]
    policy: SchedulingPolicy
    #: Shared-controller cache activity of this run: the sum of its
    #: threads' per-execute ``result.cache_stats``.
    cache_stats: CacheStats = field(default_factory=CacheStats)

    @property
    def makespan(self) -> float:
        return max((o.finish for o in self.outcomes), default=0.0)

    @property
    def cpu_only_makespan(self) -> float:
        """All threads on their own cores, no accelerator."""
        return max((float(o.result.cpu_only.cycles) for o in self.outcomes),
                   default=0.0)

    @property
    def speedup(self) -> float:
        return (self.cpu_only_makespan / self.makespan
                if self.makespan else 0.0)

    def outcome(self, name: str) -> ThreadOutcome:
        for candidate in self.outcomes:
            if candidate.name == name:
                return candidate
        raise KeyError(name)


class MesaSystem:
    """One accelerator + one controller shared by all cores.

    The controller — and therefore the configuration cache — lives on the
    system, not on the per-thread evaluation: successive :meth:`run` calls
    and threads within one call all share it, exactly as one chip-level
    MESA instance would.
    """

    def __init__(self, config: AcceleratorConfig,
                 policy: SchedulingPolicy = SchedulingPolicy.FIFO) -> None:
        self.config = config
        self.policy = policy
        #: The chip's single MESA controller (shared configuration cache).
        self.controller = MesaController(config)

    def run(self, threads: list[ThreadSpec]) -> SystemRun:
        """Schedule the thread set; returns the shared timeline.

        Each thread is first evaluated in isolation by the shared
        controller (its own core runs regardless), serially in submission
        order, so a thread running a binary an earlier thread already
        configured deterministically hits the shared configuration cache.
        Accelerated regions are then serialized on the single fabric in
        policy order: a thread whose loop reaches the offload point while
        the fabric is busy keeps its core stalled at the loop entry (the
        paper's halt-at-entry protocol) until the fabric frees up.
        """
        evaluated = [
            ThreadOutcome(name=spec.name, result=self.controller.execute(
                spec.program, spec.state_factory,
                parallelizable=spec.parallelizable))
            for spec in threads]

        order = list(enumerate(evaluated))
        if self.policy is SchedulingPolicy.BEST_SPEEDUP_FIRST:
            order.sort(key=lambda item: -self._expected_speedup(item[1]))
        else:
            # True arrival order: the thread whose core reaches its offload
            # point first claims the fabric first (ties: submission order).
            order.sort(key=lambda item: (self._ready_at(item[1]), item[0]))

        fabric_free = 0.0
        for _, outcome in order:
            result = outcome.result
            if not result.accelerated:
                outcome.finish = float(result.cpu_only.cycles)
                continue
            # The thread reaches its offload point after its CPU-side
            # prefix (detection/config warm-up overlaps that execution).
            ready_at = self._ready_at(outcome)
            start = max(ready_at, fabric_free)
            outcome.wait_cycles = start - ready_at
            outcome.accel_start = start
            breakdown = result.breakdown
            accel_time = (breakdown.offload_cycles + breakdown.accel_cycles
                          + breakdown.return_cycles)
            fabric_free = start + accel_time
            outcome.finish = start + accel_time
        return SystemRun(
            outcomes=evaluated, policy=self.policy,
            cache_stats=sum((outcome.result.cache_stats
                             for outcome in evaluated), CacheStats()))

    @staticmethod
    def _ready_at(outcome: ThreadOutcome) -> float:
        result = outcome.result
        return result.breakdown.cpu_cycles if result.accelerated else 0.0

    @staticmethod
    def _expected_speedup(outcome: ThreadOutcome) -> float:
        result = outcome.result
        if not result.accelerated or result.total_cycles <= 0:
            return 0.0
        return result.cpu_only.cycles / result.total_cycles
