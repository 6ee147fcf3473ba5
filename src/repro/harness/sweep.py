"""Design-space sweeps: kernels × backend configurations.

The paper motivates MESA's backend-agnostic model ("little assumption is
made on the organization of the target spatial accelerator", §3) partly
because it makes design-space exploration cheap.  This module is the
library's sweep driver: run a set of kernels over a set of backend
configurations and collect speedup, utilization, and mapping quality in one
table — the engine behind ``examples/design_space.py`` and custom studies.

Every (kernel, config) grid point is one shard of a
:class:`~repro.harness.parallel.ShardRunner` and runs on a fresh
``MesaController``, so a point is a pure function of its payload: the
same kernel, config and iteration count give the same ``SweepPoint``
whatever else ran in the process before it.  That is what lets a sweep
fan out over ``workers=N`` processes and still produce output identical
to the serial run — points merge in grid order, not completion order.
``SweepPoint.cache_stats`` is the configuration-cache activity of the
point's own execute, and ``SweepResult.cache_stats`` their sum.  A point
that crashes or times out degrades to a
``SweepPoint(accelerated=False, reason="shard failed: …")`` row rather
than aborting the sweep; the rendered matrix marks it ``—`` and lists the
degraded points in a footer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..accel import AcceleratorConfig
from ..core import MesaController, MesaOptions
from ..core.configure import CacheStats
from ..cpu import CpuConfig
from ..workloads import build_kernel
from .parallel import Shard, ShardRunner
from .report import render_table

__all__ = ["SweepPoint", "SweepResult", "sweep_backends", "pe_count_configs"]


@dataclass(frozen=True)
class SweepPoint:
    """One (kernel, configuration) measurement."""

    kernel: str
    config_name: str
    accelerated: bool
    speedup: float
    cycles: float
    tile_factor: int = 1
    utilization: float = 0.0
    iteration_latency: float = 0.0
    reason: str = ""
    #: Configuration-cache activity attributable to this point's execute.
    cache_stats: CacheStats = field(default_factory=CacheStats)

    @property
    def degraded(self) -> bool:
        """The point is a placeholder for a failed shard, not a measurement."""
        return self.reason.startswith("shard failed")


@dataclass
class SweepResult:
    """All measurements of one sweep, with lookup and rendering helpers."""

    points: list[SweepPoint] = field(default_factory=list)
    #: Aggregate configuration-cache activity across every executed point.
    cache_stats: CacheStats = field(default_factory=CacheStats)

    def point(self, kernel: str, config_name: str) -> SweepPoint:
        for candidate in self.points:
            if (candidate.kernel == kernel
                    and candidate.config_name == config_name):
                return candidate
        raise KeyError((kernel, config_name))

    def kernels(self) -> list[str]:
        seen: list[str] = []
        for point in self.points:
            if point.kernel not in seen:
                seen.append(point.kernel)
        return seen

    def configs(self) -> list[str]:
        seen: list[str] = []
        for point in self.points:
            if point.config_name not in seen:
                seen.append(point.config_name)
        return seen

    def degraded_points(self) -> list[SweepPoint]:
        return [point for point in self.points if point.degraded]

    def best_config(self, kernel: str) -> SweepPoint:
        """The configuration with the highest speedup for one kernel.

        Degraded ``shard failed`` placeholders are not measurements and
        never rank; if *every* point of the kernel is degraded (or the
        kernel is absent), raises ``KeyError`` rather than crowning a
        placeholder's fabricated ``speedup=1.0``.
        """
        candidates = [p for p in self.points
                      if p.kernel == kernel and not p.degraded]
        if not candidates:
            raise KeyError(kernel)
        return max(candidates, key=lambda p: p.speedup)

    def render(self, metric: str = "speedup") -> str:
        """A kernels × configs matrix of one metric.

        An absent point — or a degraded shard's placeholder — renders as
        ``—`` instead of raising; degraded shards are summarized below the
        table so a partially failed sweep still reports everything it has.
        """
        configs = self.configs()
        rows = []
        for kernel in self.kernels():
            row: list = [kernel]
            for config_name in configs:
                try:
                    point = self.point(kernel, config_name)
                except KeyError:
                    row.append("—")
                    continue
                if point.degraded:
                    row.append("—")
                elif not point.accelerated:
                    row.append("cpu")
                else:
                    row.append(getattr(point, metric))
            rows.append(row)
        text = render_table(["kernel"] + configs, rows,
                            title=f"Design-space sweep: {metric}")
        degraded = self.degraded_points()
        if degraded:
            lines = [f"degraded shards ({len(degraded)}):"]
            lines += [f"  {p.kernel} @ {p.config_name}: {p.reason}"
                      for p in degraded]
            text += "\n" + "\n".join(lines)
        return text


# -- shard worker -------------------------------------------------------------

def _measure_point(controller: MesaController, name: str,
                   config: AcceleratorConfig,
                   iterations: int) -> SweepPoint:
    """Measure one (kernel, config) grid point on ``controller``."""
    kernel = build_kernel(name, iterations=iterations)
    run = controller.execute(kernel.program, kernel.state_factory,
                             parallelizable=kernel.parallelizable)
    if run.accelerated:
        return SweepPoint(
            kernel=name,
            config_name=config.name,
            accelerated=True,
            speedup=run.speedup_vs_single_core,
            cycles=run.total_cycles,
            tile_factor=run.loop_plan.tile_factor,
            utilization=(run.accel_program.pe_count / config.num_pes
                         * run.loop_plan.tile_factor),
            iteration_latency=(run.runs[0].iteration_latency
                               if run.runs else 0.0),
            cache_stats=run.cache_stats,
        )
    return SweepPoint(
        kernel=name,
        config_name=config.name,
        accelerated=False,
        speedup=1.0,
        cycles=run.total_cycles,
        reason=run.reason,
        cache_stats=run.cache_stats,
    )


def _sweep_point_worker(payload: tuple) -> SweepPoint:
    """Measure one grid point on a fresh controller (module-level:
    picklable), so the point depends on its payload alone."""
    name, config, iterations, cpu_config, options = payload
    return _measure_point(MesaController(config, cpu_config, options),
                          name, config, iterations)


def sweep_backends(kernels: list[str], configs: list[AcceleratorConfig],
                   iterations: int = 192,
                   cpu_config: CpuConfig | None = None,
                   options: MesaOptions | None = None,
                   workers: int = 1,
                   shard_timeout: float | None = None) -> SweepResult:
    """Run every kernel on every backend configuration.

    Speedups are relative to the single-core OoO baseline (which is part of
    each MESA run).  Kernels that fail to qualify or map on a configuration
    appear with ``accelerated=False`` and speedup 1.0 — on the real system
    they simply keep running on the CPU.

    Args:
        workers: shard the grid over this many worker processes; ``1``
            (default) runs serially in-process.  Every point runs on its
            own controller and results merge in grid order, so the output
            is identical for any worker count.
        shard_timeout: wall-clock seconds allowed per (kernel, config)
            point, measured from when it starts executing on a worker.  A
            point that blows it degrades to a ``shard failed`` row (pooled
            execution only).
    """
    shards = [Shard(key=(name, config.name),
                    payload=(name, config, iterations, cpu_config, options))
              for config in configs for name in kernels]
    runner = ShardRunner(workers=workers, shard_timeout=shard_timeout)
    result = SweepResult()
    for outcome in runner.map(_sweep_point_worker, shards):
        if outcome.failed:
            name, config_name = outcome.key
            point = SweepPoint(kernel=name, config_name=config_name,
                               accelerated=False, speedup=1.0, cycles=0.0,
                               reason=f"shard failed: {outcome.error}")
        else:
            point = outcome.value
        result.points.append(point)
        result.cache_stats = result.cache_stats + point.cache_stats
    return result


def pe_count_configs(pe_counts: tuple[int, ...] = (16, 32, 64, 128, 256),
                     lsu_entries: int = 64,
                     memory_ports: int = 8) -> list[AcceleratorConfig]:
    """Configurations spanning PE counts with a fixed memory system."""
    configs = []
    for pes in pe_counts:
        rows = max(2, pes // 8)
        configs.append(AcceleratorConfig(
            name=f"M-{pes}", rows=rows, cols=pes // rows,
            lsu_entries=lsu_entries, memory_ports=memory_ports))
    return configs
