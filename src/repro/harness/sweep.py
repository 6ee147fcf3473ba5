"""Design-space sweeps: kernels × backend configurations.

The paper motivates MESA's backend-agnostic model ("little assumption is
made on the organization of the target spatial accelerator", §3) partly
because it makes design-space exploration cheap.  This module is the
library's sweep driver: run a set of kernels over a set of backend
configurations and collect speedup, utilization, and mapping quality in one
table — the engine behind ``examples/design_space.py`` and custom studies.

The grid is dispatched in **chunks**: several grid points of one backend
config travel as a single shard of a
:class:`~repro.harness.parallel.ShardRunner`, so pickling and IPC are
amortized and each worker's per-config controller serves ≥2 points of the
same config back to back (the warm path the cache was built for).  A sweep
fans out over a persistent pool of warm-booted workers (``workers=N``)
while its merged table stays byte-identical to the serial run — chunks are
formed in grid order and merge in grid order, not completion order.  A
chunk that crashes or times out degrades every point it carried to a
``SweepPoint(accelerated=False, reason="shard failed: …")`` row rather
than aborting the sweep; the rendered matrix marks them ``—`` and lists
the degraded shards in a footer.  ``shard_timeout`` stays a *per-point*
budget: a chunk's deadline is the budget times its chunk size, measured
from the moment the chunk starts executing on a worker.

Within one worker process, the chip-level semantics of PR 1 are preserved:
every point of the same backend config reuses **one** ``MesaController``
(pre-built by the pool's warm-boot initializer), so re-encountered regions
hit the shared configuration cache's warm path, and the per-point cache
activity is surfaced through ``SweepPoint.cache_stats`` /
``SweepResult.cache_stats``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..accel import AcceleratorConfig
from ..core import MesaController, MesaOptions
from ..core.configure import CacheStats
from ..cpu import CpuConfig
from ..workloads import build_kernel
from .parallel import Shard, ShardRunner, describe_error
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

#: Per-worker-process controller reuse: one controller per (sweep, backend
#: config), so every point of a config inside one worker shares the chip's
#: configuration cache (re-encountered regions hit the warm path).  Keyed by
#: sweep token so successive sweeps in one process stay independent —
#: byte-identical to a fresh serial run.
_WORKER_CONTROLLERS: dict[tuple, MesaController] = {}
_SWEEP_TOKENS = itertools.count()


def _controller_for(token: int, config: AcceleratorConfig,
                    cpu_config: CpuConfig | None,
                    options: MesaOptions | None) -> MesaController:
    key = (token, config, cpu_config, options)
    controller = _WORKER_CONTROLLERS.get(key)
    if controller is None:
        # A new sweep invalidates the previous one's controllers (bounds
        # worker-resident state in long-lived pool processes, and clears
        # fork-inherited controllers from the parent's earlier sweeps).
        for stale in [k for k in _WORKER_CONTROLLERS if k[0] != token]:
            del _WORKER_CONTROLLERS[stale]
        controller = MesaController(config, cpu_config, options)
        _WORKER_CONTROLLERS[key] = controller
    return controller


def _sweep_warm_boot(token: int, configs: tuple,
                     cpu_config: CpuConfig | None,
                     options: MesaOptions | None) -> None:
    """Pool initializer: pre-build this worker's per-config controllers so
    the config cache and plan cache are resident before the first chunk
    lands (and evict any fork-inherited controllers of earlier sweeps)."""
    for config in configs:
        _controller_for(token, config, cpu_config, options)


def _measure_point(controller: MesaController, name: str,
                   config: AcceleratorConfig,
                   iterations: int) -> SweepPoint:
    """Measure one (kernel, config) grid point on a resident controller."""
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


def _sweep_chunk_worker(payload: tuple) -> list[SweepPoint]:
    """Measure one chunk of same-config grid points (module-level:
    picklable).  A point that raises degrades to its own ``shard failed``
    row without taking its chunk siblings down with it."""
    token, config, names, iterations, cpu_config, options = payload
    controller = _controller_for(token, config, cpu_config, options)
    points = []
    for name in names:
        try:
            points.append(_measure_point(controller, name, config,
                                         iterations))
        except Exception as exc:
            points.append(SweepPoint(
                kernel=name, config_name=config.name, accelerated=False,
                speedup=1.0, cycles=0.0,
                reason=f"shard failed: {describe_error(exc)}"))
    return points


def _chunk_size(n_kernels: int, workers: int, chunk: int | None) -> int:
    """Grid points of one config per shard.

    Auto policy (``chunk=None``): serial execution takes one chunk per
    config; pooled execution aims for ~2 chunks per worker per config —
    large enough to amortize pickling/IPC and hit the per-config
    controller's warm path, small enough that the pool load-balances
    kernels of uneven cost.
    """
    if chunk is not None:
        if chunk < 1:
            raise ValueError("chunk must be >= 1")
        return chunk
    if workers <= 1:
        return max(1, n_kernels)
    return max(1, -(-n_kernels // (workers * 2)))


def sweep_backends(kernels: list[str], configs: list[AcceleratorConfig],
                   iterations: int = 192,
                   cpu_config: CpuConfig | None = None,
                   options: MesaOptions | None = None,
                   workers: int = 1,
                   shard_timeout: float | None = None,
                   chunk: int | None = None) -> SweepResult:
    """Run every kernel on every backend configuration.

    Speedups are relative to the single-core OoO baseline (which is part of
    each MESA run).  Kernels that fail to qualify or map on a configuration
    appear with ``accelerated=False`` and speedup 1.0 — on the real system
    they simply keep running on the CPU.

    Args:
        workers: shard the grid over this many warm worker processes; ``1``
            (default) runs serially in-process.  Results are merged in grid
            order either way, so the output is byte-identical.
        shard_timeout: wall-clock seconds allowed per (kernel, config)
            point, measured from when its chunk starts executing on a
            worker; a chunk's deadline is this budget × its chunk size.  A
            chunk that blows its deadline degrades every point it carried
            to a ``shard failed`` row (pooled execution only).
        chunk: grid points of one config per shard; ``None`` picks
            automatically (see :func:`_chunk_size`).
    """
    token = next(_SWEEP_TOKENS)
    size = _chunk_size(len(kernels), workers, chunk)
    shards = []
    for config in configs:
        for base in range(0, len(kernels), size):
            names = tuple(kernels[base:base + size])
            shards.append(Shard(
                key=(config.name,) + names,
                payload=(token, config, names, iterations, cpu_config,
                         options),
                timeout=(shard_timeout * len(names)
                         if shard_timeout is not None else None)))
    runner = ShardRunner(workers=workers, shard_timeout=shard_timeout,
                         initializer=_sweep_warm_boot,
                         initargs=(token, tuple(configs), cpu_config,
                                   options))
    result = SweepResult()
    for shard, outcome in zip(shards, runner.map(_sweep_chunk_worker,
                                                 shards)):
        config_name = shard.key[0]
        names = shard.payload[2]
        if outcome.failed:
            points = [SweepPoint(
                kernel=name,
                config_name=config_name,
                accelerated=False,
                speedup=1.0,
                cycles=0.0,
                reason=f"shard failed: {outcome.error}",
            ) for name in names]
        else:
            points = outcome.value
        for point in points:
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
