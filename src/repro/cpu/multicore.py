"""Multicore CPU baseline model.

The paper's headline comparison (Fig. 11) is against "a 16-core quad-issue
out-of-order RISC-V CPU".  Rather than simulating 16 interleaved cores, this
module applies the standard analytic decomposition on top of one detailed
single-core run:

* the *parallel* portion of the kernel scales over ``num_cores``, bounded by
  shared-memory bandwidth (L2 and DRAM are shared; per-core L1s are private);
* the *serial* portion and a per-visit fork/join overhead do not scale.

This captures the two effects the paper leans on — multicore CPUs scale well
on compute-bound kernels but saturate on bandwidth, and benchmarks like BFS
with low parallel efficiency hold the CPU baseline back less than they hold
MESA back.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..mem import MemoryHierarchy
from .config import CpuConfig
from .core import CoreResult, OutOfOrderCore
from .trace import Trace

__all__ = ["BandwidthModel", "MulticoreResult", "MulticoreCpu"]


@dataclass(frozen=True)
class BandwidthModel:
    """Shared-memory bandwidth limits (bytes per CPU cycle, chip-wide)."""

    l2_bytes_per_cycle: float = 64.0
    dram_bytes_per_cycle: float = 16.0
    line_bytes: int = 64
    #: Cycles of fork/join overhead per parallel region instance.
    sync_overhead_cycles: float = 500.0


@dataclass(frozen=True)
class MulticoreResult:
    """Outcome of the multicore analytic model."""

    cycles: float
    single_core: CoreResult
    num_cores: int
    parallel_fraction: float

    @property
    def speedup_vs_single(self) -> float:
        return self.single_core.cycles / self.cycles if self.cycles else 0.0


class MulticoreCpu:
    """Analytic multicore model layered on the detailed single-core model."""

    def __init__(self, config: CpuConfig | None = None,
                 bandwidth: BandwidthModel | None = None) -> None:
        self.config = config if config is not None else CpuConfig(num_cores=16)
        self.bandwidth = bandwidth if bandwidth is not None else BandwidthModel()

    def run(self, trace: Trace, parallel_fraction: float = 1.0,
            single: CoreResult | None = None,
            hierarchy: MemoryHierarchy | None = None) -> MulticoreResult:
        """Model the trace on ``config.num_cores`` cores.

        Args:
            trace: the dynamic single-thread trace of the kernel.
            parallel_fraction: fraction of single-core cycles inside
                parallelizable regions (1.0 for fully ``omp parallel`` loops).
            single: a precomputed single-core run of ``trace`` under an
                equivalent core/memory configuration, with ``hierarchy`` the
                memory hierarchy it warmed (the bandwidth floor reads its
                miss counts).  ``name``/``num_cores`` do not enter the core
                timing model, so callers holding a single-core result for
                the same timing parameters can pass it instead of paying a
                second detailed run.
        """
        if not 0.0 <= parallel_fraction <= 1.0:
            raise ValueError("parallel fraction must be within [0, 1]")
        if single is None or hierarchy is None:
            hierarchy = MemoryHierarchy(self.config.memory)
            core = OutOfOrderCore(self.config, hierarchy)
            single = core.run(trace)

        n = self.config.num_cores
        serial_cycles = single.cycles * (1.0 - parallel_fraction)
        parallel_cycles = single.cycles * parallel_fraction

        # Bandwidth floor: traffic that must cross the shared levels.
        bw = self.bandwidth
        l2_traffic = hierarchy.l1.stats.misses * bw.line_bytes
        dram_traffic = hierarchy.dram_accesses * bw.line_bytes
        bandwidth_floor = max(
            l2_traffic / bw.l2_bytes_per_cycle,
            dram_traffic / bw.dram_bytes_per_cycle,
        )

        scaled_parallel = max(parallel_cycles / n, bandwidth_floor * parallel_fraction)
        overhead = bw.sync_overhead_cycles if n > 1 and parallel_fraction > 0 else 0.0
        total = serial_cycles + scaled_parallel + overhead
        return MulticoreResult(
            cycles=total,
            single_core=single,
            num_cores=n,
            parallel_fraction=parallel_fraction,
        )
