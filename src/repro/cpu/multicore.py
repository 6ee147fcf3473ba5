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

The shared-memory bandwidth limits and the fork/join overhead are module
constants; a transfer moves one L2 line of the core's memory configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..mem import MemoryHierarchy
from .config import CpuConfig
from .core import CoreResult, OutOfOrderCore
from .trace import Trace

__all__ = ["MulticoreResult", "MulticoreCpu"]

#: Shared-memory bandwidth limits (bytes per CPU cycle, chip-wide).
L2_BYTES_PER_CYCLE = 64.0
DRAM_BYTES_PER_CYCLE = 16.0
#: Cycles of fork/join overhead per parallel region instance.
SYNC_OVERHEAD_CYCLES = 500.0


@dataclass(frozen=True)
class MulticoreResult:
    """Outcome of the multicore analytic model."""

    cycles: float
    single_core: CoreResult
    num_cores: int

    @property
    def speedup_vs_single(self) -> float:
        return self.single_core.cycles / self.cycles if self.cycles else 0.0


class MulticoreCpu:
    """Analytic multicore model layered on the detailed single-core model."""

    def __init__(self, config: CpuConfig | None = None) -> None:
        self.config = config if config is not None else CpuConfig(num_cores=16)

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
        line_bytes = self.config.memory.l2.line_bytes
        l2_traffic = hierarchy.l1.stats.misses * line_bytes
        dram_traffic = hierarchy.dram_accesses * line_bytes
        bandwidth_floor = max(
            l2_traffic / L2_BYTES_PER_CYCLE,
            dram_traffic / DRAM_BYTES_PER_CYCLE,
        )

        scaled_parallel = max(parallel_cycles / n, bandwidth_floor * parallel_fraction)
        overhead = (SYNC_OVERHEAD_CYCLES if n > 1 and parallel_fraction > 0
                    else 0.0)
        total = serial_cycles + scaled_parallel + overhead
        return MulticoreResult(
            cycles=total,
            single_core=single,
            num_cores=n,
        )
