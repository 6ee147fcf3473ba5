"""Tests for the multicore analytic model."""

import pytest

from repro.cpu import CpuConfig, MulticoreCpu, OutOfOrderCore, collect_trace
from repro.cpu.multicore import (
    DRAM_BYTES_PER_CYCLE,
    L2_BYTES_PER_CYCLE,
    SYNC_OVERHEAD_CYCLES,
)
from repro.isa import assemble
from repro.mem import MemoryHierarchy


def compute_kernel_trace(iters: int = 2000):
    """A compute-heavy loop (long FP chains, little memory)."""
    return collect_trace(assemble(
        f"""
        addi t0, zero, {iters}
        loop:
            fmul.s ft0, ft1, ft2
            fadd.s ft3, ft0, ft3
            fmul.s ft4, ft1, ft1
            fadd.s ft5, ft4, ft5
            addi t0, t0, -1
            bne t0, zero, loop
        """
    ))


def memory_kernel_trace(iters: int = 200):
    """A streaming loop that misses the cache every line."""
    return collect_trace(assemble(
        f"""
        addi t0, zero, {iters}
        addi a0, zero, 0
        loop:
            lw t1, 0(a0)
            lw t2, 64(a0)
            lw t3, 128(a0)
            addi a0, a0, 192
            addi t0, t0, -1
            bne t0, zero, loop
        """
    ))


class TestScaling:
    def test_parallel_kernel_speeds_up(self):
        trace = compute_kernel_trace()
        result = MulticoreCpu(CpuConfig(num_cores=16)).run(trace, 1.0)
        assert result.speedup_vs_single > 4

    def test_speedup_bounded_by_core_count(self):
        trace = compute_kernel_trace()
        result = MulticoreCpu(CpuConfig(num_cores=16)).run(trace, 1.0)
        assert result.speedup_vs_single <= 16

    def test_serial_kernel_does_not_scale(self):
        trace = compute_kernel_trace()
        result = MulticoreCpu(CpuConfig(num_cores=16)).run(trace, 0.0)
        assert result.speedup_vs_single < 1.01

    def test_amdahl_ordering(self):
        trace = compute_kernel_trace()
        cpu = MulticoreCpu(CpuConfig(num_cores=16))
        s50 = cpu.run(trace, 0.5).speedup_vs_single
        s90 = cpu.run(trace, 0.9).speedup_vs_single
        s100 = cpu.run(trace, 1.0).speedup_vs_single
        assert s50 < s90 < s100

    def test_memory_bound_kernel_scales_worse(self):
        cores = CpuConfig(num_cores=16)
        compute = MulticoreCpu(cores).run(compute_kernel_trace(), 1.0)
        memory = MulticoreCpu(cores).run(memory_kernel_trace(), 1.0)
        assert memory.speedup_vs_single < compute.speedup_vs_single

    def test_more_cores_never_slower(self):
        trace = compute_kernel_trace()
        few = MulticoreCpu(CpuConfig(num_cores=4)).run(trace, 1.0)
        many = MulticoreCpu(CpuConfig(num_cores=16)).run(trace, 1.0)
        assert many.cycles <= few.cycles

    def test_single_core_has_no_sync_overhead(self):
        trace = compute_kernel_trace()
        result = MulticoreCpu(CpuConfig(num_cores=1)).run(trace, 1.0)
        assert result.cycles == pytest.approx(result.single_core.cycles)

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            MulticoreCpu().run(compute_kernel_trace(10), 1.5)

    def test_bandwidth_model_limits(self):
        # The streaming kernel's 16-way share is below its traffic over the
        # shared levels, so the parallel part runs at the bandwidth floor.
        trace = memory_kernel_trace()
        config = CpuConfig(num_cores=16)
        hierarchy = MemoryHierarchy(config.memory)
        single = OutOfOrderCore(config, hierarchy).run(trace)
        result = MulticoreCpu(config).run(trace, 1.0, single=single,
                                          hierarchy=hierarchy)
        line = config.memory.l2.line_bytes
        floor = max(hierarchy.l1.stats.misses * line / L2_BYTES_PER_CYCLE,
                    hierarchy.dram_accesses * line / DRAM_BYTES_PER_CYCLE)
        assert floor > single.cycles / 16
        assert result.cycles == pytest.approx(floor + SYNC_OVERHEAD_CYCLES)
