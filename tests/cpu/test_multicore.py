"""Tests for the multicore analytic model."""

import pytest

from repro.cpu import BandwidthModel, CpuConfig, MulticoreCpu, collect_trace
from repro.isa import assemble


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
        trace = memory_kernel_trace()
        tight = MulticoreCpu(CpuConfig(num_cores=16),
                             BandwidthModel(dram_bytes_per_cycle=1.0))
        loose = MulticoreCpu(CpuConfig(num_cores=16),
                             BandwidthModel(dram_bytes_per_cycle=64.0))
        assert tight.run(trace, 1.0).cycles >= loose.run(trace, 1.0).cycles
