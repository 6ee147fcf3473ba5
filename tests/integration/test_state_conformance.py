"""Integration: an offloaded run ends in the CPU's architectural state.

The offload contract is that the fabric hands back the same state the CPU
would have produced.  For every Rodinia kernel, the measured run (CPU
stepping plus fabric offloads) must therefore end exactly where a CPU-only
functional run does: same pc, same value in every integer and FP register
(a NaN matches a NaN), and the same written memory bytes.
"""

import math

import pytest

from repro.accel import M_128
from repro.core import MesaController
from repro.cpu import collect_trace
from repro.workloads import build_kernel, kernel_names


def _same_value(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return a == b


@pytest.mark.parametrize("name", kernel_names())
def test_offloaded_state_equals_cpu_state(name):
    kernel = build_kernel(name, iterations=64)
    result = MesaController(M_128).execute(
        kernel.program, kernel.state_factory,
        parallelizable=kernel.parallelizable)
    fabric = result.final_state
    cpu = collect_trace(kernel.program, kernel.fresh_state()).final_state

    assert fabric.pc == cpu.pc
    fabric_regs, cpu_regs = fabric.snapshot(), cpu.snapshot()
    differing = [reg for reg in cpu_regs
                 if not _same_value(fabric_regs[reg], cpu_regs[reg])]
    assert not differing, {reg: (fabric_regs[reg], cpu_regs[reg])
                           for reg in differing}
    assert fabric.memory._bytes == cpu.memory._bytes
