"""Integration: an offloaded run ends in the CPU's architectural state.

The offload contract is that the fabric hands back the same state the CPU
would have produced.  For every Rodinia kernel, the measured run (CPU
stepping plus fabric offloads) must therefore end exactly where a CPU-only
functional run does: same pc, same value in every integer and FP register
(a NaN matches a NaN), and the same written memory bytes.
"""

import math
import struct

import pytest

from repro.accel import M_128
from repro.core import MesaController
from repro.cpu import collect_trace
from repro.isa import MachineState, assemble
from repro.workloads import build_kernel, kernel_names


def _same_value(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return a == b


def _assert_same_state(fabric, cpu) -> None:
    assert fabric.pc == cpu.pc
    fabric_regs, cpu_regs = fabric.snapshot(), cpu.snapshot()
    differing = [reg for reg in cpu_regs
                 if not _same_value(fabric_regs[reg], cpu_regs[reg])]
    assert not differing, {reg: (fabric_regs[reg], cpu_regs[reg])
                           for reg in differing}
    assert fabric.memory._bytes == cpu.memory._bytes


@pytest.mark.parametrize("name", kernel_names())
def test_offloaded_state_equals_cpu_state(name):
    kernel = build_kernel(name, iterations=64)
    result = MesaController(M_128).execute(
        kernel.program, kernel.state_factory,
        parallelizable=kernel.parallelizable)
    _assert_same_state(
        result.final_state,
        collect_trace(kernel.program, kernel.fresh_state()).final_state)


#: Same-address store→reload pairs whose load does not return the stored
#: register unchanged (it narrows, sign-extends, or crosses the int/FP
#: register files), so store→load forwarding must leave them to memory.
#: ``t1`` runs 500..301, wider than a byte and, shifted, than a halfword.
INEXACT_RELOADS = {
    "sb-lbu": "sb t1, 0(a0)\n lbu t2, 0(a0)\n sw t2, 4(a0)",
    "sh-lh": "slli t3, t1, 7\n sh t3, 0(a0)\n lh t2, 0(a0)\n sw t2, 4(a0)",
    "fsw-lw": ("fcvt.s.w ft0, t1\n fsw ft0, 0(a0)\n lw t2, 0(a0)\n"
               " sw t2, 4(a0)"),
    "sw-flw": "sw t1, 0(a0)\n flw ft1, 0(a0)\n fsw ft1, 4(a0)",
}


@pytest.mark.parametrize("pair", sorted(INEXACT_RELOADS))
def test_inexact_store_reload_is_not_forwarded(pair):
    program = assemble(
        f"""
        addi t0, zero, 200
        lui a0, 16
        loop:
            addi t1, t0, 300
            {INEXACT_RELOADS[pair]}
            addi a0, a0, 8
            addi t0, t0, -1
            bne t0, zero, loop
        """
    )

    def fresh():
        return MachineState(pc=program.base_address)

    result = MesaController(M_128).execute(program, fresh)
    assert result.accelerated, result.reason
    assert result.memopt_report.forwarded_loads == 0
    _assert_same_state(result.final_state,
                       collect_trace(program, fresh()).final_state)


def test_fcvt_of_nan_offloads_and_saturates():
    """FCVT.W.S of NaN and out-of-range elements saturates on both sides, so
    the offloaded loop ends in the CPU's state instead of faulting."""
    program = assemble(
        """
        addi t0, zero, 64
        lui a0, 16
        loop:
            flw ft0, 0(a0)
            fcvt.w.s t1, ft0
            sw t1, 0(a0)
            addi a0, a0, 4
            addi t0, t0, -1
            bne t0, zero, loop
        """
    )
    elements = [math.nan, 3e9, -3e9, math.inf, -1.5, 42.75, -math.inf, 7.0]

    def fresh():
        state = MachineState(pc=program.base_address)
        for i in range(64):
            raw = struct.pack("<f", elements[i % len(elements)])
            state.memory.store(0x10000 + 4 * i, 4,
                               int.from_bytes(raw, "little"))
        return state

    result = MesaController(M_128).execute(program, fresh)
    assert result.accelerated, result.reason
    cpu = collect_trace(program, fresh()).final_state
    _assert_same_state(result.final_state, cpu)
    assert cpu.memory.load(0x10000, 4) == (1 << 31) - 1
