"""Rodinia *hotspot*: 2-D thermal stencil (5-point).

Each iteration updates one cell of the temperature grid from its four
neighbours and the local power dissipation:

    out[i] = t[i] + k * (t[i-1] + t[i+1] + t[i-W] + t[i+W] - 4*t[i]) + p[i]

Streaming, fully parallel, and load-heavy (6 loads + 1 store per cell) —
one of the kernels that stresses the memory ports rather than the PEs.
"""

from __future__ import annotations

import math

from ...isa import MachineState, assemble, f32
from ..base import KernelInstance, StateBuilder, load_immediate

NAME = "hotspot"
WIDTH = 64
TEMPS = 0x10000
POWER = 0x20000
OUT = 0x30000
K = 0.1


def build(iterations: int = 256, seed: int = 1) -> KernelInstance:
    """Build the hotspot stencil kernel (one row sweep of ``iterations``
    interior cells)."""
    row_offset = 4 * WIDTH
    program = assemble(f"""
        {load_immediate('t0', iterations)}
        {load_immediate('a0', TEMPS + row_offset)}
        {load_immediate('a1', POWER + row_offset)}
        {load_immediate('a2', OUT + row_offset)}
        loop:
            flw    ft0, 0(a0)            # centre
            flw    ft1, -4(a0)           # west
            flw    ft2, 4(a0)            # east
            flw    ft3, -{row_offset}(a0)  # north
            flw    ft4, {row_offset}(a0)   # south
            flw    ft5, 0(a1)            # power
            fadd.s ft6, ft1, ft2
            fadd.s ft7, ft3, ft4
            fadd.s ft6, ft6, ft7
            fadd.s fs1, ft0, ft0
            fadd.s fs1, fs1, fs1         # 4 * centre
            fsub.s ft6, ft6, fs1
            fmul.s ft6, ft6, fa0         # * k
            fadd.s ft6, ft6, ft0
            fadd.s ft6, ft6, ft5
            fsw    ft6, 0(a2)
            addi   a0, a0, 4
            addi   a1, a1, 4
            addi   a2, a2, 4
            addi   t0, t0, -1
            bne    t0, zero, loop
    """)
    builder = StateBuilder(program, seed)
    builder.set_freg("fa0", K)
    temps = builder.random_floats(TEMPS, iterations + 2 * WIDTH + 2,
                                  300.0, 340.0)
    power = builder.random_floats(POWER, iterations + 2 * WIDTH + 2,
                                  0.0, 1.0)

    def verify(state: MachineState) -> bool:
        t = [f32(v) for v in temps]
        for i in range(min(iterations, 32)):  # spot-check a prefix
            c = WIDTH + i
            ew = f32(t[c - 1] + t[c + 1])
            ns = f32(t[c - WIDTH] + t[c + WIDTH])
            twice = f32(t[c] + t[c])
            quad = f32(twice + twice)
            laplacian = f32(f32(ew + ns) - quad)
            expected = f32(laplacian * f32(K))
            expected = f32(expected + t[c])
            expected = f32(expected + f32(power[c]))
            got = state.memory.load_float(OUT + 4 * c)
            if not math.isclose(got, expected, rel_tol=1e-3, abs_tol=1e-3):
                return False
        return True

    return KernelInstance(
        name=NAME,
        program=program,
        state_factory=builder.factory(),
        parallelizable=True,
        category="stencil",
        iterations=iterations,
        description="5-point thermal stencil row sweep",
        verify=verify,
    )
