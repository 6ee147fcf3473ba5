"""Rodinia *lavaMD*: particle pairwise-force inner computation.

Per neighbour: displacement vector, squared distance, inverse-square-root
style force magnitude (modeled with divide + sqrt), and force accumulation
into three components.  The largest loop body of the suite — good for
exercising bigger PE windows.
"""

from __future__ import annotations

import math

from ...isa import MachineState, assemble, f32
from ..base import KernelInstance, StateBuilder, load_immediate

NAME = "lavamd"
NEIGHBOURS = 0x10000
FORCES = 0x30000
HOME = (0.5, 0.5, 0.5)
SOFTENING = 0.05


def build(iterations: int = 192, seed: int = 1) -> KernelInstance:
    """Build the lavaMD force kernel."""
    program = assemble(f"""
        {load_immediate('t0', iterations)}
        {load_immediate('a0', NEIGHBOURS)}
        {load_immediate('a1', FORCES)}
        loop:
            flw    ft0, 0(a0)          # neighbour x
            flw    ft1, 4(a0)          # neighbour y
            flw    ft2, 8(a0)          # neighbour z
            fsub.s ft0, ft0, fa0       # dx
            fsub.s ft1, ft1, fa1       # dy
            fsub.s ft2, ft2, fa2       # dz
            fmul.s ft3, ft0, ft0
            fmul.s ft4, ft1, ft1
            fmul.s ft5, ft2, ft2
            fadd.s ft3, ft3, ft4
            fadd.s ft3, ft3, ft5       # r^2
            fadd.s ft3, ft3, fa3       # + softening
            fsqrt.s ft4, ft3           # r
            fmul.s ft5, ft3, ft4       # r^3
            fdiv.s ft6, fa4, ft5       # 1 / r^3 (force magnitude)
            fmul.s ft7, ft0, ft6       # fx
            fmul.s fs0, ft1, ft6       # fy
            fmul.s fs1, ft2, ft6       # fz
            fsw    ft7, 0(a1)
            fsw    fs0, 4(a1)
            fsw    fs1, 8(a1)
            addi   a0, a0, 12
            addi   a1, a1, 12
            addi   t0, t0, -1
            bne    t0, zero, loop
    """)
    builder = StateBuilder(program, seed)
    builder.set_freg("fa0", HOME[0])
    builder.set_freg("fa1", HOME[1])
    builder.set_freg("fa2", HOME[2])
    builder.set_freg("fa3", SOFTENING)
    builder.set_freg("fa4", 1.0)
    coords = builder.random_floats(NEIGHBOURS, 3 * iterations, 0.0, 1.0)

    def verify(state: MachineState) -> bool:
        for i in range(min(iterations, 16)):
            dx = f32(coords[3 * i]) - f32(HOME[0])
            dy = f32(coords[3 * i + 1]) - f32(HOME[1])
            dz = f32(coords[3 * i + 2]) - f32(HOME[2])
            r2 = dx * dx + dy * dy + dz * dz + SOFTENING
            magnitude = 1.0 / (r2 * math.sqrt(r2))
            for off, component in ((0, dx), (4, dy), (8, dz)):
                got = state.memory.load_float(FORCES + 12 * i + off)
                if not math.isclose(got, component * magnitude,
                                    rel_tol=2e-3, abs_tol=1e-3):
                    return False
        return True

    return KernelInstance(
        name=NAME,
        program=program,
        state_factory=builder.factory(),
        parallelizable=True,
        category="compute",
        iterations=iterations,
        description="pairwise force with sqrt/divide chain",
        verify=verify,
    )
