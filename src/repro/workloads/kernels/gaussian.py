"""Rodinia *gaussian*: one row-elimination sweep of Gaussian elimination.

``a[j] -= ratio * b[j]`` across a matrix row — two streaming loads, a
multiply-subtract, and a store per element.  Fully parallel across columns.
"""

from __future__ import annotations

import math

from ...isa import MachineState, assemble, f32
from ..base import KernelInstance, StateBuilder, load_immediate

NAME = "gaussian"
ROW_A = 0x10000
ROW_B = 0x20000
RATIO = 0.375


def build(iterations: int = 256, seed: int = 1) -> KernelInstance:
    """Build the gaussian row-elimination kernel."""
    program = assemble(f"""
        {load_immediate('t0', iterations)}
        {load_immediate('a0', ROW_A)}
        {load_immediate('a1', ROW_B)}
        loop:
            flw    ft0, 0(a0)          # a[j]
            flw    ft1, 0(a1)          # b[j]
            fmul.s ft2, ft1, fa0       # ratio * b[j]
            fsub.s ft3, ft0, ft2
            fsw    ft3, 0(a0)          # a[j] updated in place
            addi   a0, a0, 4
            addi   a1, a1, 4
            addi   t0, t0, -1
            bne    t0, zero, loop
    """)
    builder = StateBuilder(program, seed)
    builder.set_freg("fa0", RATIO)
    row_a = builder.random_floats(ROW_A, iterations, -2.0, 2.0)
    row_b = builder.random_floats(ROW_B, iterations, -2.0, 2.0)

    def verify(state: MachineState) -> bool:
        for j in range(min(iterations, 32)):
            expected = f32(f32(row_a[j])
                           - f32(f32(row_b[j]) * f32(RATIO)))
            got = state.memory.load_float(ROW_A + 4 * j)
            if not math.isclose(got, expected, rel_tol=1e-4, abs_tol=1e-5):
                return False
        return True

    return KernelInstance(
        name=NAME,
        program=program,
        state_factory=builder.factory(),
        parallelizable=True,
        category="compute",
        iterations=iterations,
        description="row elimination a[j] -= ratio * b[j]",
        verify=verify,
    )
