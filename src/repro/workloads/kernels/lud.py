"""Rodinia *lud*: LU decomposition inner product.

``acc -= l[i] * u[i]`` — the dot-product update at the heart of blocked LU.
Like backprop it carries a floating-point recurrence, but with two streaming
input arrays.
"""

from __future__ import annotations

import math

from ...isa import MachineState, assemble, f, f32
from ..base import KernelInstance, StateBuilder, load_immediate

NAME = "lud"
L_COL = 0x10000
U_ROW = 0x20000
INITIAL = 10.0


def build(iterations: int = 256, seed: int = 1) -> KernelInstance:
    """Build the lud inner-product kernel."""
    program = assemble(f"""
        {load_immediate('t0', iterations)}
        {load_immediate('a0', L_COL)}
        {load_immediate('a1', U_ROW)}
        loop:
            flw    ft0, 0(a0)
            flw    ft1, 0(a1)
            fmul.s ft2, ft0, ft1
            fsub.s fs0, fs0, ft2   # acc -= l[i] * u[i]
            addi   a0, a0, 4
            addi   a1, a1, 4
            addi   t0, t0, -1
            bne    t0, zero, loop
    """)
    builder = StateBuilder(program, seed)
    builder.set_freg("fs0", INITIAL)
    l_col = builder.random_floats(L_COL, iterations, 0.05, 0.25)
    u_row = builder.random_floats(U_ROW, iterations, 0.05, 0.25)

    def verify(state: MachineState) -> bool:
        expected = f32(INITIAL)
        for a, b in zip(l_col, u_row):
            expected = f32(expected - f32(f32(a) * f32(b)))
        return math.isclose(float(state.read(f(8))), expected,
                            rel_tol=1e-3, abs_tol=1e-4)

    return KernelInstance(
        name=NAME,
        program=program,
        state_factory=builder.factory(),
        parallelizable=False,  # recurrence on the accumulator
        category="compute",
        iterations=iterations,
        description="LU inner-product update acc -= l[i]*u[i]",
        verify=verify,
    )
