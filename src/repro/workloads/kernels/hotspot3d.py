"""Rodinia *hotspot3D*: 7-point 3-D thermal stencil.

Like hotspot but with two extra neighbour loads (above/below planes) — 8
loads + 1 store per cell, the most memory-port-hungry kernel in the suite.
"""

from __future__ import annotations

import math

from ...isa import MachineState, assemble, f32
from ..base import KernelInstance, StateBuilder, load_immediate

NAME = "hotspot3d"
WIDTH = 16
PLANE = WIDTH * WIDTH
TEMPS = 0x10000
OUT = 0x30000
K = 0.125


def build(iterations: int = 192, seed: int = 1) -> KernelInstance:
    """Build the hotspot3D stencil kernel (interior cell sweep)."""
    row = 4 * WIDTH
    plane = 4 * PLANE
    start = plane + row + 4  # first fully interior cell
    program = assemble(f"""
        {load_immediate('t0', iterations)}
        {load_immediate('a0', TEMPS + start)}
        {load_immediate('a2', OUT + start)}
        loop:
            flw    ft0, 0(a0)          # centre
            flw    ft1, -4(a0)         # west
            flw    ft2, 4(a0)          # east
            flw    ft3, -{row}(a0)     # north
            flw    ft4, {row}(a0)      # south
            flw    ft5, -{plane}(a0)   # below
            flw    ft6, {plane}(a0)    # above
            fadd.s ft7, ft1, ft2
            fadd.s fs0, ft3, ft4
            fadd.s fs1, ft5, ft6
            fadd.s ft7, ft7, fs0
            fadd.s ft7, ft7, fs1       # sum of six neighbours
            fmul.s ft7, ft7, fa0       # * k
            fadd.s ft7, ft7, ft0
            fsw    ft7, 0(a2)
            addi   a0, a0, 4
            addi   a2, a2, 4
            addi   t0, t0, -1
            bne    t0, zero, loop
    """)
    builder = StateBuilder(program, seed)
    builder.set_freg("fa0", K)
    count = iterations + 2 * PLANE + 2 * WIDTH + 2
    temps = builder.random_floats(TEMPS, count, 300.0, 340.0)

    def verify(state: MachineState) -> bool:
        t = [f32(v) for v in temps]
        for i in range(min(iterations, 16)):
            c = PLANE + WIDTH + 1 + i
            neighbours = f32(f32(f32(t[c - 1] + t[c + 1])
                                 + f32(t[c - WIDTH] + t[c + WIDTH]))
                             + f32(t[c - PLANE] + t[c + PLANE]))
            expected = f32(f32(neighbours * f32(K)) + t[c])
            got = state.memory.load_float(OUT + 4 * c)
            if not math.isclose(got, expected, rel_tol=1e-3, abs_tol=1e-2):
                return False
        return True

    return KernelInstance(
        name=NAME,
        program=program,
        state_factory=builder.factory(),
        parallelizable=True,
        category="stencil",
        iterations=iterations,
        description="7-point 3-D thermal stencil sweep",
        verify=verify,
    )
