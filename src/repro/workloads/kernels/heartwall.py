"""Rodinia *heartwall*: template correlation window sum (simplified).

The tracking kernel correlates a small template against the image around
each candidate point.  Here each iteration computes one correlation term
over a 4-sample window: ``sum_k image[i+k] * template[k]`` — an unrolled
multiply-accumulate tree with heavy load traffic, between hotspot and
backprop in character (wide per-iteration tree, no loop-carried FP chain).
"""

from __future__ import annotations

import math

from ...isa import MachineState, assemble, f32
from ..base import KernelInstance, StateBuilder, load_immediate

NAME = "heartwall"
IMAGE = 0x10000
TEMPLATE = 0x20000
CORRELATION = 0x30000
WINDOW = 4


def build(iterations: int = 224, seed: int = 1) -> KernelInstance:
    """Build the heartwall correlation kernel (window unrolled x4)."""
    program = assemble(f"""
        {load_immediate('t0', iterations)}
        {load_immediate('a0', IMAGE)}
        {load_immediate('a2', CORRELATION)}
        loop:
            flw    ft0, 0(a0)
            flw    ft1, 4(a0)
            flw    ft2, 8(a0)
            flw    ft3, 12(a0)
            fmul.s ft0, ft0, fa0       # * template[0]
            fmul.s ft1, ft1, fa1
            fmul.s ft2, ft2, fa2
            fmul.s ft3, ft3, fa3
            fadd.s ft4, ft0, ft1       # reduction tree
            fadd.s ft5, ft2, ft3
            fadd.s ft6, ft4, ft5
            fsw    ft6, 0(a2)
            addi   a0, a0, 4
            addi   a2, a2, 4
            addi   t0, t0, -1
            bne    t0, zero, loop
    """)
    builder = StateBuilder(program, seed)
    template = [builder.rng.uniform(-1.0, 1.0) for _ in range(WINDOW)]
    for k, value in enumerate(template):
        builder.set_freg(f"fa{k}", value)
    image = builder.random_floats(IMAGE, iterations + WINDOW, 0.0, 255.0)

    def verify(state: MachineState) -> bool:
        t = [f32(v) for v in template]
        for i in range(min(iterations, 24)):
            products = [f32(f32(image[i + k]) * t[k])
                        for k in range(WINDOW)]
            expected = f32(f32(products[0] + products[1])
                           + f32(products[2] + products[3]))
            got = state.memory.load_float(CORRELATION + 4 * i)
            if not math.isclose(got, expected, rel_tol=1e-3, abs_tol=1e-2):
                return False
        return True

    return KernelInstance(
        name=NAME,
        program=program,
        state_factory=builder.factory(),
        parallelizable=True,
        category="compute",
        iterations=iterations,
        description="4-tap template correlation with a reduction tree",
        verify=verify,
    )
