"""Rodinia *leukocyte*: gradient-inverse-coefficient-of-variation cell
detection (simplified).

Per boundary sample the detector evaluates a polynomial of the local
gradient magnitude and clamps it against a threshold with a predicated
update — a mix of FP arithmetic and data-dependent control that lands
between the pure-compute kernels and streamcluster.
"""

from __future__ import annotations

import math

from ...isa import MachineState, assemble, f32
from ..base import KernelInstance, StateBuilder, load_immediate

NAME = "leukocyte"
GRADX = 0x10000
GRADY = 0x20000
SCORES = 0x30000
A1, A2 = 0.6, 0.3
THRESHOLD = 0.8


def build(iterations: int = 224, seed: int = 1) -> KernelInstance:
    """Build the leukocyte boundary-score kernel."""
    program = assemble(f"""
        {load_immediate('t0', iterations)}
        {load_immediate('a0', GRADX)}
        {load_immediate('a1', GRADY)}
        {load_immediate('a2', SCORES)}
        loop:
            flw    ft0, 0(a0)          # gx
            flw    ft1, 0(a1)          # gy
            fmul.s ft2, ft0, ft0
            fmul.s ft3, ft1, ft1
            fadd.s ft2, ft2, ft3       # m = gx^2 + gy^2
            fmul.s ft3, ft2, fa1       # a2 * m
            fadd.s ft3, ft3, fa0       # a1 + a2*m
            fmul.s ft4, ft2, ft3       # score = m * (a1 + a2*m)
            flt.s  t1, ft4, fa2        # score < threshold ?
            bne    t1, zero, keep
            fsgnj.s ft4, fa2, fa2      # clamp to the threshold
        keep:
            fsw    ft4, 0(a2)
            addi   a0, a0, 4
            addi   a1, a1, 4
            addi   a2, a2, 4
            addi   t0, t0, -1
            bne    t0, zero, loop
    """)
    builder = StateBuilder(program, seed)
    builder.set_freg("fa0", A1)
    builder.set_freg("fa1", A2)
    builder.set_freg("fa2", THRESHOLD)
    gradx = builder.random_floats(GRADX, iterations, -1.0, 1.0)
    grady = builder.random_floats(GRADY, iterations, -1.0, 1.0)

    def verify(state: MachineState) -> bool:
        for i in range(min(iterations, 24)):
            gx, gy = f32(gradx[i]), f32(grady[i])
            m = f32(f32(gx * gx) + f32(gy * gy))
            score = f32(m * f32(f32(m * f32(A2)) + f32(A1)))
            expected = score if score < f32(THRESHOLD) else f32(THRESHOLD)
            got = state.memory.load_float(SCORES + 4 * i)
            if not math.isclose(got, expected, rel_tol=1e-3, abs_tol=1e-5):
                return False
        return True

    return KernelInstance(
        name=NAME,
        program=program,
        state_factory=builder.factory(),
        parallelizable=True,
        category="compute",
        iterations=iterations,
        description="polynomial boundary score with predicated clamp",
        verify=verify,
    )
