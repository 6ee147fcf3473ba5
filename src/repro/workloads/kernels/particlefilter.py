"""Rodinia *particlefilter*: likelihood-weight update (simplified).

Each particle's weight is scaled by a likelihood term derived from its
observation error: ``w[i] = w[i] * c / (err[i]^2 + c)`` — a rational
approximation of the Gaussian likelihood that keeps the kernel inside the
RV32IMF op set.  One divide per particle makes it FP-divider-bound, a
different resource profile from the mul/add kernels.
"""

from __future__ import annotations

import math

from ...isa import MachineState, assemble, f32
from ..base import KernelInstance, StateBuilder, load_immediate

NAME = "particlefilter"
WEIGHTS = 0x10000
ERRORS = 0x20000
C = 0.25


def build(iterations: int = 224, seed: int = 1) -> KernelInstance:
    """Build the particle-filter weight-update kernel."""
    program = assemble(f"""
        {load_immediate('t0', iterations)}
        {load_immediate('a0', WEIGHTS)}
        {load_immediate('a1', ERRORS)}
        loop:
            flw    ft0, 0(a0)          # w[i]
            flw    ft1, 0(a1)          # err[i]
            fmul.s ft2, ft1, ft1       # err^2
            fadd.s ft2, ft2, fa0       # err^2 + c
            fdiv.s ft3, fa0, ft2       # c / (err^2 + c)
            fmul.s ft4, ft0, ft3       # updated weight
            fsw    ft4, 0(a0)
            addi   a0, a0, 4
            addi   a1, a1, 4
            addi   t0, t0, -1
            bne    t0, zero, loop
    """)
    builder = StateBuilder(program, seed)
    builder.set_freg("fa0", C)
    weights = builder.random_floats(WEIGHTS, iterations, 0.1, 1.0)
    errors = builder.random_floats(ERRORS, iterations, -1.0, 1.0)

    def verify(state: MachineState) -> bool:
        c = f32(C)
        for i in range(min(iterations, 24)):
            err = f32(errors[i])
            likelihood = f32(c / f32(f32(err * err) + c))
            expected = f32(f32(weights[i]) * likelihood)
            got = state.memory.load_float(WEIGHTS + 4 * i)
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
        description="likelihood weight update with one divide per particle",
        verify=verify,
    )
