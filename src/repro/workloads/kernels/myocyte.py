"""Rodinia *myocyte*: cardiac cell ODE state update (simplified Euler step).

``v = v + dt * (a*v - b*v*w + c)`` and ``w = w + dt * (v - d*w)`` — a pair of
coupled recurrences.  The whole loop is one long loop-carried dependence
chain, so neither tiling nor deep pipelining applies: the paper's class of
serial kernels.
"""

from __future__ import annotations

import math

from ...isa import MachineState, assemble, f, f32
from ..base import KernelInstance, StateBuilder, load_immediate

NAME = "myocyte"
DT = 0.01
A, B, C, D = 0.7, 0.3, 0.1, 0.5


def build(iterations: int = 256, seed: int = 1) -> KernelInstance:
    """Build the myocyte ODE-integration kernel."""
    program = assemble(f"""
        {load_immediate('t0', iterations)}
        loop:
            fmul.s ft0, fs0, fa0       # a*v
            fmul.s ft1, fs0, fs1       # v*w
            fmul.s ft1, ft1, fa1       # b*v*w
            fsub.s ft0, ft0, ft1
            fadd.s ft0, ft0, fa2       # + c
            fmul.s ft0, ft0, fa4       # * dt
            fadd.s fs0, fs0, ft0       # v update (recurrence)
            fmul.s ft2, fs1, fa3       # d*w
            fsub.s ft2, fs0, ft2       # v - d*w
            fmul.s ft2, ft2, fa4       # * dt
            fadd.s fs1, fs1, ft2       # w update (recurrence)
            addi   t0, t0, -1
            bne    t0, zero, loop
    """)
    builder = StateBuilder(program, seed)
    v0, w0 = 0.2, 0.1
    builder.set_freg("fs0", v0)
    builder.set_freg("fs1", w0)
    builder.set_freg("fa0", A)
    builder.set_freg("fa1", B)
    builder.set_freg("fa2", C)
    builder.set_freg("fa3", D)
    builder.set_freg("fa4", DT)

    def verify(state: MachineState) -> bool:
        v, w = f32(v0), f32(w0)
        for _ in range(iterations):
            dv = f32(f32(f32(f32(f32(A) * v)
                             - f32(f32(f32(v * w)) * f32(B)))
                         + f32(C)) * f32(DT))
            v = f32(v + dv)
            dw = f32(f32(v - f32(f32(D) * w)) * f32(DT))
            w = f32(w + dw)
        return (math.isclose(float(state.read(f(8))), v, rel_tol=1e-3)
                and math.isclose(float(state.read(f(9))), w, rel_tol=1e-3))

    return KernelInstance(
        name=NAME,
        program=program,
        state_factory=builder.factory(),
        parallelizable=False,  # coupled recurrences
        category="compute",
        iterations=iterations,
        description="coupled-ODE Euler step (serial recurrence chain)",
        verify=verify,
    )
