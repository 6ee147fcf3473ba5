"""Rodinia *backprop*: neural-network layer forward pass (inner loop).

One output unit's weighted-sum accumulation over the input layer:
``sum += weight[i] * input[i]``.  The floating-point accumulation is a
loop-carried recurrence, so pipelining is bounded by the FP-add latency —
a different bottleneck shape from the streaming kernels.
"""

from __future__ import annotations

import math

from ...isa import MachineState, assemble, f, f32
from ..base import KernelInstance, StateBuilder, load_immediate

NAME = "backprop"
WEIGHTS = 0x10000
INPUTS = 0x20000


def build(iterations: int = 256, seed: int = 1) -> KernelInstance:
    """Build the backprop weighted-sum kernel."""
    program = assemble(f"""
        {load_immediate('t0', iterations)}
        {load_immediate('a0', WEIGHTS)}
        {load_immediate('a1', INPUTS)}
        loop:
            flw    ft0, 0(a0)
            flw    ft1, 0(a1)
            fmul.s ft2, ft0, ft1
            fadd.s fs0, fs0, ft2   # loop-carried accumulation
            addi   a0, a0, 4
            addi   a1, a1, 4
            addi   t0, t0, -1
            bne    t0, zero, loop
    """)
    builder = StateBuilder(program, seed)
    builder.set_freg("fs0", 0.0)
    weights = builder.random_floats(WEIGHTS, iterations, -1.0, 1.0)
    inputs = builder.random_floats(INPUTS, iterations, 0.0, 1.0)

    def verify(state: MachineState) -> bool:
        expected = 0.0
        for w, v in zip(weights, inputs):
            expected = f32(expected + f32(f32(w) * f32(v)))
        return math.isclose(float(state.read(f(8))), expected,
                            rel_tol=1e-3, abs_tol=1e-4)

    return KernelInstance(
        name=NAME,
        program=program,
        state_factory=builder.factory(),
        parallelizable=False,  # the accumulation is a true dependence
        category="compute",
        iterations=iterations,
        description="layer forward-pass weighted sum (FP accumulation)",
        verify=verify,
    )
