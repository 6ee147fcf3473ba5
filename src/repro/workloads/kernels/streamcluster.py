"""Rodinia *streamcluster*: weighted distance with conditional assignment.

Per point: squared distance to the current centre, scaled by the point's
weight; if the cost beats the stored best, the best cost is updated (a
predicated store).  Mixes FP compute with control, between kmeans and bfs in
character.
"""

from __future__ import annotations

import math

from ...isa import MachineState, assemble, f32
from ..base import KernelInstance, StateBuilder, load_immediate

NAME = "streamcluster"
POINTS = 0x10000
WEIGHTS = 0x20000
BEST = 0x30000
CENTRE = (0.5, 0.5)


def build(iterations: int = 256, seed: int = 1) -> KernelInstance:
    """Build the streamcluster cost kernel."""
    program = assemble(f"""
        {load_immediate('t0', iterations)}
        {load_immediate('a0', POINTS)}
        {load_immediate('a1', WEIGHTS)}
        {load_immediate('a2', BEST)}
        loop:
            flw    ft0, 0(a0)          # x
            flw    ft1, 4(a0)          # y
            flw    ft2, 0(a1)          # weight
            flw    ft3, 0(a2)          # current best cost
            fsub.s ft4, ft0, fa0
            fsub.s ft5, ft1, fa1
            fmul.s ft4, ft4, ft4
            fmul.s ft5, ft5, ft5
            fadd.s ft4, ft4, ft5
            fmul.s ft4, ft4, ft2       # weighted cost
            fle.s  t1, ft3, ft4        # best <= cost ?
            bne    t1, zero, keep
            fsw    ft4, 0(a2)          # cost improves: store it
        keep:
            addi   a0, a0, 8
            addi   a1, a1, 4
            addi   a2, a2, 4
            addi   t0, t0, -1
            bne    t0, zero, loop
    """)
    builder = StateBuilder(program, seed)
    builder.set_freg("fa0", CENTRE[0])
    builder.set_freg("fa1", CENTRE[1])
    points = builder.random_floats(POINTS, 2 * iterations, 0.0, 1.0)
    weights = builder.random_floats(WEIGHTS, iterations, 0.5, 2.0)
    best = builder.random_floats(BEST, iterations, 0.0, 0.5)

    def verify(state: MachineState) -> bool:
        for i in range(min(iterations, 32)):
            x, y = f32(points[2 * i]), f32(points[2 * i + 1])
            dx = f32(x - f32(CENTRE[0]))
            dy = f32(y - f32(CENTRE[1]))
            cost = f32(f32(f32(dx * dx) + f32(dy * dy))
                       * f32(weights[i]))
            expected = cost if cost < f32(best[i]) else f32(best[i])
            got = state.memory.load_float(BEST + 4 * i)
            if not math.isclose(got, expected, rel_tol=1e-4, abs_tol=1e-6):
                return False
        return True

    return KernelInstance(
        name=NAME,
        program=program,
        state_factory=builder.factory(),
        parallelizable=True,
        category="compute",
        iterations=iterations,
        description="weighted distance with predicated best update",
        verify=verify,
    )
