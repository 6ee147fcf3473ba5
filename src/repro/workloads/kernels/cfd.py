"""Rodinia *cfd*: computational fluid dynamics flux computation (simplified).

Per element: load density, momentum, and energy, compute velocity and
pressure (one divide), and accumulate a flux value.  Long FP chains with a
divide give it the highest compute intensity of the suite.
"""

from __future__ import annotations

import math

from ...isa import MachineState, assemble, f32
from ..base import KernelInstance, StateBuilder, load_immediate

NAME = "cfd"
DENSITY = 0x10000
MOMENTUM = 0x20000
ENERGY = 0x28000
FLUX = 0x30000
GAMMA_MINUS_1 = 0.4


def build(iterations: int = 256, seed: int = 1) -> KernelInstance:
    """Build the cfd flux kernel."""
    program = assemble(f"""
        {load_immediate('t0', iterations)}
        {load_immediate('a0', DENSITY)}
        {load_immediate('a1', MOMENTUM)}
        {load_immediate('a2', ENERGY)}
        {load_immediate('a3', FLUX)}
        loop:
            flw    ft0, 0(a0)          # rho
            flw    ft1, 0(a1)          # rho*u
            flw    ft2, 0(a2)          # E
            fdiv.s ft3, ft1, ft0       # u = momentum / density
            fmul.s ft4, ft3, ft1       # u * rho*u
            fsub.s ft5, ft2, ft4       # E - rho*u^2  (internal-ish energy)
            fmul.s ft5, ft5, fa0       # * (gamma - 1) -> pressure
            fadd.s ft6, ft2, ft5       # E + p
            fmul.s ft6, ft6, ft3       # flux = u * (E + p)
            fsw    ft6, 0(a3)
            addi   a0, a0, 4
            addi   a1, a1, 4
            addi   a2, a2, 4
            addi   a3, a3, 4
            addi   t0, t0, -1
            bne    t0, zero, loop
    """)
    builder = StateBuilder(program, seed)
    builder.set_freg("fa0", GAMMA_MINUS_1)
    rho = builder.random_floats(DENSITY, iterations, 0.5, 2.0)
    mom = builder.random_floats(MOMENTUM, iterations, -1.0, 1.0)
    ene = builder.random_floats(ENERGY, iterations, 1.0, 4.0)

    def verify(state: MachineState) -> bool:
        for i in range(min(iterations, 32)):
            r, m, e = f32(rho[i]), f32(mom[i]), f32(ene[i])
            u = f32(m / r)
            p = f32(f32(e - f32(u * m)) * f32(GAMMA_MINUS_1))
            expected = f32(f32(e + p) * u)
            got = state.memory.load_float(FLUX + 4 * i)
            if not math.isclose(got, expected, rel_tol=1e-3, abs_tol=1e-4):
                return False
        return True

    return KernelInstance(
        name=NAME,
        program=program,
        state_factory=builder.factory(),
        parallelizable=True,
        category="compute",
        iterations=iterations,
        description="per-element flux with velocity/pressure computation",
        verify=verify,
    )
