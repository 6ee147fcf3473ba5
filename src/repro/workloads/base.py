"""Shared infrastructure for workload kernels.

Each Rodinia kernel module exposes ``build(iterations, seed) ->
KernelInstance``: the assembled inner loop (what MESA's trace cache would
capture), a factory for fresh architectural states with seeded input arrays,
the OpenMP-style parallelizability annotation, and an optional functional
verifier used by the integration tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from ..isa import MachineState, Program, Register, parse_register

__all__ = ["KernelInstance", "load_immediate", "StateBuilder", "StateRecipe"]


@dataclass(frozen=True)
class KernelInstance:
    """One runnable kernel: program + inputs + metadata."""

    name: str
    program: Program
    state_factory: Callable[[], MachineState]
    #: Carries an ``omp parallel``/``omp simd`` annotation (paper §4.3).
    parallelizable: bool
    #: "compute" / "stencil" / "memory" / "control" — drives expectations.
    category: str
    iterations: int
    description: str
    #: Optional functional check of the final state.
    verify: Callable[[MachineState], bool] | None = None

    def fresh_state(self) -> MachineState:
        return self.state_factory()


def load_immediate(register: str, value: int) -> str:
    """Assembly line(s) loading an arbitrary 32-bit constant.

    Values in the 12-bit immediate range emit a single ``addi``; larger
    values emit ``lui`` (+ ``addi`` when the low bits are nonzero).
    """
    if -2048 <= value < 2048:
        return f"addi {register}, zero, {value}"
    low = value & 0xFFF
    if low >= 0x800:
        low -= 0x1000
    high = ((value - low) >> 12) & 0xFFFFF
    lines = [f"lui {register}, {high}"]
    if low:
        lines.append(f"addi {register}, {register}, {low}")
    return "\n".join(lines)


class StateBuilder:
    """Builds fresh, seeded architectural states for a kernel.

    FP register values and memory arrays are recorded once; every call to
    :meth:`factory`'s product re-creates an identical independent state, so
    profiling windows and the measured run all start from the same inputs.
    """

    def __init__(self, program: Program, seed: int = 1) -> None:
        self.program = program
        self.rng = random.Random(seed)
        self._fp_regs: dict[Register, float] = {}
        self._float_arrays: dict[int, list[float]] = {}
        self._word_arrays: dict[int, list[int]] = {}

    def set_freg(self, name: str, value: float) -> "StateBuilder":
        self._fp_regs[parse_register(name)] = value
        return self

    def floats(self, address: int, values: list[float]) -> "StateBuilder":
        self._float_arrays[address] = list(values)
        return self

    def words(self, address: int, values: list[int]) -> "StateBuilder":
        self._word_arrays[address] = list(values)
        return self

    def random_floats(self, address: int, count: int,
                      low: float = 0.0, high: float = 1.0) -> list[float]:
        values = [self.rng.uniform(low, high) for _ in range(count)]
        self.floats(address, values)
        return values

    def random_words(self, address: int, count: int,
                     low: int = 0, high: int = 100) -> list[int]:
        values = [self.rng.randint(low, high) for _ in range(count)]
        self.words(address, values)
        return values

    def factory(self) -> "StateRecipe":
        """A zero-argument factory producing identical fresh states."""
        return StateRecipe(
            base_address=self.program.base_address,
            fp_regs=tuple(self._fp_regs.items()),
            float_arrays=tuple((address, tuple(values)) for address, values
                               in self._float_arrays.items()),
            word_arrays=tuple((address, tuple(values)) for address, values
                              in self._word_arrays.items()))


@dataclass(frozen=True)
class StateRecipe:
    """The recorded inputs of a :class:`StateBuilder`, callable as a state
    factory.

    Plain frozen data rather than a closure, so a request's state factory
    pickles across a process boundary along with its program.
    """

    base_address: int
    fp_regs: tuple[tuple[Register, float], ...]
    float_arrays: tuple[tuple[int, tuple[float, ...]], ...]
    word_arrays: tuple[tuple[int, tuple[int, ...]], ...]

    def __call__(self) -> MachineState:
        from ..mem import Memory

        state = MachineState(pc=self.base_address)
        memory = Memory()
        for address, values in self.float_arrays:
            memory.store_floats(address, values)
        for address, values in self.word_arrays:
            memory.store_words(address, values)
        state.memory = memory
        for register, value in self.fp_regs:
            state.write(register, value)
        return state
