"""Dynamic execution trace collection.

The CPU timing model and the MESA frontend both consume the *dynamic*
instruction stream — the in-order sequence of executed instructions together
with the effective address of every memory operation and the direction of
every branch.  :func:`collect_trace` runs the functional executor and records
that stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from ..isa import ExecutionError, Executor, Instruction, MachineState, Program

__all__ = ["TraceEntry", "Trace", "collect_trace"]


class TraceEntry(NamedTuple):
    """One dynamically executed instruction."""

    seq: int
    instruction: Instruction
    #: Effective address for loads/stores, else ``None``.
    address: int | None = None
    #: For control transfers: True if taken.  ``None`` for other classes.
    taken: bool | None = None

    @property
    def pc(self) -> int:
        return self.instruction.address


@dataclass(frozen=True)
class Trace:
    """A complete dynamic trace plus the final architectural state."""

    entries: tuple[TraceEntry, ...]
    final_state: MachineState

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, index):
        return self.entries[index]

    @property
    def memory_entries(self) -> list[TraceEntry]:
        return [e for e in self.entries if e.instruction.is_memory]

    def pc_stream(self) -> list[int]:
        """The sequence of executed PCs (input to the loop-stream detector)."""
        return [e.pc for e in self.entries]


def collect_trace(program: Program, state: MachineState | None = None,
                  max_steps: int = 1_000_000) -> Trace:
    """Execute a program, recording the dynamic stream with addresses.

    Args:
        program: the assembled program.
        state: initial architectural state (a fresh one if omitted).
        max_steps: safety bound on executed instructions.

    Raises:
        repro.isa.ExecutionError: on runaway loops or system instructions.
    """
    executor = Executor(program, state)
    state = executor.state
    instructions = program.instructions
    handlers = executor.handlers
    address_mask = (1 << state.xlen) - 1
    # A named tuple's generated __new__ is a Python-level call per entry.
    new_entry = tuple.__new__
    entries: list[TraceEntry] = []
    append = entries.append
    start, end = program.base_address, program.end_address
    pc = state.pc
    while start <= pc < end:
        seq = len(entries)
        if seq >= max_steps:
            raise ExecutionError(f"exceeded {max_steps} steps (runaway loop?)")
        offset = pc - start
        if offset & 3:
            program.at(pc)  # raises KeyError: misaligned
        index = offset >> 2
        instr = instructions[index]
        handler = handlers[index]
        if handler is None:
            executor._execute(instr)  # raises ExecutionError: no semantics
        address = taken = None
        if instr.is_memory:
            address = (int(state.read(instr.rs1)) + instr.imm) & address_mask
        target = handler(executor, instr)
        next_pc = pc + 4
        if instr.is_control:
            taken = target is not None and target != next_pc
        pc = state.pc = next_pc if target is None else target
        append(new_entry(TraceEntry, (seq, instr, address, taken)))
    return Trace(tuple(entries), state)
