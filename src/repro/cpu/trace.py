"""Dynamic execution trace collection.

The CPU timing model and the MESA frontend both consume the *dynamic*
instruction stream — the in-order sequence of executed instructions together
with the effective address of every memory operation and the direction of
every branch.  :func:`collect_trace` runs the functional executor and records
that stream.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter, itemgetter
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

    # Derived views, computed once from ``entries`` on first use (so a
    # hand-built trace has them too).  Loop accounting reads them instead
    # of rescanning the stream.

    @cached_property
    def pc_counts(self) -> Counter[int]:
        """Dynamic execution count of every executed pc."""
        return Counter(map(attrgetter("address"),
                           map(itemgetter(1), self.entries)))

    @cached_property
    def back_edges(self) -> tuple[TraceEntry, ...]:
        """The taken backward control transfers, in stream order: the only
        entries a loop-stream detector acts on."""
        return tuple(entry for entry in self.entries
                     if entry.taken and entry.instruction.imm < 0
                     and entry.instruction.is_control)

    def executions(self, start: int, end: int) -> int:
        """Dynamic instructions executed at pcs in ``[start, end]``."""
        return sum(count for pc, count in self.pc_counts.items()
                   if start <= pc <= end)


def collect_trace(program: Program, state: MachineState | None = None,
                  max_steps: int = 1_000_000) -> Trace:
    """Execute a program, recording the dynamic stream with addresses.

    Args:
        program: the assembled program.
        state: initial architectural state (a fresh one if omitted).
        max_steps: safety bound on executed instructions.

    Raises:
        repro.isa.ExecutionError: on runaway loops or instructions without
            semantics (system ops, RV64-only ops on an RV32 state).
    """
    executor = Executor(program, state)
    state = executor.state
    address_mask = (1 << state.xlen) - 1
    # Per static instruction, resolved once: (instruction, handler, base
    # register list and index of a memory access's address or None,
    # offset, whether it is a control transfer).
    steps = []
    for instr, handler in zip(program.instructions, executor.handlers):
        base, slot = (state.slot(instr.rs1) if instr.is_memory
                      else (None, 0))
        steps.append((instr, handler, base, slot, instr.imm,
                      instr.is_control))
    # A named tuple's generated __new__ is a Python-level call per entry.
    new_entry = tuple.__new__
    entries: list[TraceEntry] = []
    append = entries.append
    start, end = program.base_address, program.end_address
    pc = state.pc
    seq = 0
    while start <= pc < end:
        if seq == max_steps:
            raise ExecutionError(f"exceeded {max_steps} steps (runaway loop?)")
        offset = pc - start
        if offset & 3:
            program.at(pc)  # raises KeyError: misaligned
        instr, handler, base, slot, imm, control = steps[offset >> 2]
        address = None if base is None else (base[slot] + imm) & address_mask
        target = handler()
        next_pc = pc + 4
        taken = (target is not None and target != next_pc) if control else None
        pc = state.pc = next_pc if target is None else target
        append(new_entry(TraceEntry, (seq, instr, address, taken)))
        seq += 1
    return Trace(tuple(entries), state)
