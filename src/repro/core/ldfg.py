"""The Logical Dataflow Graph (LDFG) and rename-table construction (T1).

Paper §3.2: "MESA generalizes traditional renaming in out-of-order cores:
rather than renaming architectural registers to physical registers, we rename
them to instruction addresses ... we use a rename table to hold a map of
architectural registers to the last instruction that writes to it."

The LDFG stores a *linear* (program-order) view of one loop-body iteration.
Each entry records where its two sources come from:

* ``NODE`` — an earlier instruction of the same iteration (a DFG edge);
* ``LOOP_CARRIED`` — the body's last writer of the register, whose value
  arrives from the *previous* iteration (an induction/recurrence input);
* ``LIVE_IN`` — a register never written inside the body (loop-invariant).

Each entry also records the *previous writer* of its own destination — the
"hidden dependency" predicated-off instructions need so a disabled PE can
forward the old register value (paper §5).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..isa import Instruction, OpClass, Register
from ..latency import DEFAULT_LATENCIES, LatencyTable
from .dfg import DataflowGraph

__all__ = ["SourceKind", "SourceRef", "LdfgEntry", "Ldfg", "LdfgError",
           "build_ldfg"]


class LdfgError(ValueError):
    """Raised when an instruction sequence cannot form a valid LDFG."""


class SourceKind(enum.Enum):
    NONE = "none"
    NODE = "node"
    LOOP_CARRIED = "loop_carried"
    LIVE_IN = "live_in"


@dataclass(frozen=True)
class SourceRef:
    """Origin of one instruction operand."""

    kind: SourceKind
    node_id: int | None = None
    register: Register | None = None

    @classmethod
    def none(cls) -> "SourceRef":
        return cls(SourceKind.NONE)

    @classmethod
    def node(cls, node_id: int) -> "SourceRef":
        return cls(SourceKind.NODE, node_id=node_id)

    @classmethod
    def loop_carried(cls, node_id: int, register: Register) -> "SourceRef":
        return cls(SourceKind.LOOP_CARRIED, node_id=node_id, register=register)

    @classmethod
    def live_in(cls, register: Register) -> "SourceRef":
        return cls(SourceKind.LIVE_IN, register=register)


@dataclass
class LdfgEntry:
    """One loop-body instruction in the logical DFG."""

    node_id: int
    instruction: Instruction
    s1: SourceRef = field(default_factory=SourceRef.none)
    s2: SourceRef = field(default_factory=SourceRef.none)
    #: Previous producer of this instruction's destination register
    #: (the predication fallback), if the instruction writes one.
    prev_writer: SourceRef | None = None
    #: Estimated/measured operation latency (AMAT for memory nodes).
    op_latency: float = 1.0
    #: Forward branch that predicates this entry off when taken.
    guard_branch: int | None = None
    #: Set by store→load forwarding: this load reads the store's data
    #: directly and needs no memory access (and no LSU entry).
    forwarded_from_store: int | None = None
    #: Vectorization group id shared by coalesced loads (or None).
    vector_group: int | None = None
    #: Marked by the prefetcher: next-iteration address is issued early.
    prefetched: bool = False

    @property
    def op_class(self) -> OpClass:
        return self.instruction.op_class

    @property
    def eliminated(self) -> bool:
        """True when the node no longer occupies hardware (forwarded load)."""
        return self.forwarded_from_store is not None

    def same_iteration_sources(self) -> list[int]:
        """Node ids of same-iteration producers (the intra-iteration edges)."""
        return [ref.node_id for ref in (self.s1, self.s2)
                if ref.kind is SourceKind.NODE]


@dataclass
class Ldfg:
    """The complete logical DFG of one loop body."""

    entries: list[LdfgEntry]
    #: Node id of the backward loop-closing branch, or None (straight line).
    loop_branch_id: int | None
    #: Final rename table: register -> last writer node id (the live-outs).
    rename_table: dict[Register, int]
    #: Registers whose value must be transferred from the CPU at offload.
    live_in: set[Register]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, node_id: int) -> LdfgEntry:
        return self.entries[node_id]

    def to_dataflow_graph(self) -> DataflowGraph:
        """The Eq. 1/2 performance model over same-iteration edges.

        Transfer (edge) weights start at zero — they become available after
        spatial mapping, "in subsequent optimization attempts" (§3.2).
        """
        graph = DataflowGraph()
        for entry in self.entries:
            graph.add_node(entry.node_id, entry.op_latency,
                           tuple(entry.same_iteration_sources()),
                           label=str(entry.instruction.opcode))
        return graph


def build_ldfg(instructions: list[Instruction],
               latencies: LatencyTable = DEFAULT_LATENCIES,
               initial_amat: float = 4.0) -> Ldfg:
    """Build the LDFG for one loop body (T1: Instructions → Logical DFG).

    Args:
        instructions: the loop body in program order.  If the final
            instruction is a backward branch it is treated as the
            loop-closing branch.
        latencies: constant operation latencies.
        initial_amat: starting estimate for memory-node latency, refined
            later from the accelerator's AMAT counters.

    Raises:
        LdfgError: on system instructions, inner backward branches, or
            forward branches escaping the body — the things condition C2
            screens out before the LDFG is ever built.
    """
    if not instructions:
        raise LdfgError("empty instruction sequence")

    last = instructions[-1]
    loop_branch_id = (len(instructions) - 1
                      if last.is_branch and last.imm < 0 else None)

    # Validate control structure (C2's job, re-checked defensively).
    body_start = instructions[0].address
    body_end = instructions[-1].address
    for index, instr in enumerate(instructions):
        if instr.is_system:
            raise LdfgError(f"system instruction at {instr.address:#x}: {instr}")
        if instr.is_jump:
            raise LdfgError(f"jump inside loop body at {instr.address:#x}")
        if instr.is_branch and index != len(instructions) - 1:
            if instr.imm <= 0:
                raise LdfgError(
                    f"inner backward branch at {instr.address:#x} (inner loop)"
                )
            target = instr.address + instr.imm
            if target > body_end + 4:
                raise LdfgError(
                    f"forward branch at {instr.address:#x} escapes the body"
                )

    # Last writer of each register anywhere in the body (loop-carried source).
    final_writer: dict[Register, int] = {}
    for index, instr in enumerate(instructions):
        dest = instr.destination
        if dest is not None:
            final_writer[dest] = index

    rename: dict[Register, int] = {}
    live_in: set[Register] = set()
    entries: list[LdfgEntry] = []

    def resolve(register: Register | None) -> SourceRef:
        if register is None or register.is_zero:
            return SourceRef.none()
        if register in rename:
            return SourceRef.node(rename[register])
        if register in final_writer:
            live_in.add(register)  # needed for the first iteration
            return SourceRef.loop_carried(final_writer[register], register)
        live_in.add(register)
        return SourceRef.live_in(register)

    for index, instr in enumerate(instructions):
        s1 = resolve(instr.rs1)
        s2 = resolve(instr.rs2)
        dest = instr.destination
        prev_writer = resolve(dest) if dest is not None else None
        if instr.is_memory:
            op_latency = initial_amat
        else:
            try:
                op_latency = float(latencies.for_instruction(instr))
            except KeyError as exc:
                raise LdfgError(f"no latency model for {instr}") from exc
        entries.append(LdfgEntry(
            node_id=index,
            instruction=instr,
            s1=s1,
            s2=s2,
            prev_writer=prev_writer,
            op_latency=op_latency,
        ))
        if dest is not None:
            rename[dest] = index

    # Predication guards from forward branches (§5, Forward Branch Instrs).
    for index, instr in enumerate(instructions):
        if instr.is_branch and index != loop_branch_id and instr.imm > 0:
            target_address = instr.address + instr.imm
            for entry in entries[index + 1:]:
                if entry.instruction.address >= target_address:
                    break
                if entry.guard_branch is None:
                    entry.guard_branch = index

    return Ldfg(
        entries=entries,
        loop_branch_id=loop_branch_id,
        rename_table=dict(rename),
        live_in=live_in,
    )
