"""The Logical Dataflow Graph (LDFG) and rename-table construction (T1).

Paper §3.2: "MESA generalizes traditional renaming in out-of-order cores:
rather than renaming architectural registers to physical registers, we rename
them to instruction addresses ... we use a rename table to hold a map of
architectural registers to the last instruction that writes to it."

The LDFG stores a *linear* (program-order) view of one loop-body iteration.
Each entry records where its two sources come from, as the fabric's own
:class:`~repro.accel.program.Operand`:

* ``NODE`` — an earlier instruction of the same iteration (a DFG edge);
* ``LOOP_CARRIED`` — the body's last writer of the register, whose value
  arrives from the *previous* iteration (an induction/recurrence input);
* ``REGISTER`` — a register never written inside the body (a live-in);
* ``NONE`` — no source (``x0``, or an operand the instruction lacks).

Each entry also records the *previous writer* of its own destination — the
"hidden dependency" predicated-off instructions need so a disabled PE can
forward the old register value (paper §5).  The rename rule itself is
:func:`repro.accel.program.resolve_operands`, which the CPU tracer's
loop-body compiler shares.

Node weights start at the constant operation latencies, and memory nodes at
the fixed estimate :data:`INITIAL_AMAT` until F3 measures their AMAT.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..accel.program import Operand, OperandKind, resolve_operands
from ..isa import Instruction, OpClass, Register
from ..latency import OP_LATENCY
from .dfg import DataflowGraph
from .region import control_violation

__all__ = ["LdfgEntry", "Ldfg", "LdfgError", "build_ldfg", "INITIAL_AMAT"]

#: Starting estimate of a memory node's latency, refined later from the
#: accelerator's AMAT counters (:mod:`repro.core.optimizer`).
INITIAL_AMAT = 4.0


class LdfgError(ValueError):
    """Raised when an instruction sequence cannot form a valid LDFG."""


@dataclass
class LdfgEntry:
    """One loop-body instruction in the logical DFG."""

    node_id: int
    instruction: Instruction
    s1: Operand = field(default_factory=Operand.none)
    s2: Operand = field(default_factory=Operand.none)
    #: Previous producer of this instruction's destination register
    #: (the predication fallback), if the instruction writes one.
    prev_writer: Operand | None = None
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
                if ref.kind is OperandKind.NODE]


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


def build_ldfg(instructions: list[Instruction]) -> Ldfg:
    """Build the LDFG for one loop body (T1: Instructions → Logical DFG).

    Args:
        instructions: the loop body in program order.  If the final
            instruction is a backward branch it is treated as the
            loop-closing branch.

    Raises:
        LdfgError: on system instructions, jumps, inner backward branches,
            or forward branches escaping the body — condition C2's
            :func:`~repro.core.region.control_violation`, which screens
            them out before the LDFG is ever built.
    """
    if not instructions:
        raise LdfgError("empty instruction sequence")

    last = instructions[-1]
    loop_branch_id = (len(instructions) - 1
                      if last.is_branch and last.imm < 0 else None)

    for index in range(len(instructions)):
        reason = control_violation(instructions, index)
        if reason is not None:
            raise LdfgError(reason)

    resolved, rename = resolve_operands(instructions)
    # Registers the first iteration reads from the CPU: every live-in and
    # loop-carried source, in resolution order.
    live_in: set[Register] = set()
    entries: list[LdfgEntry] = []
    for index, (instr, (s1, s2, prev_writer)) in enumerate(
            zip(instructions, resolved)):
        for ref in (s1, s2, prev_writer):
            if ref is not None and ref.kind in (OperandKind.REGISTER,
                                                OperandKind.LOOP_CARRIED):
                live_in.add(ref.register)
        if instr.is_memory:
            op_latency = INITIAL_AMAT
        else:
            try:
                op_latency = float(OP_LATENCY[instr.op_class])
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
        rename_table=rename,
        live_in=live_in,
    )
