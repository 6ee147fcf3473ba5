"""The accelerator-side program representation.

An :class:`AcceleratorProgram` is what MESA's configuration step (T3)
ultimately writes into the fabric: one :class:`ConfiguredNode` per loop-body
instruction, carrying its PE or LSU placement, where each operand comes from,
its predication guard, and the live-out register map.  The dataflow engine
executes this structure directly, and the bitstream codec serializes it.

Operand kinds capture the paper's dataflow model:

* ``NODE`` — output of an earlier node in the same iteration (a DFG edge);
* ``LOOP_CARRIED`` — output of a node from the *previous* iteration (an
  induction/recurrence value); on the first iteration the value comes from
  the architectural register transferred at offload;
* ``REGISTER`` — a loop-invariant live-in register, latched at configuration;
* ``NONE`` — no second operand (immediates are part of the instruction).

:class:`Operand` is the one operand type from the LDFG (T1) to the fabric,
and :func:`resolve_operands` is T1's one rename rule (§3.2): a register an
instruction reads comes from its same-iteration last writer, else from the
body's last writer in the previous iteration, else it is a live-in.  The
LDFG builder and the CPU tracer's loop-body compiler both call it; it sits
here, not in :mod:`repro.core`, so that :mod:`repro.cpu` can import it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

from ..isa import Instruction, OpClass, Register
from .config import AcceleratorConfig, Coord

__all__ = ["OperandKind", "Operand", "Guard", "ConfiguredNode",
           "AcceleratorProgram", "resolve_operands"]


class OperandKind(enum.Enum):
    NODE = "node"
    LOOP_CARRIED = "loop_carried"
    REGISTER = "register"
    NONE = "none"


@dataclass(frozen=True)
class Operand:
    """One input of a configured node, or one source of an LDFG entry."""

    kind: OperandKind
    node_id: int | None = None
    register: Register | None = None

    def __post_init__(self) -> None:
        if self.kind is OperandKind.NODE and self.node_id is None:
            raise ValueError("NODE operand needs a node_id")
        if self.kind is OperandKind.LOOP_CARRIED and (
                self.node_id is None or self.register is None):
            raise ValueError("LOOP_CARRIED operand needs node_id and register")
        if self.kind is OperandKind.REGISTER and self.register is None:
            raise ValueError("REGISTER operand needs a register")

    @classmethod
    def node(cls, node_id: int) -> "Operand":
        return cls(OperandKind.NODE, node_id=node_id)

    @classmethod
    def loop_carried(cls, node_id: int, register: Register) -> "Operand":
        return cls(OperandKind.LOOP_CARRIED, node_id=node_id, register=register)

    @classmethod
    def from_register(cls, register: Register) -> "Operand":
        return cls(OperandKind.REGISTER, register=register)

    @classmethod
    def none(cls) -> "Operand":
        return cls(OperandKind.NONE)


def resolve_operands(instructions: Sequence[Instruction]) -> tuple[
        list[tuple[Operand, Operand, Operand | None]], dict[Register, int]]:
    """T1's rename rule over one loop body in program order.

    Returns, per instruction, ``(src1, src2, prior)`` — ``prior`` is where
    its destination's previous value comes from (the predication fallback),
    None when it writes no register — and the body's last writer of each
    register it writes (the final rename table, in first-write order).
    """
    final_writer = {instr.destination: index
                    for index, instr in enumerate(instructions)
                    if instr.destination is not None}
    none = Operand.none()
    # The rename table: each register's current source.  A register not
    # yet written this iteration arrives from the previous one (its last
    # writer in the body) or, never written, is a live-in.
    table: dict[Register, Operand] = {}

    def resolve(register: Register | None) -> Operand:
        if register is None or register.is_zero:
            return none
        operand = table.get(register)
        if operand is None:
            writer = final_writer.get(register)
            operand = table[register] = (
                Operand.from_register(register) if writer is None
                else Operand.loop_carried(writer, register))
        return operand

    resolved = []
    for index, instr in enumerate(instructions):
        dest = instr.destination
        resolved.append((resolve(instr.rs1), resolve(instr.rs2),
                         None if dest is None else resolve(dest)))
        if dest is not None:
            table[dest] = Operand.node(index)
    return resolved, final_writer


@dataclass(frozen=True)
class Guard:
    """Predication: this node is disabled when a forward branch is taken.

    Paper §5: "instructions under a branch region carry a hidden dependency
    on the previous instruction producing its destination register ...
    disabled PEs must still forward the old register's value".
    """

    branch_node_id: int
    #: Value the node's output takes when disabled (the "old" register value).
    fallback: Operand


@dataclass(frozen=True)
class ConfiguredNode:
    """One loop-body instruction as configured on the fabric."""

    node_id: int
    instruction: Instruction
    coord: Coord
    src1: Operand = field(default_factory=Operand.none)
    src2: Operand = field(default_factory=Operand.none)
    guard: Guard | None = None
    #: True when placed in a load/store entry rather than a PE.
    is_memory: bool = False
    #: Vectorization group: loads in a group share one memory-port grant.
    vector_group: int | None = None
    #: Prefetched load: miss latency is hidden after the first iteration.
    prefetched: bool = False

    @property
    def op_class(self) -> OpClass:
        return self.instruction.op_class

    def operands(self) -> tuple[Operand, Operand]:
        return (self.src1, self.src2)


@dataclass
class AcceleratorProgram:
    """A fully configured loop region ready to execute on the fabric."""

    config: AcceleratorConfig
    nodes: list[ConfiguredNode]
    #: Node id of the backward loop-closing branch (None = single pass).
    loop_branch_id: int | None
    #: Architectural registers written by the loop: register -> producing node.
    live_out: dict[Register, int] = field(default_factory=dict)
    #: Registers read before written (must be transferred at offload).
    live_in: set[Register] = field(default_factory=set)
    #: Compiled execution plans keyed by interconnect value — see
    #: :func:`repro.accel.plan.compile_plan`.  Excluded from comparison and
    #: repr: it is derived state, not part of the configuration.
    plan_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        for index, node in enumerate(self.nodes):
            if node.node_id != index:
                raise ValueError(
                    f"node ids must be dense program order; got {node.node_id} "
                    f"at index {index}"
                )
        if self.loop_branch_id is not None and not (
                0 <= self.loop_branch_id < len(self.nodes)):
            raise ValueError("loop_branch_id out of range")

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def pe_count(self) -> int:
        """PEs occupied (memory nodes sit in LSU entries, at column -1)."""
        return sum(1 for node in self.nodes if node.coord[1] >= 0)

    @property
    def lsu_count(self) -> int:
        return sum(1 for node in self.nodes if node.coord[1] < 0)

    @property
    def memory_nodes(self) -> list[ConfiguredNode]:
        return [n for n in self.nodes if n.is_memory]

    def node(self, node_id: int) -> ConfiguredNode:
        return self.nodes[node_id]

    def validate_placement(self) -> None:
        """Check structural invariants of the mapping.

        Raises:
            ValueError: two nodes share a PE, a memory node is not at an LSU
                coordinate, or an operand references a later node.
        """
        seen: dict[Coord, int] = {}
        for node in self.nodes:
            if node.coord in seen and not node.is_memory:
                raise ValueError(
                    f"nodes {seen[node.coord]} and {node.node_id} share PE "
                    f"{node.coord}"
                )
            if not node.is_memory:
                seen[node.coord] = node.node_id
                row, col = node.coord
                if not (0 <= row < self.config.rows and 0 <= col < self.config.cols):
                    raise ValueError(f"node {node.node_id} at {node.coord} "
                                     "is outside the grid")
            elif node.coord[1] != -1:
                raise ValueError(f"memory node {node.node_id} must sit at an "
                                 f"LSU coordinate (col -1), got {node.coord}")
            for operand in node.operands():
                if (operand.kind is OperandKind.NODE
                        and operand.node_id >= node.node_id):
                    raise ValueError(
                        f"node {node.node_id} reads same-iteration output of "
                        f"later node {operand.node_id}"
                    )
