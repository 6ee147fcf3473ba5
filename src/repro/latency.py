"""Operation latency table shared by the CPU, accelerator, and DFG models.

Paper §3.1: "operation latencies L_i.op are generally stored as constants for
immediate operations (add, mul, etc.) ... Memory access operations are modeled
by per-instruction average memory access time (AMAT)".  This module is that
constant store.  Memory operations deliberately have *no* entry here — their
latency always comes from measured AMAT (see
:class:`repro.mem.hierarchy.MemoryHierarchy`).

The defaults follow the paper's worked example (Fig. 2: FP add/sub = 3 cycles,
FP mul = 5 cycles) and common RISC-V FU pipelines for the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar

from .isa import Instruction, OpClass

__all__ = ["LatencyTable", "DEFAULT_LATENCIES"]


@dataclass(frozen=True)
class LatencyTable:
    """Cycles from operands-ready to result-produced, per operation class."""

    int_alu: int = 1
    int_mul: int = 3
    int_div: int = 12
    fp_add: int = 3
    fp_mul: int = 5
    fp_div: int = 16
    fp_sqrt: int = 20
    fp_cmp: int = 2
    fp_cvt: int = 2
    branch: int = 1
    jump: int = 1
    store_issue: int = 1  # address/data hand-off; the access itself is AMAT

    _BY_CLASS: ClassVar[dict[OpClass, str]] = {
        OpClass.INT_ALU: "int_alu",
        OpClass.INT_MUL: "int_mul",
        OpClass.INT_DIV: "int_div",
        OpClass.FP_ADD: "fp_add",
        OpClass.FP_MUL: "fp_mul",
        OpClass.FP_DIV: "fp_div",
        OpClass.FP_SQRT: "fp_sqrt",
        OpClass.FP_CMP: "fp_cmp",
        OpClass.FP_CVT: "fp_cvt",
        OpClass.BRANCH: "branch",
        OpClass.JUMP: "jump",
    }

    def __post_init__(self) -> None:
        # A result (or a store's hand-off) takes at least one cycle: the
        # fabric's port timing relies on it (repro.accel.batch).
        for spec in fields(self):
            if getattr(self, spec.name) < 1:
                raise ValueError(f"{spec.name} latency must be >= 1 cycle")
        # Materialize the class -> cycles map once; ``for_class`` sits on the
        # per-dynamic-instruction path of every timing model.
        object.__setattr__(self, "_by_class_value", {
            op_class: getattr(self, name)
            for op_class, name in self._BY_CLASS.items()
        })

    def for_class(self, op_class: OpClass) -> int:
        """Latency of a non-memory operation class.

        Raises:
            KeyError: for memory/system classes, whose latency is not a
                constant (memory uses AMAT; system ops are not executable).
        """
        cycles = self._by_class_value.get(op_class)
        if cycles is None:
            raise KeyError(f"{op_class} has no constant latency")
        return cycles

    def for_instruction(self, instr: Instruction) -> int:
        """Latency of a non-memory instruction."""
        return self.for_class(instr.op_class)


#: The library-wide default latency table.
DEFAULT_LATENCIES = LatencyTable()
