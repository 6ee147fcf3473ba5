"""Operation latencies shared by the CPU, accelerator, and DFG models.

Paper §3.1: "operation latencies L_i.op are generally stored as constants for
immediate operations (add, mul, etc.) ... Memory access operations are modeled
by per-instruction average memory access time (AMAT)".  This module is that
constant store.  Memory operations deliberately have *no* entry here — their
latency always comes from measured AMAT (see
:class:`repro.mem.hierarchy.MemoryHierarchy`).

The values follow the paper's worked example (Fig. 2: FP add/sub = 3 cycles,
FP mul = 5 cycles) and common RISC-V FU pipelines for the rest.  Every value
is at least one cycle: the fabric's port timing relies on it
(:mod:`repro.accel.batch`).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping

from .isa import OpClass

__all__ = ["OP_LATENCY", "STORE_ISSUE"]

#: Cycles from operands-ready to result-produced, per non-memory operation
#: class.  Indexing with a memory or system class raises ``KeyError``: memory
#: uses AMAT, and system operations are not executable.
OP_LATENCY: Mapping[OpClass, int] = MappingProxyType({
    OpClass.INT_ALU: 1,
    OpClass.INT_MUL: 3,
    OpClass.INT_DIV: 12,
    OpClass.FP_ADD: 3,
    OpClass.FP_MUL: 5,
    OpClass.FP_DIV: 16,
    OpClass.FP_SQRT: 20,
    OpClass.FP_CMP: 2,
    OpClass.FP_CVT: 2,
    OpClass.BRANCH: 1,
    OpClass.JUMP: 1,
})

#: A store's address/data hand-off; the access itself is AMAT.
STORE_ISSUE = 1
