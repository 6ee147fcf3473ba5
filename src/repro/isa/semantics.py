"""Functional (architectural) semantics of the supported RISC-V subset.

This module computes *what* a program does — register and memory values and
the dynamic control-flow path — independent of *how long* it takes.  Every
opcode's meaning has one implementation: :func:`compile_operation` (compute
instructions) and :func:`compile_branch` (branch directions) turn one
instruction at one datapath width into a closure over its source values.
Everything that evaluates instructions goes through them:

* the :class:`Executor`, the CPU reference model, compiles one handler per
  static instruction around them (loads, stores and jumps add only the
  memory format table and the pc update);
* the accelerator's execution plan (:mod:`repro.accel.plan`) bakes them
  into its nodes, and the engine's interpreter evaluates through the plan;
* the CPU timing model consumes the dynamic trace the executor produces.

So the fabric computes what the CPU computes by construction.  The batched
vector tables in :mod:`repro.accel.batch` are the one independent
implementation, held to the interpreter by the equivalence tests.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Collection

from ..mem import Memory
from .assembler import Program
from .instructions import Instruction, Opcode
from .registers import RegFile, Register

__all__ = [
    "ACCESS_FORMATS",
    "ExecutionError",
    "MachineState",
    "Executor",
    "run",
    "compile_operation",
    "compile_branch",
    "f32",
    "load_value",
    "store_value",
]


def _ts(value: int, xlen: int = 32) -> int:
    """Truncate to xlen bits, interpreted as signed."""
    value &= (1 << xlen) - 1
    sign = 1 << (xlen - 1)
    return value - (1 << xlen) if value >= sign else value


def _tu(value: int, xlen: int = 32) -> int:
    """Truncate to xlen bits, interpreted as unsigned."""
    return value & ((1 << xlen) - 1)


class ExecutionError(RuntimeError):
    """Raised on unexecutable instructions (system ops, runaway loops)."""


def f32(value: float) -> float:
    """Round a Python float to single precision (the accelerator is FP32).

    Magnitudes beyond FP32 range overflow to ±inf, as IEEE-754
    round-to-nearest does in hardware (struct refuses to pack them).
    """
    try:
        return struct.unpack("<f", struct.pack("<f", value))[0]
    except OverflowError:
        return math.inf if value > 0 else -math.inf


@dataclass
class MachineState:
    """Architectural state: PC, integer/FP register files, and memory.

    ``xlen`` selects the integer register width: 32 (RV32, the default) or
    64 (RV64I, the other ISA variant MESA's hardware supports).
    """

    pc: int = 0
    memory: Memory = field(default_factory=Memory)
    xlen: int = 32
    _int_regs: list[int] = field(default_factory=lambda: [0] * 32)
    _fp_regs: list[float] = field(default_factory=lambda: [0.0] * 32)

    def __post_init__(self) -> None:
        if self.xlen not in (32, 64):
            raise ValueError(f"xlen must be 32 or 64, got {self.xlen}")

    def read(self, reg: Register) -> int | float:
        """Read a register (``x0`` always reads 0)."""
        if reg.file is RegFile.INT:
            return 0 if reg.index == 0 else self._int_regs[reg.index]
        return self._fp_regs[reg.index]

    def write(self, reg: Register, value: int | float) -> None:
        """Write a register (writes to ``x0`` are discarded)."""
        if reg.file is RegFile.INT:
            if reg.index != 0:
                self._int_regs[reg.index] = _ts(int(value), self.xlen)
        else:
            self._fp_regs[reg.index] = f32(float(value))

    def copy(self) -> "MachineState":
        """An independent copy: PC, both register files and memory."""
        return MachineState(pc=self.pc, memory=self.memory.copy(),
                            xlen=self.xlen, _int_regs=list(self._int_regs),
                            _fp_regs=list(self._fp_regs))

    def snapshot(self) -> dict[str, int | float]:
        """Register values keyed by ABI name (for test assertions)."""
        from .registers import FP_ABI_NAMES, INT_ABI_NAMES

        regs: dict[str, int | float] = {}
        for i, name in enumerate(INT_ABI_NAMES):
            regs[name] = 0 if i == 0 else self._int_regs[i]
        for i, name in enumerate(FP_ABI_NAMES):
            regs[name] = self._fp_regs[i]
        return regs


def _div(a: int, b: int, xlen: int = 32) -> int:
    if b == 0:
        return -1
    if a == -(1 << (xlen - 1)) and b == -1:
        return a
    return int(a / b)  # truncating division, per the RISC-V spec


def _rem(a: int, b: int, xlen: int = 32) -> int:
    if b == 0:
        return a
    if a == -(1 << (xlen - 1)) and b == -1:
        return 0
    return a - _div(a, b, xlen) * b


#: The one load/store format table: opcode -> (access size in bytes,
#: whether a load sign-extends to the register width).  Stores never
#: extend; their entry's flag is False.
ACCESS_FORMATS: dict[Opcode, tuple[int, bool]] = {
    Opcode.LB: (1, True), Opcode.LBU: (1, False), Opcode.SB: (1, False),
    Opcode.LH: (2, True), Opcode.LHU: (2, False), Opcode.SH: (2, False),
    Opcode.LW: (4, True), Opcode.LWU: (4, False), Opcode.SW: (4, False),
    Opcode.FLW: (4, False), Opcode.FSW: (4, False),
    Opcode.LD: (8, True), Opcode.SD: (8, False),
}


def load_value(memory: Memory, opcode: Opcode, address: int) -> int | float:
    """The register value a load ``opcode`` reads at ``address``: FLW
    reinterprets the bits as binary32, signed loads sign-extend."""
    size, signed = ACCESS_FORMATS[opcode]
    raw = memory.load(address, size)
    if opcode is Opcode.FLW:
        return struct.unpack("<f", raw.to_bytes(4, "little"))[0]
    if signed:
        sign = 1 << (size * 8 - 1)
        return (raw & (sign - 1)) - (raw & sign)
    return raw


def store_value(memory: Memory, opcode: Opcode, address: int,
                value: int | float) -> None:
    """Commit a store ``opcode`` of register ``value`` at ``address``: FSW
    packs the binary32 bits, integer stores keep the low ``size`` bytes."""
    size = ACCESS_FORMATS[opcode][0]
    if opcode is Opcode.FSW:
        raw = int.from_bytes(struct.pack("<f", float(value)), "little")
    else:
        raw = int(value) & ((1 << (size * 8)) - 1)
    memory.store(address, size, raw)


# Integer operations take (a, b, xlen): shifts mask by xlen-1, unsigned
# comparisons/divides reinterpret at the datapath width.
_INT_BINOPS = {
    Opcode.ADD: lambda a, b, w: a + b,
    Opcode.SUB: lambda a, b, w: a - b,
    Opcode.SLL: lambda a, b, w: _ts(a << (b & (w - 1)), w),
    Opcode.SLT: lambda a, b, w: int(a < b),
    Opcode.SLTU: lambda a, b, w: int(_tu(a, w) < _tu(b, w)),
    Opcode.XOR: lambda a, b, w: a ^ b,
    Opcode.SRL: lambda a, b, w: _ts(_tu(a, w) >> (b & (w - 1)), w),
    Opcode.SRA: lambda a, b, w: a >> (b & (w - 1)),
    Opcode.OR: lambda a, b, w: a | b,
    Opcode.AND: lambda a, b, w: a & b,
    Opcode.MUL: lambda a, b, w: _ts(a * b, w),
    Opcode.MULH: lambda a, b, w: (a * b) >> w,
    Opcode.MULHSU: lambda a, b, w: (a * _tu(b, w)) >> w,
    Opcode.MULHU: lambda a, b, w: (_tu(a, w) * _tu(b, w)) >> w,
    Opcode.DIV: lambda a, b, w: _div(a, b, w),
    Opcode.DIVU: lambda a, b, w: _ts(
        (1 << w) - 1 if b == 0 else _tu(a, w) // _tu(b, w), w
    ),
    Opcode.REM: lambda a, b, w: _rem(a, b, w),
    Opcode.REMU: lambda a, b, w: _ts(
        _tu(a, w) if b == 0 else _tu(a, w) % _tu(b, w), w
    ),
}

_INT_IMMOPS = {
    Opcode.ADDI: lambda a, i, w: a + i,
    Opcode.SLTI: lambda a, i, w: int(a < i),
    Opcode.SLTIU: lambda a, i, w: int(_tu(a, w) < _tu(i, w)),
    Opcode.XORI: lambda a, i, w: a ^ i,
    Opcode.ORI: lambda a, i, w: a | i,
    Opcode.ANDI: lambda a, i, w: a & i,
    Opcode.SLLI: lambda a, i, w: _ts(a << (i & (w - 1)), w),
    Opcode.SRLI: lambda a, i, w: _ts(_tu(a, w) >> (i & (w - 1)), w),
    Opcode.SRAI: lambda a, i, w: a >> (i & (w - 1)),
}

# RV64I W-forms: operate on the low 32 bits, sign-extend the 32-bit result.
_INT_W_BINOPS = {
    Opcode.ADDW: lambda a, b: _ts(a + b, 32),
    Opcode.SUBW: lambda a, b: _ts(a - b, 32),
    Opcode.SLLW: lambda a, b: _ts(a << (b & 31), 32),
    Opcode.SRLW: lambda a, b: _ts(_tu(a, 32) >> (b & 31), 32),
    Opcode.SRAW: lambda a, b: _ts(_ts(a, 32) >> (b & 31), 32),
}

_INT_W_IMMOPS = {
    Opcode.ADDIW: lambda a, i: _ts(a + i, 32),
    Opcode.SLLIW: lambda a, i: _ts(a << (i & 31), 32),
    Opcode.SRLIW: lambda a, i: _ts(_tu(a, 32) >> (i & 31), 32),
    Opcode.SRAIW: lambda a, i: _ts(_ts(a, 32) >> (i & 31), 32),
}

_BRANCH_CONDS = {
    Opcode.BEQ: lambda a, b, w: a == b,
    Opcode.BNE: lambda a, b, w: a != b,
    Opcode.BLT: lambda a, b, w: a < b,
    Opcode.BGE: lambda a, b, w: a >= b,
    Opcode.BLTU: lambda a, b, w: _tu(a, w) < _tu(b, w),
    Opcode.BGEU: lambda a, b, w: _tu(a, w) >= _tu(b, w),
}

_FP_BINOPS = {
    Opcode.FADD_S: lambda a, b: a + b,
    Opcode.FSUB_S: lambda a, b: a - b,
    Opcode.FMUL_S: lambda a, b: a * b,
    Opcode.FDIV_S: lambda a, b: a / b if b != 0.0 else math.copysign(math.inf, a) if a else math.nan,
    Opcode.FMIN_S: min,
    Opcode.FMAX_S: max,
    Opcode.FSGNJ_S: lambda a, b: math.copysign(abs(a), b),
    Opcode.FSGNJN_S: lambda a, b: math.copysign(abs(a), -b),
    Opcode.FSGNJX_S: lambda a, b: a if b >= 0 else -a,
}

#: Arithmetic that passes a NaN operand's payload through.  With two NaN
#: operands the host picks one: CPython's specialized and generic float
#: paths pick different operands, and numpy's SIMD loops pick by lane
#: position.  The rule here is explicit: the first NaN operand, quieted,
#: wins (operands arrive widened from binary32, so already quiet, and the
#: binary32 rounding quiets the rest).
_NAN_FIRST = frozenset({Opcode.FADD_S, Opcode.FSUB_S, Opcode.FMUL_S,
                        Opcode.FDIV_S})

_FP_CMPOPS = {
    Opcode.FEQ_S: lambda a, b: a == b,
    Opcode.FLT_S: lambda a, b: a < b,
    Opcode.FLE_S: lambda a, b: a <= b,
}


def _fcvt_w(value: float, low: int, high: int) -> int:
    """FCVT.W[U].S: truncate toward zero, saturating to ``[low, high]``;
    NaN converts to ``high``, as the RISC-V spec requires."""
    if value != value:
        return high
    return int(min(max(value, low), high))


# Unary FP/int moves and conversions: register value in, register value out
# (FP results rounded to binary32, integer results the sign-extended 32 bits).
_FP_UNARY = {
    Opcode.FCVT_S_W: lambda v: f32(float(int(v))),
    Opcode.FCVT_S_WU: lambda v: f32(float(_tu(int(v), 32))),
    Opcode.FCVT_W_S: lambda v: _fcvt_w(float(v), -(1 << 31), (1 << 31) - 1),
    Opcode.FCVT_WU_S: lambda v: _ts(_fcvt_w(float(v), 0, (1 << 32) - 1), 32),
    Opcode.FMV_X_W: lambda v: struct.unpack(
        "<i", struct.pack("<f", float(v)))[0],
    Opcode.FMV_W_X: lambda v: f32(struct.unpack(
        "<f", struct.pack("<i", _ts(int(v), 32)))[0]),
}


def _require_width(instr: Instruction, xlen: int) -> None:
    if instr.requires_rv64 and xlen != 64:
        raise ExecutionError(
            f"RV64I instruction {instr} on an RV32 (xlen={xlen}) state")


def compile_operation(instr: Instruction, xlen: int = 32):
    """The semantics of one *compute* instruction at datapath width ``xlen``.

    Returns a closure ``(a, b) -> value`` with the opcode dispatch, immediate,
    and width already resolved: given the source register values, it returns
    the destination register value (integers sign-extended to ``xlen``, FP
    results rounded to binary32).  Unused operands are ignored.  This is the
    per-PE semantics an execution plan bakes in at configuration time, and
    the computation the :class:`Executor` performs for the same instruction.

    Raises:
        ExecutionError: for instructions without compute semantics at
            ``xlen`` (memory, control and system ops, RV64-only ops at 32).
    """
    _require_width(instr, xlen)
    op = instr.opcode
    imm = instr.imm
    if op is Opcode.NOP:
        return lambda a, b: 0
    if op in _INT_W_BINOPS:
        fn = _INT_W_BINOPS[op]
        return lambda a, b: fn(int(a), int(b))
    if op in _INT_W_IMMOPS:
        fn = _INT_W_IMMOPS[op]
        return lambda a, b: fn(int(a), imm)
    if op in _INT_BINOPS:
        fn = _INT_BINOPS[op]
        return lambda a, b: _ts(fn(int(a), int(b), xlen), xlen)
    if op in _INT_IMMOPS:
        fn = _INT_IMMOPS[op]
        return lambda a, b: _ts(fn(int(a), imm, xlen), xlen)
    if op is Opcode.LUI:
        constant = _ts(imm << 12, 32)
        return lambda a, b: constant
    if op is Opcode.AUIPC:
        constant = _ts(instr.address + (imm << 12), xlen)
        return lambda a, b: constant
    if op in _NAN_FIRST:
        fn = _FP_BINOPS[op]

        def arithmetic(a, b):
            a, b = float(a), float(b)
            if a != a and b != b:
                return f32(a)
            return f32(fn(a, b))
        return arithmetic
    if op in _FP_BINOPS:
        fn = _FP_BINOPS[op]
        return lambda a, b: f32(fn(float(a), float(b)))
    if op in _FP_CMPOPS:
        fn = _FP_CMPOPS[op]
        return lambda a, b: int(fn(float(a), float(b)))
    if op is Opcode.FSQRT_S:
        def fsqrt(a, b):
            value = float(a)
            return f32(math.sqrt(value)) if value >= 0 else float("nan")
        return fsqrt
    if op in _FP_UNARY:
        fn = _FP_UNARY[op]
        return lambda a, b: fn(a)
    if instr.is_system:
        raise ExecutionError(f"system instruction not executable: {instr}")
    raise ExecutionError(f"not a pure compute operation: {instr}")


def compile_branch(instr: Instruction, xlen: int = 32):
    """The direction of one control instruction at datapath width ``xlen``.

    Returns a closure ``(a, b) -> bool`` over the two source register
    values; unsigned conditions compare at ``xlen`` bits, and jumps compile
    to a constant taken.

    Raises:
        ExecutionError: for non-control instructions.
    """
    cond = _BRANCH_CONDS.get(instr.opcode)
    if cond is not None:
        return lambda a, b: cond(int(a), int(b), xlen)
    if instr.is_jump:
        return lambda a, b: True
    raise ExecutionError(f"not a branch: {instr}")


class Executor:
    """Steps a :class:`MachineState` through a :class:`Program`."""

    def __init__(self, program: Program, state: MachineState | None = None) -> None:
        self.program = program
        self.state = state if state is not None else MachineState(pc=program.base_address)
        self.instret = 0  # dynamic instruction count
        #: One zero-argument handler per static instruction, compiled at the
        #: state's width: it applies the instruction's effects and returns
        #: the taken pc of a control transfer, else None.
        self.handlers = [_compile_handler(instr, self.state)
                         for instr in program.instructions]

    def step(self) -> Instruction:
        """Execute the instruction at PC; returns the executed instruction."""
        state = self.state
        instr = self.program.at(state.pc)
        target = self.handlers[(state.pc - self.program.base_address) >> 2]()
        state.pc = state.pc + 4 if target is None else target
        self.instret += 1
        return instr

    def run(self, max_steps: int = 1_000_000,
            stop_pcs: Collection[int] = ()) -> int:
        """Run until the pc leaves the program or reaches a pc in
        ``stop_pcs`` (checked before every step, the first included);
        returns the number of instructions executed.

        Raises:
            ExecutionError: if the run needs more than ``max_steps`` steps,
                or reaches an instruction without semantics.
            KeyError: on a misaligned pc inside the program.
        """
        state = self.state
        program = self.program
        handlers = self.handlers
        start, end = program.base_address, program.end_address
        pc = state.pc
        steps = 0
        try:
            while start <= pc < end and pc not in stop_pcs:
                if steps >= max_steps:
                    raise ExecutionError(
                        f"exceeded {max_steps} steps (runaway loop?)")
                offset = pc - start
                if offset & 3:
                    program.at(pc)  # raises KeyError: misaligned
                target = handlers[offset >> 2]()
                pc = state.pc = pc + 4 if target is None else target
                steps += 1
        finally:
            self.instret += steps
        return steps


# -- per-instruction handlers ---------------------------------------------------
#
# A handler closes over the register-file lists and indices of its operands,
# so it reads and writes registers without going through MachineState.  The
# values it writes are already in register form (compile_operation sign-
# extends to the state's width and rounds FP results to binary32), and x0
# never changes: a write to x0 or to no register lands in a discarded slot.

def _register(state: MachineState, reg: Register | None) -> tuple[list, int]:
    """(register-file list, index) of ``reg``; a missing operand reads x0."""
    if reg is None:
        return state._int_regs, 0
    regs = state._int_regs if reg.file is RegFile.INT else state._fp_regs
    return regs, reg.index


def _compile_handler(instr: Instruction, state: MachineState):
    """The handler running ``instr`` on ``state``.  An instruction without
    semantics at the state's width gets one that raises the compile-time
    :class:`ExecutionError` when it runs."""
    xlen = state.xlen
    try:
        _require_width(instr, xlen)
        r1, i1 = _register(state, instr.rs1)
        r2, i2 = _register(state, instr.rs2)
        rd, d = (([0], 0) if instr.destination is None
                 else _register(state, instr.destination))
        op = instr.opcode
        imm = instr.imm
        mask = (1 << xlen) - 1
        link = _ts(instr.address + 4, xlen)
        target = instr.address + imm
        if instr.is_load:
            def load():
                rd[d] = load_value(state.memory, op, (r1[i1] + imm) & mask)
            return load
        if instr.is_store:
            def store():
                store_value(state.memory, op, (r1[i1] + imm) & mask, r2[i2])
            return store
        if op is Opcode.JAL:
            def jal():
                rd[d] = link
                return target
            return jal
        if op is Opcode.JALR:
            def jalr():
                taken = (r1[i1] + imm) & ~1 & mask
                rd[d] = link
                return taken
            return jalr
        if instr.is_branch:
            cond = compile_branch(instr, xlen)
            return lambda: target if cond(r1[i1], r2[i2]) else None
        fn = compile_operation(instr, xlen)
    except ExecutionError as error:
        message = str(error)

        def raise_():
            raise ExecutionError(message)
        return raise_

    def compute():
        rd[d] = fn(r1[i1], r2[i2])
    return compute


def run(program: Program, state: MachineState | None = None,
        max_steps: int = 1_000_000) -> MachineState:
    """Convenience wrapper: execute a program to completion, return state."""
    executor = Executor(program, state)
    executor.run(max_steps=max_steps)
    return executor.state
