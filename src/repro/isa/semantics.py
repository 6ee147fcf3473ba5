"""Functional (architectural) semantics of the supported RISC-V subset.

This executor computes *what* a program does — register and memory values and
the dynamic control-flow path — independent of *how long* it takes.  It is the
reference model the rest of the library is validated against:

* workload kernels are checked to compute the intended result;
* the accelerator's dataflow engine must produce the same architectural state
  as running the loop iterations on this executor (tested in
  ``tests/integration``);
* the CPU timing model consumes the dynamic instruction trace it generates.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Collection

from ..mem import Memory
from .assembler import Program
from .instructions import OPCODE_CLASS, Instruction, OpClass, Opcode
from .registers import RegFile, Register

__all__ = [
    "ACCESS_FORMATS",
    "ExecutionError",
    "MachineState",
    "Executor",
    "run",
    "apply_operation",
    "branch_taken",
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


class Executor:
    """Steps a :class:`MachineState` through a :class:`Program`."""

    def __init__(self, program: Program, state: MachineState | None = None) -> None:
        self.program = program
        self.state = state if state is not None else MachineState(pc=program.base_address)
        self.instret = 0  # dynamic instruction count
        #: Per-static-instruction handler, resolved once (None where the
        #: opcode has no semantics; :meth:`_execute` names the error).
        self.handlers = [_DISPATCH.get(instr.opcode)
                         for instr in program.instructions]

    def effective_address(self, instr: Instruction) -> int:
        """The memory address a load/store would access in the current state."""
        if not instr.is_memory:
            raise ValueError(f"{instr} is not a memory instruction")
        assert instr.rs1 is not None
        return _tu(int(self.state.read(instr.rs1)) + instr.imm,
                   self.state.xlen)

    def step(self) -> Instruction:
        """Execute the instruction at PC; returns the executed instruction."""
        instr = self.program.at(self.state.pc)
        next_pc = self.state.pc + 4
        taken_pc = self._execute(instr)
        self.state.pc = taken_pc if taken_pc is not None else next_pc
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
        instructions = program.instructions
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
                index = offset >> 2
                instr = instructions[index]
                handler = handlers[index]
                if handler is None:
                    self._execute(instr)  # raises ExecutionError
                target = handler(self, instr)
                pc = state.pc = pc + 4 if target is None else target
                steps += 1
        finally:
            self.instret += steps
        return steps

    # -- per-opcode semantics -------------------------------------------------

    def _execute(self, instr: Instruction) -> int | None:
        """Apply an instruction's effects; return the taken PC if a transfer.

        Dispatch is a single per-opcode table lookup (``_DISPATCH``, built
        once at import) rather than a chain of set-membership tests.
        """
        handler = _DISPATCH.get(instr.opcode)
        if handler is None:
            if instr.is_system:
                raise ExecutionError(
                    f"system instruction not executable: {instr}")
            raise ExecutionError(f"no semantics for {instr}")
        return handler(self, instr)

    def _require_rv64(self, instr: Instruction) -> None:
        if self.state.xlen != 64:
            raise ExecutionError(
                f"RV64I instruction {instr} on an RV32 (xlen=32) state"
            )


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
    Opcode.BEQ: lambda a, b, w=32: a == b,
    Opcode.BNE: lambda a, b, w=32: a != b,
    Opcode.BLT: lambda a, b, w=32: a < b,
    Opcode.BGE: lambda a, b, w=32: a >= b,
    Opcode.BLTU: lambda a, b, w=32: _tu(a, w) < _tu(b, w),
    Opcode.BGEU: lambda a, b, w=32: _tu(a, w) >= _tu(b, w),
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

_FP_CMPOPS = {
    Opcode.FEQ_S: lambda a, b: a == b,
    Opcode.FLT_S: lambda a, b: a < b,
    Opcode.FLE_S: lambda a, b: a <= b,
}

_FP_UNARY = {
    Opcode.FCVT_S_W: lambda v: float(int(v)),
    Opcode.FCVT_S_WU: lambda v: float(_tu(int(v), 32)),
    Opcode.FCVT_W_S: lambda v: int(v),
    Opcode.FCVT_WU_S: lambda v: int(v),
    Opcode.FMV_X_W: lambda v: struct.unpack(
        "<i", struct.pack("<f", float(v)))[0],
    Opcode.FMV_W_X: lambda v: struct.unpack(
        "<f", struct.pack("<i", _ts(int(v), 32)))[0],
}


# -- per-opcode dispatch table ------------------------------------------------
#
# One handler per opcode, closed over that opcode's semantic function; an
# Executor resolves them once per static instruction.

def _h_nop(ex: "Executor", instr: Instruction) -> None:
    return None


def _make_int_w_binop(fn):
    def handler(ex: "Executor", instr: Instruction) -> None:
        assert instr.rd and instr.rs1 and instr.rs2
        ex._require_rv64(instr)
        st = ex.state
        st.write(instr.rd, fn(int(st.read(instr.rs1)), int(st.read(instr.rs2))))
        return None
    return handler


def _make_int_w_immop(fn):
    def handler(ex: "Executor", instr: Instruction) -> None:
        assert instr.rd and instr.rs1
        ex._require_rv64(instr)
        st = ex.state
        st.write(instr.rd, fn(int(st.read(instr.rs1)), instr.imm))
        return None
    return handler


def _make_int_binop(fn):
    def handler(ex: "Executor", instr: Instruction) -> None:
        assert instr.rd and instr.rs1 and instr.rs2
        st = ex.state
        st.write(instr.rd, fn(int(st.read(instr.rs1)),
                              int(st.read(instr.rs2)), st.xlen))
        return None
    return handler


def _make_int_immop(fn):
    def handler(ex: "Executor", instr: Instruction) -> None:
        assert instr.rd and instr.rs1
        st = ex.state
        st.write(instr.rd, fn(int(st.read(instr.rs1)), instr.imm, st.xlen))
        return None
    return handler


def _h_lui(ex: "Executor", instr: Instruction) -> None:
    assert instr.rd
    ex.state.write(instr.rd, _ts(instr.imm << 12, 32))
    return None


def _h_auipc(ex: "Executor", instr: Instruction) -> None:
    assert instr.rd
    st = ex.state
    st.write(instr.rd, _ts(instr.address + (instr.imm << 12), st.xlen))
    return None


def _h_load(ex: "Executor", instr: Instruction) -> None:
    assert instr.rd
    if instr.requires_rv64:
        ex._require_rv64(instr)
    st = ex.state
    st.write(instr.rd, load_value(st.memory, instr.opcode,
                                  ex.effective_address(instr)))
    return None


def _h_store(ex: "Executor", instr: Instruction) -> None:
    assert instr.rs2
    if instr.requires_rv64:
        ex._require_rv64(instr)
    st = ex.state
    store_value(st.memory, instr.opcode, ex.effective_address(instr),
                st.read(instr.rs2))
    return None


def _make_branch(cond):
    def handler(ex: "Executor", instr: Instruction) -> int | None:
        assert instr.rs1 and instr.rs2 is not None
        st = ex.state
        a, b = int(st.read(instr.rs1)), int(st.read(instr.rs2))
        if cond(a, b, st.xlen):
            return instr.address + instr.imm
        return None
    return handler


def _h_jal(ex: "Executor", instr: Instruction) -> int:
    assert instr.rd is not None
    ex.state.write(instr.rd, instr.address + 4)
    return instr.address + instr.imm


def _h_jalr(ex: "Executor", instr: Instruction) -> int:
    assert instr.rd is not None and instr.rs1 is not None
    st = ex.state
    target = (int(st.read(instr.rs1)) + instr.imm) & ~1
    st.write(instr.rd, instr.address + 4)
    return _tu(target, st.xlen)


def _make_fp_binop(fn):
    def handler(ex: "Executor", instr: Instruction) -> None:
        assert instr.rd and instr.rs1 and instr.rs2
        st = ex.state
        st.write(instr.rd, fn(float(st.read(instr.rs1)),
                              float(st.read(instr.rs2))))
        return None
    return handler


def _make_fp_cmpop(fn):
    def handler(ex: "Executor", instr: Instruction) -> None:
        assert instr.rd and instr.rs1 and instr.rs2
        st = ex.state
        st.write(instr.rd, int(fn(float(st.read(instr.rs1)),
                                  float(st.read(instr.rs2)))))
        return None
    return handler


def _h_fsqrt(ex: "Executor", instr: Instruction) -> None:
    assert instr.rd and instr.rs1
    st = ex.state
    value = float(st.read(instr.rs1))
    st.write(instr.rd, math.sqrt(value) if value >= 0 else float("nan"))
    return None


def _make_fp_unary(fn):
    def handler(ex: "Executor", instr: Instruction) -> None:
        assert instr.rd and instr.rs1
        st = ex.state
        st.write(instr.rd, fn(st.read(instr.rs1)))
        return None
    return handler


def _build_dispatch() -> dict[Opcode, object]:
    dispatch: dict[Opcode, object] = {Opcode.NOP: _h_nop}
    for op, fn in _INT_W_BINOPS.items():
        dispatch[op] = _make_int_w_binop(fn)
    for op, fn in _INT_W_IMMOPS.items():
        dispatch[op] = _make_int_w_immop(fn)
    for op, fn in _INT_BINOPS.items():
        dispatch[op] = _make_int_binop(fn)
    for op, fn in _INT_IMMOPS.items():
        dispatch[op] = _make_int_immop(fn)
    dispatch[Opcode.LUI] = _h_lui
    dispatch[Opcode.AUIPC] = _h_auipc
    for op in ACCESS_FORMATS:
        dispatch[op] = _h_load if OPCODE_CLASS[op] is OpClass.LOAD else _h_store
    for op, cond in _BRANCH_CONDS.items():
        dispatch[op] = _make_branch(cond)
    dispatch[Opcode.JAL] = _h_jal
    dispatch[Opcode.JALR] = _h_jalr
    for op, fn in _FP_BINOPS.items():
        dispatch[op] = _make_fp_binop(fn)
    for op, fn in _FP_CMPOPS.items():
        dispatch[op] = _make_fp_cmpop(fn)
    dispatch[Opcode.FSQRT_S] = _h_fsqrt
    for op, fn in _FP_UNARY.items():
        dispatch[op] = _make_fp_unary(fn)
    return dispatch


_DISPATCH = _build_dispatch()


def apply_operation(instr: Instruction, a: int | float = 0,
                    b: int | float = 0, xlen: int = 32) -> int | float:
    """Evaluate a *compute* instruction as a pure function of its operands.

    This is the per-PE semantics of the spatial accelerator: given the
    (resolved) source values, return the produced value.  Memory, control,
    and system instructions are not computable here.

    Args:
        instr: the instruction (its immediate is used where applicable).
        a: value of source 1.
        b: value of source 2 (ignored by immediate/unary forms).
        xlen: the PE datapath width (32 for the paper's RV32IMF backend).

    Raises:
        ExecutionError: for non-compute instructions.
    """
    op = instr.opcode
    if op is Opcode.NOP:
        return 0
    if op in _INT_W_BINOPS:
        return _INT_W_BINOPS[op](int(a), int(b))
    if op in _INT_W_IMMOPS:
        return _INT_W_IMMOPS[op](int(a), instr.imm)
    if op in _INT_BINOPS:
        return _ts(_INT_BINOPS[op](int(a), int(b), xlen), xlen)
    if op in _INT_IMMOPS:
        return _ts(_INT_IMMOPS[op](int(a), instr.imm, xlen), xlen)
    if op is Opcode.LUI:
        return _ts(instr.imm << 12, 32)
    if op is Opcode.AUIPC:
        return _ts(instr.address + (instr.imm << 12), xlen)
    if op in _FP_BINOPS:
        return f32(_FP_BINOPS[op](float(a), float(b)))
    if op in _FP_CMPOPS:
        return int(_FP_CMPOPS[op](float(a), float(b)))
    if op is Opcode.FSQRT_S:
        value = float(a)
        return f32(math.sqrt(value)) if value >= 0 else float("nan")
    if op in _FP_UNARY:
        result = _FP_UNARY[op](a)
        return f32(result) if isinstance(result, float) else _ts(result, 32)
    raise ExecutionError(f"not a pure compute operation: {instr}")


def branch_taken(instr: Instruction, a: int | float, b: int | float) -> bool:
    """Evaluate a conditional branch's direction given its source values."""
    if instr.opcode in _BRANCH_CONDS:
        return _BRANCH_CONDS[instr.opcode](int(a), int(b))
    if instr.is_jump:
        return True
    raise ExecutionError(f"not a branch: {instr}")


def compile_operation(instr: Instruction, xlen: int = 32):
    """Specialize :func:`apply_operation` for one instruction.

    Returns a closure ``(a, b) -> value`` with the opcode dispatch, immediate,
    and datapath width already resolved — the per-PE semantics an execution
    plan (:mod:`repro.accel.plan`) bakes in at configuration time.  The
    closure is bit-identical to ``apply_operation(instr, a, b, xlen)`` for
    every input.

    Raises:
        ExecutionError: for non-compute instructions.
    """
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
        def fp_unary(a, b):
            result = fn(a)
            return f32(result) if isinstance(result, float) else _ts(result, 32)
        return fp_unary
    raise ExecutionError(f"not a pure compute operation: {instr}")


def compile_branch(instr: Instruction):
    """Specialize :func:`branch_taken` for one instruction.

    Returns a closure ``(a, b) -> bool``; jumps compile to a constant taken.

    Raises:
        ExecutionError: for non-control instructions.
    """
    cond = _BRANCH_CONDS.get(instr.opcode)
    if cond is not None:
        return lambda a, b: cond(int(a), int(b))
    if instr.is_jump:
        return lambda a, b: True
    raise ExecutionError(f"not a branch: {instr}")


def run(program: Program, state: MachineState | None = None,
        max_steps: int = 1_000_000) -> MachineState:
    """Convenience wrapper: execute a program to completion, return state."""
    executor = Executor(program, state)
    executor.run(max_steps=max_steps)
    return executor.state
