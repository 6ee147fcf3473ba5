"""Functional (architectural) semantics of the supported RISC-V subset.

This module computes *what* a program does — register and memory values and
the dynamic control-flow path — independent of *how long* it takes.  Every
opcode's meaning is one row of :data:`OPCODE_TABLE`: a scalar form, and a
lane form over numpy lanes at xlen 32 or the reason there is none.
:func:`compile_operation` (compute instructions) and :func:`compile_branch`
(branch directions) turn one instruction at one datapath width into a
closure over its source values.  Everything that evaluates instructions
goes through them:

* the :class:`Executor`, the CPU reference model, compiles one handler per
  static instruction around them (loads, stores and jumps add only the
  memory format table and the pc update);
* the accelerator's execution plan (:mod:`repro.accel.plan`) bakes them
  into its nodes, and the engine's interpreter evaluates through the plan;
* the CPU timing model consumes the dynamic trace the executor produces.

So the fabric computes what the CPU computes by construction.  The batched
fabric path runs the lane forms, and a per-row differential test holds
each row's two forms to the same bits.  Without a lane form: MULHU and
DIV/REM (no exact int64 lane form), RV64 W-forms (xlen 64), FCVT.W[U].S
(saturating conversion).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Callable, Collection, NamedTuple

import numpy as np

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
    "compile_lanes",
    "FORM_VALUES",
    "OPCODE_TABLE",
    "OpcodeRow",
    "f32",
    "compile_load",
    "compile_store",
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


_BINARY32 = struct.Struct("<f")


def f32(value: float) -> float:
    """Round a Python float to single precision (the accelerator is FP32).

    Magnitudes beyond FP32 range overflow to ±inf, as IEEE-754
    round-to-nearest does in hardware (struct refuses to pack them).
    """
    try:
        return _BINARY32.unpack(_BINARY32.pack(value))[0]
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

    def slot(self, reg: Register | None) -> tuple[list, int]:
        """(register-file list, index) holding ``reg``, for compiled code
        that reads registers without a call; a missing operand reads
        ``x0``, whose slot always holds 0."""
        if reg is None:
            return self._int_regs, 0
        regs = self._int_regs if reg.file is RegFile.INT else self._fp_regs
        return regs, reg.index

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


def compile_load(memory: Memory, opcode: Opcode):
    """The load ``opcode`` against ``memory``, resolved once: returns
    ``address -> register value``.  FLW reinterprets the bits as
    binary32, signed loads sign-extend."""
    size, signed = ACCESS_FORMATS[opcode]
    load = memory.load
    if opcode is Opcode.FLW:
        unpack = _BINARY32.unpack
        return lambda address: unpack(
            load(address, 4).to_bytes(4, "little"))[0]
    if signed:
        sign = 1 << (size * 8 - 1)
        return lambda address: (load(address, size) ^ sign) - sign
    return lambda address: load(address, size)


def compile_store(memory: Memory, opcode: Opcode):
    """The store ``opcode`` against ``memory``, resolved once: returns
    ``(address, register value) -> None``.  FSW packs the binary32 bits,
    integer stores keep the low ``size`` bytes."""
    size = ACCESS_FORMATS[opcode][0]
    store = memory.store
    if opcode is Opcode.FSW:
        pack = _BINARY32.pack
        return lambda address, value: store(
            address, 4, int.from_bytes(pack(float(value)), "little"))
    return lambda address, value: store(address, size, value)


# -- the opcode table -----------------------------------------------------------
#
# Lane forms take ``(a, b)`` lanes at xlen 32 (``(a, imm)`` for "int_imm",
# ``(a, constant)`` for "const") and run under ``np.errstate(all="ignore")``.

_M32 = 0xFFFFFFFF
_SIGN32 = 0x80000000


def _vts(a):
    """Lane ``_ts``: reinterpret the low 32 bits as signed (int64 lanes)."""
    return ((a & _M32) ^ _SIGN32) - _SIGN32


def _vtu(a):
    """Lane ``_tu``: low 32 bits as unsigned (int64 lanes)."""
    return a & _M32


def _f64(a):
    return a.astype(np.float64)


def _r32(a):
    """Lane ``f32``: round float64 lanes to binary32 (overflow to ±inf)."""
    return a.astype(np.float32)


def _first_nan(op):
    """Lane form of float64 ``op`` under the two-NaN rule: first NaN wins."""
    def lanes(a, b):
        a64, b64 = _f64(a), _f64(b)
        return _r32(np.where(np.isnan(a64) & np.isnan(b64), a64,
                             op(a64, b64)))
    return lanes


def _fdiv(a: float, b: float) -> float:
    """IEEE 754 division where Python's raises: x/±0 is an infinity signed
    by both operands, 0/0 the canonical NaN, and NaN/0 the NaN dividend."""
    if b != 0.0:
        return a / b
    if a != a:
        return a
    if a == 0.0:
        return math.nan
    return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _fdiv_lanes(a64, b64):
    # numpy divides like IEEE 754 except that 0/0 gives a negative NaN.
    return np.where((a64 == 0.0) & (b64 == 0.0), np.nan, a64 / b64)


def _fmin_fmax(lower: bool):
    """FMIN.S (``lower``) or FMAX.S: -0.0 orders below +0.0, one NaN
    operand yields the other operand, and two yield the canonical NaN."""
    def pick(a, b):
        if b != b:
            return math.nan if a != a else a
        if a != a:
            return b
        below = math.copysign(1.0, b) < 0 if a == b else b < a
        return b if below == lower else a
    return pick


def _fmin_fmax_lanes(lower: bool):
    def lanes(a, b):
        a64, b64 = _f64(a), _f64(b)
        below = np.where(a64 == b64, np.signbit(b64), b64 < a64)
        b_wins = np.isnan(a64) | (~np.isnan(b64) & (below == lower))
        return _r32(np.where(np.isnan(a64) & np.isnan(b64), np.nan,
                             np.where(b_wins, b64, a64)))
    return lanes


def _fsqrt(a, b):
    value = float(a)
    return f32(math.sqrt(value)) if value >= 0 else math.nan


def _fsqrt_lanes(a, b):
    a64 = _f64(a)
    # Negative and NaN inputs give the canonical NaN, as the scalar form
    # does: np.sqrt's payload-propagating NaN must not leak.
    return _r32(np.where(a64 >= 0.0, np.sqrt(a64), np.nan))


def _fcvt_w(value: float, low: int, high: int) -> int:
    """FCVT.W[U].S: truncate toward zero, saturating to ``[low, high]``;
    NaN converts to ``high``, as the RISC-V spec requires."""
    if value != value:
        return high
    return int(min(max(value, low), high))


class OpcodeRow(NamedTuple):
    """One opcode's meaning: scalar form, lane form or why there is none."""

    form: str
    scalar: Callable
    lane: Callable | None = None
    reason: str = ""


#: Per form: the (rd, rs1, rs2) values its closure writes and reads: "i" an
#: integer, read through int(), "f" a float, read through float(), or None.
FORM_VALUES = {
    "int": ("i", "i", "i"),          # scalar (a, b, xlen)
    "int_imm": ("i", "i", None),     # scalar (a, imm, xlen)
    "word": ("i", "i", "i"),         # scalar (a, b), RV64 W-form
    "word_imm": ("i", "i", None),    # scalar (a, imm), RV64 W-form
    "const": ("i", None, None),      # scalar (imm, pc, xlen) -> constant
    "fp": ("f", "f", "f"),           # scalar (a, b) -> float
    "fp_nan": ("f", "f", "f"),       # "fp" under the two-NaN rule
    "fp_cmp": ("i", "f", "f"),       # scalar (a, b) -> bool
    "fp_unary": ("f", "f", None),    # scalar (a, b) is the closure itself
    "to_fp": ("f", "i", None),       # scalar (v) -> register value
    "to_int": ("i", "f", None),      # scalar (v) -> register value
    "branch": ("i", "i", "i"),       # scalar (a, b, xlen) -> taken
}

_NO_INT64 = "no exact int64 lane form"
_XLEN_64 = "xlen 64"
_SATURATING = "saturating conversion"

#: Rows by form: opcode -> (scalar form, lane form) or (scalar form, None,
#: reason).  Integer scalar forms take the datapath width: shifts mask by
#: xlen-1, unsigned comparisons and divides reinterpret at xlen bits.
_ROWS = {
    "int": {
        Opcode.ADD: (lambda a, b, w: a + b, lambda a, b: _vts(a + b)),
        Opcode.SUB: (lambda a, b, w: a - b, lambda a, b: _vts(a - b)),
        Opcode.SLL: (lambda a, b, w: _ts(a << (b & (w - 1)), w),
                     lambda a, b: _vts(a << (b & 31))),
        Opcode.SLT: (lambda a, b, w: int(a < b),
                     lambda a, b: (a < b).astype(np.int64)),
        Opcode.SLTU: (lambda a, b, w: int(_tu(a, w) < _tu(b, w)),
                      lambda a, b: (_vtu(a) < _vtu(b)).astype(np.int64)),
        Opcode.XOR: (lambda a, b, w: a ^ b, lambda a, b: _vts(a ^ b)),
        Opcode.SRL: (lambda a, b, w: _ts(_tu(a, w) >> (b & (w - 1)), w),
                     lambda a, b: _vts(_vtu(a) >> (b & 31))),
        Opcode.SRA: (lambda a, b, w: a >> (b & (w - 1)),
                     lambda a, b: a >> (b & 31)),
        Opcode.OR: (lambda a, b, w: a | b, lambda a, b: _vts(a | b)),
        Opcode.AND: (lambda a, b, w: a & b, lambda a, b: _vts(a & b)),
        Opcode.MUL: (lambda a, b, w: _ts(a * b, w),
                     lambda a, b: _vts(a * b)),
        # 32-bit products fit in int64; MULHU's would need uint64.
        Opcode.MULH: (lambda a, b, w: (a * b) >> w,
                      lambda a, b: (a * b) >> 32),
        Opcode.MULHSU: (lambda a, b, w: (a * _tu(b, w)) >> w,
                        lambda a, b: (a * _vtu(b)) >> 32),
        Opcode.MULHU: (lambda a, b, w: (_tu(a, w) * _tu(b, w)) >> w, None,
                       _NO_INT64),
        Opcode.DIV: (lambda a, b, w: _div(a, b, w), None, _NO_INT64),
        Opcode.DIVU: (lambda a, b, w: _ts(
            (1 << w) - 1 if b == 0 else _tu(a, w) // _tu(b, w), w),
            None, _NO_INT64),
        Opcode.REM: (lambda a, b, w: _rem(a, b, w), None, _NO_INT64),
        Opcode.REMU: (lambda a, b, w: _ts(
            _tu(a, w) if b == 0 else _tu(a, w) % _tu(b, w), w),
            None, _NO_INT64),
    },
    "int_imm": {
        Opcode.ADDI: (lambda a, i, w: a + i, lambda a, i: _vts(a + i)),
        Opcode.SLTI: (lambda a, i, w: int(a < i),
                      lambda a, i: (a < i).astype(np.int64)),
        Opcode.SLTIU: (lambda a, i, w: int(_tu(a, w) < _tu(i, w)),
                       lambda a, i: (_vtu(a) < (i & _M32)).astype(np.int64)),
        Opcode.XORI: (lambda a, i, w: a ^ i, lambda a, i: _vts(a ^ i)),
        Opcode.ORI: (lambda a, i, w: a | i, lambda a, i: _vts(a | i)),
        Opcode.ANDI: (lambda a, i, w: a & i, lambda a, i: _vts(a & i)),
        Opcode.SLLI: (lambda a, i, w: _ts(a << (i & (w - 1)), w),
                      lambda a, i: _vts(a << (i & 31))),
        Opcode.SRLI: (lambda a, i, w: _ts(_tu(a, w) >> (i & (w - 1)), w),
                      lambda a, i: _vts(_vtu(a) >> (i & 31))),
        Opcode.SRAI: (lambda a, i, w: a >> (i & (w - 1)),
                      lambda a, i: a >> (i & 31)),
    },
    # RV64I W-forms: operate on the low 32 bits, sign-extend the result.
    "word": {
        Opcode.ADDW: (lambda a, b: _ts(a + b, 32), None, _XLEN_64),
        Opcode.SUBW: (lambda a, b: _ts(a - b, 32), None, _XLEN_64),
        Opcode.SLLW: (lambda a, b: _ts(a << (b & 31), 32), None, _XLEN_64),
        Opcode.SRLW: (lambda a, b: _ts(_tu(a, 32) >> (b & 31), 32), None,
                      _XLEN_64),
        Opcode.SRAW: (lambda a, b: _ts(_ts(a, 32) >> (b & 31), 32), None,
                      _XLEN_64),
    },
    "word_imm": {
        Opcode.ADDIW: (lambda a, i: _ts(a + i, 32), None, _XLEN_64),
        Opcode.SLLIW: (lambda a, i: _ts(a << (i & 31), 32), None, _XLEN_64),
        Opcode.SRLIW: (lambda a, i: _ts(_tu(a, 32) >> (i & 31), 32), None,
                       _XLEN_64),
        Opcode.SRAIW: (lambda a, i: _ts(_ts(a, 32) >> (i & 31), 32), None,
                       _XLEN_64),
    },
    "const": {
        Opcode.NOP: (lambda i, pc, w: 0, np.full_like),
        Opcode.LUI: (lambda i, pc, w: _ts(i << 12, 32), np.full_like),
        Opcode.AUIPC: (lambda i, pc, w: _ts(pc + (i << 12), w),
                       np.full_like),
    },
    "fp_nan": {
        Opcode.FADD_S: (lambda a, b: a + b, _first_nan(np.add)),
        Opcode.FSUB_S: (lambda a, b: a - b, _first_nan(np.subtract)),
        Opcode.FMUL_S: (lambda a, b: a * b, _first_nan(np.multiply)),
        Opcode.FDIV_S: (_fdiv, _first_nan(_fdiv_lanes)),
    },
    # Sign injection reads b's sign bit, NaN and -0.0 included.
    "fp": {
        Opcode.FMIN_S: (_fmin_fmax(True), _fmin_fmax_lanes(True)),
        Opcode.FMAX_S: (_fmin_fmax(False), _fmin_fmax_lanes(False)),
        Opcode.FSGNJ_S: (
            lambda a, b: math.copysign(abs(a), b),
            lambda a, b: _r32(np.copysign(np.abs(_f64(a)), _f64(b)))),
        Opcode.FSGNJN_S: (
            lambda a, b: math.copysign(abs(a), -b),
            lambda a, b: _r32(np.copysign(np.abs(_f64(a)), -_f64(b)))),
        Opcode.FSGNJX_S: (
            lambda a, b: -a if math.copysign(1.0, b) < 0 else a,
            lambda a, b: _r32(np.where(np.signbit(_f64(b)), -_f64(a),
                                       _f64(a)))),
    },
    "fp_cmp": {
        Opcode.FEQ_S: (lambda a, b: a == b,
                       lambda a, b: (_f64(a) == _f64(b)).astype(np.int64)),
        Opcode.FLT_S: (lambda a, b: a < b,
                       lambda a, b: (_f64(a) < _f64(b)).astype(np.int64)),
        Opcode.FLE_S: (lambda a, b: a <= b,
                       lambda a, b: (_f64(a) <= _f64(b)).astype(np.int64)),
    },
    "fp_unary": {Opcode.FSQRT_S: (_fsqrt, _fsqrt_lanes)},
    # FMV.W.X's widening to a register value quiets a signaling pattern,
    # so its lanes round-trip through float64 too.
    "to_fp": {
        Opcode.FCVT_S_W: (lambda v: f32(float(int(v))),
                          lambda a, b: a.astype(np.float32)),
        Opcode.FCVT_S_WU: (lambda v: f32(float(_tu(int(v), 32))),
                           lambda a, b: _vtu(a).astype(np.float32)),
        Opcode.FMV_W_X: (
            lambda v: f32(struct.unpack(
                "<f", struct.pack("<i", _ts(int(v), 32)))[0]),
            lambda a, b: _r32(_f64(a.astype(np.int32).view(np.float32)))),
    },
    "to_int": {
        Opcode.FMV_X_W: (
            lambda v: struct.unpack("<i", struct.pack("<f", float(v)))[0],
            lambda a, b: a.astype(np.float32).view(np.int32)
                          .astype(np.int64)),
        Opcode.FCVT_W_S: (
            lambda v: _fcvt_w(float(v), -(1 << 31), (1 << 31) - 1),
            None, _SATURATING),
        Opcode.FCVT_WU_S: (
            lambda v: _ts(_fcvt_w(float(v), 0, (1 << 32) - 1), 32),
            None, _SATURATING),
    },
    "branch": {
        Opcode.BEQ: (lambda a, b, w: a == b, lambda a, b: a == b),
        Opcode.BNE: (lambda a, b, w: a != b, lambda a, b: a != b),
        Opcode.BLT: (lambda a, b, w: a < b, lambda a, b: a < b),
        Opcode.BGE: (lambda a, b, w: a >= b, lambda a, b: a >= b),
        Opcode.BLTU: (lambda a, b, w: _tu(a, w) < _tu(b, w),
                      lambda a, b: _vtu(a) < _vtu(b)),
        Opcode.BGEU: (lambda a, b, w: _tu(a, w) >= _tu(b, w),
                      lambda a, b: _vtu(a) >= _vtu(b)),
    },
}

#: The one opcode table.
OPCODE_TABLE: dict[Opcode, OpcodeRow] = {
    op: OpcodeRow(form, *forms)
    for form, rows in _ROWS.items() for op, forms in rows.items()}


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
    row = OPCODE_TABLE.get(instr.opcode)
    if instr.is_system:
        raise ExecutionError(f"system instruction not executable: {instr}")
    if row is None or row.form == "branch":
        raise ExecutionError(f"not a pure compute operation: {instr}")
    form, fn, imm = row.form, row.scalar, instr.imm
    # Each form is one closure over the row's scalar, with _ts inline as
    # ((v & mask) ^ sign) - sign.
    mask, sign = (1 << xlen) - 1, 1 << (xlen - 1)
    if form == "int":
        return lambda a, b: ((fn(int(a), int(b), xlen) & mask) ^ sign) - sign
    if form == "int_imm":
        return lambda a, b: ((fn(int(a), imm, xlen) & mask) ^ sign) - sign
    if form == "word":
        return lambda a, b: fn(int(a), int(b))
    if form == "word_imm":
        return lambda a, b: fn(int(a), imm)
    if form == "const":
        constant = fn(imm, instr.address, xlen)
        return lambda a, b: constant
    if form == "fp_nan":
        # Arithmetic passes a NaN operand's payload through.  Which of two
        # NaN operands the host passes is not portable (CPython's float
        # paths and numpy's SIMD loops differ), so the first one wins,
        # quieted by the widening from binary32 and the rounding back.
        def arithmetic(a, b):
            a, b = float(a), float(b)
            return f32(a if a != a and b != b else fn(a, b))
        return arithmetic
    if form == "fp":
        return lambda a, b: f32(fn(float(a), float(b)))
    if form == "fp_cmp":
        return lambda a, b: int(fn(float(a), float(b)))
    if form == "fp_unary":
        return fn
    return lambda a, b: fn(a)  # "to_fp", "to_int"


def compile_branch(instr: Instruction, xlen: int = 32):
    """The direction of one control instruction at datapath width ``xlen``.

    Returns a closure ``(a, b) -> bool`` over the two source register
    values; unsigned conditions compare at ``xlen`` bits, and jumps compile
    to a constant taken.

    Raises:
        ExecutionError: for non-control instructions.
    """
    row = OPCODE_TABLE.get(instr.opcode)
    if row is not None and row.form == "branch":
        cond = row.scalar
        return lambda a, b: cond(int(a), int(b), xlen)
    if instr.is_jump:
        return lambda a, b: True
    raise ExecutionError(f"not a branch: {instr}")


def compile_lanes(instr: Instruction):
    """The lane form of one compute or control instruction at xlen 32 — a
    closure ``(a, b) -> lanes`` over (B,)-shaped lanes that equals
    :func:`compile_operation` (or :func:`compile_branch`) lane by lane —
    and its form's (rd, rs1, rs2) :data:`FORM_VALUES` codes.

    Raises:
        ExecutionError: when the opcode has no lane form, with its row's
            reason ("no lane form for div: no exact int64 lane form").
    """
    if instr.is_jump:
        return (lambda a, b: np.ones(np.shape(a), bool)), FORM_VALUES["branch"]
    row = OPCODE_TABLE.get(instr.opcode)
    if row is None or row.lane is None:
        reason = "no compute or branch semantics" if row is None \
            else row.reason
        raise ExecutionError(f"no lane form for {instr.opcode}: {reason}")
    lane, values = row.lane, FORM_VALUES[row.form]
    if row.form == "int_imm":
        imm = instr.imm
        return (lambda a, b: lane(a, imm)), values
    if row.form == "const":
        constant = row.scalar(instr.imm, instr.address, 32)
        return (lambda a, b: lane(a, constant)), values
    return lane, values


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
# so it reads and writes registers without going through MachineState, and
# calls its opcode row's scalar directly.  The values it writes are already
# in register form (sign-extended to the state's width, FP results rounded
# to binary32, as compile_operation's are), and x0 never changes: a write
# to x0 or to no register lands in a discarded slot.

def _compile_handler(instr: Instruction, state: MachineState):
    """The handler running ``instr`` on ``state``.  An instruction without
    semantics at the state's width gets one that raises the compile-time
    :class:`ExecutionError` when it runs."""
    xlen = state.xlen
    try:
        _require_width(instr, xlen)
        r1, i1 = state.slot(instr.rs1)
        r2, i2 = state.slot(instr.rs2)
        rd, d = (([0], 0) if instr.destination is None
                 else state.slot(instr.destination))
        op = instr.opcode
        imm = instr.imm
        mask = (1 << xlen) - 1
        link = _ts(instr.address + 4, xlen)
        target = instr.address + imm
        if instr.is_load:
            read = compile_load(state.memory, op)

            def load():
                rd[d] = read((r1[i1] + imm) & mask)
            return load
        if instr.is_store:
            write = compile_store(state.memory, op)

            def store():
                write((r1[i1] + imm) & mask, r2[i2])
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
            cond = OPCODE_TABLE[op].scalar
            return lambda: target if cond(r1[i1], r2[i2], xlen) else None
        compute = _compute_handler(instr, xlen, r1, i1, r2, i2, rd, d)
    except ExecutionError as error:
        message = str(error)

        def raise_():
            raise ExecutionError(message)
        return raise_
    return compute


def _compute_handler(instr: Instruction, xlen: int, r1: list, i1: int,
                     r2: list, i2: int, rd: list, d: int):
    """The handler of a compute instruction: one closure per form that
    calls the row's scalar once on the register values as they are held
    (ints in the integer file, binary32-valued floats in the FP file),
    with :func:`compile_operation`'s truncation and rounding inline."""
    operation = compile_operation(instr, xlen)  # raises without semantics
    row = OPCODE_TABLE[instr.opcode]
    form, fn, imm = row.form, row.scalar, instr.imm
    mask, sign = (1 << xlen) - 1, 1 << (xlen - 1)
    if form == "int":
        def compute():
            rd[d] = ((fn(r1[i1], r2[i2], xlen) & mask) ^ sign) - sign
    elif form == "int_imm":
        def compute():
            rd[d] = ((fn(r1[i1], imm, xlen) & mask) ^ sign) - sign
    elif form == "word":
        def compute():
            rd[d] = fn(r1[i1], r2[i2])
    elif form == "word_imm":
        def compute():
            rd[d] = fn(r1[i1], imm)
    elif form == "const":
        constant = operation(0, 0)

        def compute():
            rd[d] = constant
    elif form == "fp_nan":
        def compute():
            a, b = r1[i1], r2[i2]
            rd[d] = f32(a if a != a and b != b else fn(a, b))
    elif form == "fp":
        def compute():
            rd[d] = f32(fn(r1[i1], r2[i2]))
    elif form == "fp_cmp":
        def compute():
            rd[d] = int(fn(r1[i1], r2[i2]))
    elif form == "fp_unary":
        def compute():
            rd[d] = fn(r1[i1], r2[i2])
    else:  # "to_fp", "to_int"
        def compute():
            rd[d] = fn(r1[i1])
    return compute


def run(program: Program, state: MachineState | None = None,
        max_steps: int = 1_000_000) -> MachineState:
    """Convenience wrapper: execute a program to completion, return state."""
    executor = Executor(program, state)
    executor.run(max_steps=max_steps)
    return executor.state
