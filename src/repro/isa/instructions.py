"""RISC-V instruction model used across the whole library.

The model covers the subset MESA's hardware supports (paper §5: RV32IMF, with
RV64I word widths treated as a configuration property of the backend): integer
ALU/mul/div, single-precision floating point, loads/stores, branches/jumps,
and the system instructions that *disqualify* a loop in condition C2.

Each instruction exposes at most **two register sources** (``sources``), in
line with the paper's DFG model ("each instruction has up to two predecessor
instructions s1, s2").  Fused multiply-add (three sources) is deliberately
excluded, matching the hardware's constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .registers import Register

__all__ = ["OpClass", "Opcode", "Instruction", "OPCODE_CLASS", "RV64_ONLY"]


class OpClass(Enum):
    """Functional-unit class of an operation.

    The accelerator's per-PE capability masks (:math:`F_{op}`) and the latency
    model are both keyed by this class.
    """

    INT_ALU = "int_alu"
    INT_MUL = "int_mul"
    INT_DIV = "int_div"
    FP_ADD = "fp_add"
    FP_MUL = "fp_mul"
    FP_DIV = "fp_div"
    FP_SQRT = "fp_sqrt"
    FP_CMP = "fp_cmp"
    FP_CVT = "fp_cvt"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    JUMP = "jump"
    SYSTEM = "system"

    # Members are singletons, so identity hashing is both correct and much
    # cheaper than the enum default; OpClass keys several per-instruction
    # dispatch tables on hot paths.
    __hash__ = object.__hash__

    @property
    def is_memory(self) -> bool:
        return self in (OpClass.LOAD, OpClass.STORE)

    @property
    def is_control(self) -> bool:
        return self in (OpClass.BRANCH, OpClass.JUMP)

    @property
    def is_fp(self) -> bool:
        return self in (
            OpClass.FP_ADD,
            OpClass.FP_MUL,
            OpClass.FP_DIV,
            OpClass.FP_SQRT,
            OpClass.FP_CMP,
            OpClass.FP_CVT,
        )

    @property
    def is_compute(self) -> bool:
        """True for operations that occupy an ALU/FPU (not memory/control)."""
        return not (self.is_memory or self.is_control or self is OpClass.SYSTEM)


class Opcode(Enum):
    """Mnemonics of the supported RV32IMF subset (plus pseudo-ops)."""

    # RV32I integer register-register
    ADD = "add"
    SUB = "sub"
    SLL = "sll"
    SLT = "slt"
    SLTU = "sltu"
    XOR = "xor"
    SRL = "srl"
    SRA = "sra"
    OR = "or"
    AND = "and"
    # RV32I integer register-immediate
    ADDI = "addi"
    SLTI = "slti"
    SLTIU = "sltiu"
    XORI = "xori"
    ORI = "ori"
    ANDI = "andi"
    SLLI = "slli"
    SRLI = "srli"
    SRAI = "srai"
    LUI = "lui"
    AUIPC = "auipc"
    # RV32M
    MUL = "mul"
    MULH = "mulh"
    MULHSU = "mulhsu"
    MULHU = "mulhu"
    DIV = "div"
    DIVU = "divu"
    REM = "rem"
    REMU = "remu"
    # Loads / stores
    LB = "lb"
    LH = "lh"
    LW = "lw"
    LBU = "lbu"
    LHU = "lhu"
    SB = "sb"
    SH = "sh"
    SW = "sw"
    FLW = "flw"
    FSW = "fsw"
    # RV64I loads / stores
    LD = "ld"
    LWU = "lwu"
    SD = "sd"
    # RV64I word-width (W) arithmetic: 32-bit ops sign-extended to 64 bits
    ADDIW = "addiw"
    SLLIW = "slliw"
    SRLIW = "srliw"
    SRAIW = "sraiw"
    ADDW = "addw"
    SUBW = "subw"
    SLLW = "sllw"
    SRLW = "srlw"
    SRAW = "sraw"
    # Branches / jumps
    BEQ = "beq"
    BNE = "bne"
    BLT = "blt"
    BGE = "bge"
    BLTU = "bltu"
    BGEU = "bgeu"
    JAL = "jal"
    JALR = "jalr"
    # RV32F (no fused multiply-add: >2 sources is unsupported by the DFG)
    FADD_S = "fadd.s"
    FSUB_S = "fsub.s"
    FMUL_S = "fmul.s"
    FDIV_S = "fdiv.s"
    FSQRT_S = "fsqrt.s"
    FMIN_S = "fmin.s"
    FMAX_S = "fmax.s"
    FSGNJ_S = "fsgnj.s"
    FSGNJN_S = "fsgnjn.s"
    FSGNJX_S = "fsgnjx.s"
    FEQ_S = "feq.s"
    FLT_S = "flt.s"
    FLE_S = "fle.s"
    FCVT_S_W = "fcvt.s.w"
    FCVT_S_WU = "fcvt.s.wu"
    FCVT_W_S = "fcvt.w.s"
    FCVT_WU_S = "fcvt.wu.s"
    FMV_X_W = "fmv.x.w"
    FMV_W_X = "fmv.w.x"
    # System (these disqualify a loop under condition C2)
    ECALL = "ecall"
    EBREAK = "ebreak"
    FENCE = "fence"
    CSRRW = "csrrw"
    CSRRS = "csrrs"
    CSRRC = "csrrc"
    # Pseudo
    NOP = "nop"

    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


_CLASS_GROUPS: dict[OpClass, tuple[Opcode, ...]] = {
    OpClass.INT_ALU: (
        Opcode.ADD, Opcode.SUB, Opcode.SLL, Opcode.SLT, Opcode.SLTU,
        Opcode.XOR, Opcode.SRL, Opcode.SRA, Opcode.OR, Opcode.AND,
        Opcode.ADDI, Opcode.SLTI, Opcode.SLTIU, Opcode.XORI, Opcode.ORI,
        Opcode.ANDI, Opcode.SLLI, Opcode.SRLI, Opcode.SRAI,
        Opcode.LUI, Opcode.AUIPC, Opcode.NOP,
        Opcode.ADDIW, Opcode.SLLIW, Opcode.SRLIW, Opcode.SRAIW,
        Opcode.ADDW, Opcode.SUBW, Opcode.SLLW, Opcode.SRLW, Opcode.SRAW,
    ),
    OpClass.INT_MUL: (Opcode.MUL, Opcode.MULH, Opcode.MULHSU, Opcode.MULHU),
    OpClass.INT_DIV: (Opcode.DIV, Opcode.DIVU, Opcode.REM, Opcode.REMU),
    OpClass.LOAD: (Opcode.LB, Opcode.LH, Opcode.LW, Opcode.LBU, Opcode.LHU,
                   Opcode.FLW, Opcode.LD, Opcode.LWU),
    OpClass.STORE: (Opcode.SB, Opcode.SH, Opcode.SW, Opcode.FSW, Opcode.SD),
    OpClass.BRANCH: (Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE, Opcode.BLTU, Opcode.BGEU),
    OpClass.JUMP: (Opcode.JAL, Opcode.JALR),
    OpClass.FP_ADD: (Opcode.FADD_S, Opcode.FSUB_S),
    OpClass.FP_MUL: (Opcode.FMUL_S,),
    OpClass.FP_DIV: (Opcode.FDIV_S,),
    OpClass.FP_SQRT: (Opcode.FSQRT_S,),
    OpClass.FP_CMP: (
        Opcode.FMIN_S, Opcode.FMAX_S, Opcode.FEQ_S, Opcode.FLT_S, Opcode.FLE_S,
        Opcode.FSGNJ_S, Opcode.FSGNJN_S, Opcode.FSGNJX_S,
    ),
    OpClass.FP_CVT: (
        Opcode.FCVT_S_W, Opcode.FCVT_S_WU, Opcode.FCVT_W_S, Opcode.FCVT_WU_S,
        Opcode.FMV_X_W, Opcode.FMV_W_X,
    ),
    OpClass.SYSTEM: (
        Opcode.ECALL, Opcode.EBREAK, Opcode.FENCE,
        Opcode.CSRRW, Opcode.CSRRS, Opcode.CSRRC,
    ),
}

#: Map from opcode to its functional-unit class.
OPCODE_CLASS: dict[Opcode, OpClass] = {
    op: cls for cls, ops in _CLASS_GROUPS.items() for op in ops
}

_missing = [op for op in Opcode if op not in OPCODE_CLASS]
assert not _missing, f"opcodes without a class: {_missing}"

#: RV64I-only opcodes: these disqualify a loop on a 32-bit backend
#: (condition C2: "64-bit operations on a 32-bit accelerator").
RV64_ONLY: frozenset[Opcode] = frozenset({
    Opcode.LD, Opcode.LWU, Opcode.SD,
    Opcode.ADDIW, Opcode.SLLIW, Opcode.SRLIW, Opcode.SRAIW,
    Opcode.ADDW, Opcode.SUBW, Opcode.SLLW, Opcode.SRLW, Opcode.SRAW,
})


@dataclass(frozen=True)
class Instruction:
    """A decoded RISC-V instruction at a specific address.

    Attributes:
        address: byte address of the instruction in the program.
        opcode: the mnemonic.
        rd: destination register, or ``None`` for stores/branches.
        rs1: first register source (base address for memory ops).
        rs2: second register source (store data, branch comparand).
        imm: immediate operand (offset for memory/branch ops), default 0.
        label: optional symbolic branch-target label kept for display.

    Derived facts (``op_class``, ``is_load``, ``sources``, ...) are computed
    once at construction and stored on the instance: every simulator loop —
    the functional executor, the CPU scoreboard, and the dataflow engine —
    reads them per dynamic instruction, so they must be plain attribute
    loads, not per-call dict lookups.  They are not dataclass fields, so
    equality, hashing, and ``repr`` still consider only the encoding above.
    """

    address: int
    opcode: Opcode
    rd: Register | None = None
    rs1: Register | None = None
    rs2: Register | None = None
    imm: int = 0
    label: str | None = None

    # Derived (non-field) attributes set by __post_init__: op_class, sources,
    # destination, is_load, is_store, is_memory, is_branch, is_jump,
    # is_control, is_system, is_fp, requires_rv64.

    def __post_init__(self) -> None:
        op_class = OPCODE_CLASS[self.opcode]
        setattr_ = object.__setattr__
        setattr_(self, "op_class", op_class)
        setattr_(self, "is_load", op_class is OpClass.LOAD)
        setattr_(self, "is_store", op_class is OpClass.STORE)
        setattr_(self, "is_memory",
                 op_class is OpClass.LOAD or op_class is OpClass.STORE)
        setattr_(self, "is_branch", op_class is OpClass.BRANCH)
        setattr_(self, "is_jump", op_class is OpClass.JUMP)
        setattr_(self, "is_control",
                 op_class is OpClass.BRANCH or op_class is OpClass.JUMP)
        setattr_(self, "is_system", op_class is OpClass.SYSTEM)
        setattr_(self, "is_fp", op_class.is_fp)
        setattr_(self, "requires_rv64", self.opcode in RV64_ONLY)
        setattr_(self, "sources", tuple(
            reg for reg in (self.rs1, self.rs2)
            if reg is not None and not reg.is_zero))
        setattr_(self, "destination",
                 None if self.rd is not None and self.rd.is_zero else self.rd)

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.address, self.opcode, self.rd, self.rs1,
                           self.rs2, self.imm, self.label))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __str__(self) -> str:
        parts = [self.opcode.value]
        operands: list[str] = []
        if self.is_store:
            operands = [str(self.rs2), f"{self.imm}({self.rs1})"]
        elif self.is_load:
            operands = [str(self.rd), f"{self.imm}({self.rs1})"]
        elif self.is_branch:
            target = self.label or hex(self.address + self.imm)
            operands = [str(self.rs1), str(self.rs2), target]
        else:
            if self.rd is not None:
                operands.append(str(self.rd))
            if self.rs1 is not None:
                operands.append(str(self.rs1))
            if self.rs2 is not None:
                operands.append(str(self.rs2))
            if self.imm and not self.is_system:
                operands.append(str(self.imm))
        if operands:
            parts.append(", ".join(operands))
        return " ".join(parts)
