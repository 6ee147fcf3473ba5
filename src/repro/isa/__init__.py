"""RISC-V ISA substrate: registers, instructions, assembler, codec, semantics.

This package provides the machine-code layer that both the CPU model and the
MESA controller consume.  The most commonly used entry points are:

* :func:`assemble` — turn RISC-V assembly text into a :class:`Program`;
* :class:`Instruction` / :class:`Opcode` / :class:`OpClass` — the decoded form;
* :func:`encode` / :func:`decode` — 32-bit machine-word codec;
* :class:`Executor` — the architectural (functional) reference model;
* :data:`OPCODE_TABLE` — the one mapping from opcode to semantics, compiled
  by :func:`compile_operation` / :func:`compile_branch`.
"""

from .assembler import AssemblyError, Program, assemble
from .encoding import EncodingError, decode, encode
from .instructions import Instruction, OpClass, Opcode, OPCODE_CLASS
from .registers import (
    FP_ABI_NAMES,
    INT_ABI_NAMES,
    Register,
    RegFile,
    ZERO,
    f,
    parse_register,
    x,
)
from .semantics import (
    ACCESS_FORMATS,
    OPCODE_TABLE,
    ExecutionError,
    Executor,
    MachineState,
    compile_branch,
    compile_load,
    compile_operation,
    compile_store,
    f32,
    run,
)

__all__ = [
    "AssemblyError",
    "Program",
    "assemble",
    "EncodingError",
    "decode",
    "encode",
    "Instruction",
    "OpClass",
    "Opcode",
    "OPCODE_CLASS",
    "Register",
    "RegFile",
    "ZERO",
    "f",
    "x",
    "parse_register",
    "INT_ABI_NAMES",
    "FP_ABI_NAMES",
    "ACCESS_FORMATS",
    "OPCODE_TABLE",
    "ExecutionError",
    "Executor",
    "MachineState",
    "f32",
    "run",
    "compile_branch",
    "compile_load",
    "compile_operation",
    "compile_store",
]
