"""RISC-V ISA substrate: registers, instructions, assembler, codec, semantics.

This package provides the machine-code layer that both the CPU model and the
MESA controller consume.  The most commonly used entry points are:

* :func:`assemble` — turn RISC-V assembly text into a :class:`Program`;
* :class:`Instruction` / :class:`Opcode` / :class:`OpClass` — the decoded form;
* :func:`encode` / :func:`decode` — 32-bit machine-word codec;
* :class:`Executor` — the architectural (functional) reference model;
* :func:`compile_operation` / :func:`compile_branch` — the one mapping from
  opcode to semantics, shared by the executor and the accelerator.
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
    ExecutionError,
    Executor,
    MachineState,
    compile_branch,
    compile_operation,
    f32,
    load_value,
    run,
    store_value,
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
    "ExecutionError",
    "Executor",
    "MachineState",
    "f32",
    "load_value",
    "store_value",
    "run",
    "compile_branch",
    "compile_operation",
]
