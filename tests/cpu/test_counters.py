"""Tests for CPU performance counters."""

import pytest

from repro.cpu import OutOfOrderCore, PerfCounters, TraceEntry
from repro.isa import Instruction, OpClass, Opcode, x

from .test_trace_views import trace_of


def counted(*opcodes) -> PerfCounters:
    """The counters the core model folds for one instruction per opcode."""
    entries = []
    for seq, op in enumerate(opcodes):
        instr = Instruction(4 * seq, op, rd=x(1), rs1=x(2), rs2=x(3))
        address = 0x100 if instr.is_memory else None
        entries.append(TraceEntry(instr, address))
    return OutOfOrderCore().run(trace_of(entries)).counters


class TestClassification:
    def test_note_counts_instructions(self):
        counters = counted(Opcode.ADD, Opcode.MUL, Opcode.ADD)
        assert counters.instructions == 3
        assert list(counters.by_class.items()) == [(OpClass.INT_ALU, 2),
                                                   (OpClass.INT_MUL, 1)]

    def test_memory_properties(self):
        counters = counted(Opcode.LW, Opcode.LW, Opcode.SW)
        assert counters.loads == 2
        assert counters.stores == 1
        assert counters.memory_ops == 3

    def test_branch_properties(self):
        counters = counted(Opcode.BEQ, Opcode.JAL)
        assert counters.branches == 2

    def test_fp_and_compute(self):
        counters = counted(Opcode.FADD_S, Opcode.FMUL_S, Opcode.ADD,
                           Opcode.LW)
        assert counters.fp_ops == 2
        assert counters.count(OpClass.INT_ALU) == 1

    def test_ipc(self):
        counters = counted(Opcode.ADD, Opcode.ADD)
        assert counters.ipc > 0
        counters.cycles = 4
        assert counters.ipc == pytest.approx(0.5)
        assert PerfCounters().ipc == 0.0

    def test_count_helper(self):
        counters = counted(Opcode.LW, Opcode.SW, Opcode.ADD)
        assert counters.count(OpClass.LOAD, OpClass.STORE) == 2
