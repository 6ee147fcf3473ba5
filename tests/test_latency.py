"""Tests for the shared operation-latency table."""

import pytest

from repro.isa import Instruction, OpClass, Opcode, x
from repro.latency import OP_LATENCY, STORE_ISSUE


class TestLatencyTable:
    def test_figure2_constants(self):
        """The table matches the paper's worked example: add 3, mul 5 (FP)."""
        assert OP_LATENCY[OpClass.FP_ADD] == 3
        assert OP_LATENCY[OpClass.FP_MUL] == 5

    def test_for_class(self):
        assert OP_LATENCY[OpClass.INT_ALU] == 1
        assert OP_LATENCY[OpClass.FP_SQRT] == 20

    def test_memory_has_no_constant(self):
        with pytest.raises(KeyError):
            OP_LATENCY[OpClass.LOAD]
        with pytest.raises(KeyError):
            OP_LATENCY[OpClass.STORE]

    def test_system_has_no_constant(self):
        with pytest.raises(KeyError):
            OP_LATENCY[OpClass.SYSTEM]

    def test_for_instruction(self):
        instr = Instruction(0, Opcode.FMUL_S, rd=x(1), rs1=x(2), rs2=x(3))
        assert OP_LATENCY[instr.op_class] == 5

    def test_every_non_memory_class_covered(self):
        assert set(OP_LATENCY) == {
            cls for cls in OpClass
            if not cls.is_memory and cls is not OpClass.SYSTEM}

    @pytest.mark.parametrize("field", ["int_alu", "fp_sqrt", "store_issue"])
    def test_latency_below_one_cycle_rejected(self, field):
        # The constants admit no latency below one cycle, the store
        # hand-off included.
        latency = (STORE_ISSUE if field == "store_issue"
                   else OP_LATENCY[OpClass[field.upper()]])
        assert latency >= 1, f"{field} latency must be >= 1"

    def test_every_latency_is_at_least_one_cycle(self):
        # A result takes at least one cycle: the batched drive's timing
        # relies on it (repro.accel.batch).  The store hand-off's own check
        # sits with the port-carry tests (test_batch_equivalence).
        assert min(OP_LATENCY.values()) >= 1

    def test_frozen(self):
        with pytest.raises(TypeError):
            OP_LATENCY[OpClass.FP_MUL] = 9
