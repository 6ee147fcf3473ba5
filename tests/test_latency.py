"""Tests for the shared operation-latency table."""

import pytest

from repro.isa import Instruction, OpClass, Opcode, x
from repro.latency import DEFAULT_LATENCIES, LatencyTable


class TestLatencyTable:
    def test_figure2_constants(self):
        """The defaults match the paper's worked example: add 3, mul 5 (FP)."""
        assert DEFAULT_LATENCIES.fp_add == 3
        assert DEFAULT_LATENCIES.fp_mul == 5

    def test_for_class(self):
        assert DEFAULT_LATENCIES.for_class(OpClass.INT_ALU) == 1
        assert DEFAULT_LATENCIES.for_class(OpClass.FP_SQRT) == 20

    def test_memory_has_no_constant(self):
        with pytest.raises(KeyError):
            DEFAULT_LATENCIES.for_class(OpClass.LOAD)
        with pytest.raises(KeyError):
            DEFAULT_LATENCIES.for_class(OpClass.STORE)

    def test_system_has_no_constant(self):
        with pytest.raises(KeyError):
            DEFAULT_LATENCIES.for_class(OpClass.SYSTEM)

    def test_for_instruction(self):
        instr = Instruction(0, Opcode.FMUL_S, rd=x(1), rs1=x(2), rs2=x(3))
        assert DEFAULT_LATENCIES.for_instruction(instr) == 5

    def test_every_non_memory_class_covered(self):
        for cls in OpClass:
            if cls.is_memory or cls is OpClass.SYSTEM:
                continue
            assert DEFAULT_LATENCIES.for_class(cls) >= 1

    @pytest.mark.parametrize("field", ["int_alu", "fp_sqrt", "store_issue"])
    def test_latency_below_one_cycle_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} latency must be >= 1"):
            LatencyTable(**{field: 0})

    def test_custom_table(self):
        table = LatencyTable(fp_mul=7)
        assert table.for_class(OpClass.FP_MUL) == 7
        assert table.for_class(OpClass.FP_ADD) == 3, "others keep defaults"

    def test_frozen(self):
        with pytest.raises(AttributeError):
            DEFAULT_LATENCIES.fp_mul = 9
