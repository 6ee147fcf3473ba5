"""Tests for the RV64I subset (the paper's second supported ISA variant)."""

import pytest
from hypothesis import given, strategies as st

from repro.isa import (
    ExecutionError,
    Instruction,
    MachineState,
    Opcode,
    assemble,
    compile_operation,
    decode,
    encode,
    run,
    x,
)


def run64(text: str, setup=None) -> MachineState:
    program = assemble(text)
    state = MachineState(pc=program.base_address, xlen=64)
    if setup:
        setup(state)
    return run(program, state)


class TestMachineStateWidth:
    def test_xlen_validation(self):
        with pytest.raises(ValueError):
            MachineState(xlen=16)

    def test_rv64_holds_64bit_values(self):
        state = MachineState(xlen=64)
        state.write(x(5), 1 << 40)
        assert state.read(x(5)) == 1 << 40

    def test_rv32_wraps_to_32_bits(self):
        state = MachineState(xlen=32)
        state.write(x(5), 1 << 40)
        assert state.read(x(5)) == 0


class TestRv64Arithmetic:
    def test_64bit_add_no_wrap(self):
        state = run64(
            """
            lui t0, 0x80000
            slli t0, t0, 8
            add t1, t0, t0
            """
        )
        assert state.read(x(6)) != 0, "64-bit add must not wrap at 2^32"

    def test_addiw_sign_extends(self):
        def setup(state):
            state.write(x(10), 0x7FFFFFFF)

        state = run64("addiw t0, a0, 1", setup=setup)
        assert state.read(x(5)) == -(1 << 31), (
            "W-form wraps at 32 bits and sign-extends")

    def test_addw_subw(self):
        def setup(state):
            state.write(x(10), 10)
            state.write(x(11), 3)

        state = run64("addw t0, a0, a1\nsubw t1, a0, a1", setup=setup)
        assert state.read(x(5)) == 13
        assert state.read(x(6)) == 7

    def test_sraw_on_negative(self):
        def setup(state):
            state.write(x(10), -64)

        state = run64("sraiw t0, a0, 3", setup=setup)
        assert state.read(x(5)) == -8

    def test_srlw_zero_extends_32(self):
        def setup(state):
            state.write(x(10), -1)  # all ones

        state = run64("srliw t0, a0, 4", setup=setup)
        assert state.read(x(5)) == 0x0FFFFFFF

    def test_64bit_shift_amount(self):
        def setup(state):
            state.write(x(10), 1)

        state = run64("slli t0, a0, 40", setup=setup)
        assert state.read(x(5)) == 1 << 40


class TestRv64Memory:
    def test_ld_sd_round_trip(self):
        def setup(state):
            state.write(x(10), 0x100)
            state.write(x(5), (1 << 50) + 99)

        state = run64("sd t0, 0(a0)\nld t1, 0(a0)", setup=setup)
        assert state.read(x(6)) == (1 << 50) + 99

    def test_lwu_zero_extends(self):
        def setup(state):
            state.write(x(10), 0x100)
            state.memory.store(0x100, 4, 0xFFFFFFFF)

        state = run64("lwu t0, 0(a0)\nlw t1, 0(a0)", setup=setup)
        assert state.read(x(5)) == 0xFFFFFFFF
        assert state.read(x(6)) == -1

    def test_rv64_op_on_rv32_state_raises(self):
        program = assemble("ld t0, 0(a0)")
        with pytest.raises(ExecutionError, match="RV64I"):
            run(program, MachineState(pc=program.base_address, xlen=32))

    def test_w_op_on_rv32_state_raises(self):
        program = assemble("addw t0, t1, t2")
        with pytest.raises(ExecutionError, match="RV64I"):
            run(program, MachineState(pc=program.base_address, xlen=32))


class TestRv64Encoding:
    @pytest.mark.parametrize("op", [Opcode.ADDW, Opcode.SUBW, Opcode.SLLW,
                                    Opcode.SRLW, Opcode.SRAW])
    def test_w_rtype_round_trip(self, op):
        instr = Instruction(0, op, rd=x(1), rs1=x(2), rs2=x(3))
        decoded = decode(encode(instr))
        assert decoded.opcode is op
        assert decoded.rd == x(1)

    def test_ld_sd_round_trip(self):
        load = Instruction(0, Opcode.LD, rd=x(5), rs1=x(10), imm=-16)
        store = Instruction(0, Opcode.SD, rs1=x(10), rs2=x(5), imm=24)
        assert decode(encode(load)).opcode is Opcode.LD
        assert decode(encode(load)).imm == -16
        assert decode(encode(store)).opcode is Opcode.SD
        assert decode(encode(store)).imm == 24

    @given(imm=st.integers(-2048, 2047))
    def test_addiw_round_trip(self, imm):
        instr = Instruction(0, Opcode.ADDIW, rd=x(1), rs1=x(2), imm=imm)
        decoded = decode(encode(instr))
        assert decoded.opcode is Opcode.ADDIW
        assert decoded.imm == imm

    @pytest.mark.parametrize("op", [Opcode.SLLIW, Opcode.SRLIW, Opcode.SRAIW])
    def test_w_shift_round_trip(self, op):
        instr = Instruction(0, op, rd=x(1), rs1=x(2), imm=17)
        decoded = decode(encode(instr))
        assert decoded.opcode is op
        assert decoded.imm == 17


class TestRv64ApplyOperation:
    def test_w_op_pure(self):
        instr = Instruction(0, Opcode.ADDW, rd=x(1), rs1=x(2), rs2=x(3))
        assert compile_operation(instr, xlen=64)(0x7FFFFFFF, 1) == -(1 << 31)

    def test_64bit_add_pure(self):
        instr = Instruction(0, Opcode.ADD, rd=x(1), rs1=x(2), rs2=x(3))
        assert compile_operation(instr, xlen=64)(1 << 40, 1) == (1 << 40) + 1

    def test_32bit_add_wraps(self):
        instr = Instruction(0, Opcode.ADD, rd=x(1), rs1=x(2), rs2=x(3))
        assert compile_operation(instr, xlen=32)(0x7FFFFFFF, 1) == -(1 << 31)


class TestC2WidthCheck:
    def test_rv64_loop_rejected_on_32bit_backend(self):
        from repro.accel import AcceleratorConfig
        from repro.core import CodeRegionDetector
        from repro.cpu import collect_trace

        program = assemble(
            """
            addi t0, zero, 100
            loop:
                addw t1, t1, t0
                addi t0, t0, -1
                bne t0, zero, loop
            """
        )
        trace = collect_trace(program,
                              MachineState(pc=program.base_address, xlen=64))
        config32 = AcceleratorConfig(rows=8, cols=8, xlen=32)
        decisions = CodeRegionDetector(config32).detect(trace, program)
        assert decisions and not decisions[0].c2_control
        assert any("64-bit operation" in r for r in decisions[0].reasons)

        config64 = AcceleratorConfig(rows=8, cols=8, xlen=64)
        decisions = CodeRegionDetector(config64).detect(trace, program)
        assert decisions and decisions[0].c2_control
