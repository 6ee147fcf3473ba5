"""Tests for the functional executor (architectural reference model)."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.isa import ExecutionError, Executor, MachineState, assemble, f, run, x


def _run(text: str, setup=None, max_steps: int = 100_000) -> MachineState:
    prog = assemble(text)
    state = MachineState(pc=prog.base_address)
    if setup:
        setup(state)
    return run(prog, state, max_steps=max_steps)


class TestIntegerOps:
    def test_addi_chain(self):
        state = _run("addi t0, zero, 5\naddi t0, t0, 7")
        assert state.read(x(5)) == 12

    def test_sub_negative_result(self):
        state = _run("addi a0, zero, 3\naddi a1, zero, 10\nsub a2, a0, a1")
        assert state.read(x(12)) == -7

    def test_logical_ops(self):
        state = _run(
            """
            addi a0, zero, 0b1100
            addi a1, zero, 0b1010
            and t0, a0, a1
            or  t1, a0, a1
            xor t2, a0, a1
            """
        )
        assert state.read(x(5)) == 0b1000
        assert state.read(x(6)) == 0b1110
        assert state.read(x(7)) == 0b0110

    def test_shifts(self):
        state = _run(
            """
            addi a0, zero, -8
            slli t0, a0, 2
            srai t1, a0, 1
            srli t2, a0, 28
            """
        )
        assert state.read(x(5)) == -32
        assert state.read(x(6)) == -4
        assert state.read(x(7)) == 0xF

    def test_slt_family(self):
        state = _run(
            """
            addi a0, zero, -1
            addi a1, zero, 1
            slt  t0, a0, a1
            sltu t1, a0, a1   # -1 unsigned is huge
            """
        )
        assert state.read(x(5)) == 1
        assert state.read(x(6)) == 0

    def test_mul_div_rem(self):
        state = _run(
            """
            addi a0, zero, -7
            addi a1, zero, 2
            mul t0, a0, a1
            div t1, a0, a1
            rem t2, a0, a1
            """
        )
        assert state.read(x(5)) == -14
        assert state.read(x(6)) == -3, "RISC-V division truncates toward zero"
        assert state.read(x(7)) == -1

    def test_div_by_zero_returns_minus_one(self):
        state = _run("addi a0, zero, 9\ndiv t0, a0, zero\nrem t1, a0, zero")
        assert state.read(x(5)) == -1
        assert state.read(x(6)) == 9

    def test_x0_writes_discarded(self):
        state = _run("addi zero, zero, 42")
        assert state.read(x(0)) == 0

    def test_lui(self):
        state = _run("lui a0, 5")
        assert state.read(x(10)) == 5 << 12

    def test_32bit_overflow_wraps(self):
        state = _run(
            """
            lui a0, 0x7ffff
            addi a0, a0, 2047
            addi a0, a0, 2047
            addi a0, a0, 2047
            """
        )
        value = state.read(x(10))
        assert -(1 << 31) <= value < (1 << 31)


class TestMemoryOps:
    def test_store_load_round_trip(self):
        state = _run(
            """
            addi a0, zero, 0x100
            addi t0, zero, 1234
            sw t0, 0(a0)
            lw t1, 0(a0)
            """
        )
        assert state.read(x(6)) == 1234

    def test_byte_and_half_sign_extension(self):
        state = _run(
            """
            addi a0, zero, 0x200
            addi t0, zero, -1
            sb t0, 0(a0)
            lb t1, 0(a0)
            lbu t2, 0(a0)
            sh t0, 4(a0)
            lh t3, 4(a0)
            lhu t4, 4(a0)
            """
        )
        assert state.read(x(6)) == -1
        assert state.read(x(7)) == 0xFF
        assert state.read(x(28)) == -1
        assert state.read(x(29)) == 0xFFFF

    def test_fp_store_load_round_trip(self):
        def setup(state):
            state.write(f(0), 3.25)
            state.write(x(10), 0x400)

        state = _run("fsw ft0, 0(a0)\nflw fa0, 0(a0)", setup=setup)
        assert state.read(f(10)) == 3.25


class TestFloatOps:
    def test_fp_arith(self):
        def setup(state):
            state.write(f(10), 6.0)
            state.write(f(11), 1.5)

        state = _run(
            """
            fadd.s ft0, fa0, fa1
            fsub.s ft1, fa0, fa1
            fmul.s ft2, fa0, fa1
            fdiv.s ft3, fa0, fa1
            """,
            setup=setup,
        )
        assert state.read(f(0)) == 7.5
        assert state.read(f(1)) == 4.5
        assert state.read(f(2)) == 9.0
        assert state.read(f(3)) == 4.0

    def test_fsqrt(self):
        state = _run("fsqrt.s fa1, fa0", setup=lambda s: s.write(f(10), 16.0))
        assert state.read(f(11)) == 4.0

    def test_fp_compare_writes_int(self):
        def setup(state):
            state.write(f(0), 1.0)
            state.write(f(1), 2.0)

        state = _run("flt.s t0, ft0, ft1\nfle.s t1, ft1, ft0", setup=setup)
        assert state.read(x(5)) == 1
        assert state.read(x(6)) == 0

    def test_fcvt(self):
        state = _run(
            "addi a0, zero, 7\nfcvt.s.w fa0, a0\nfcvt.w.s a1, fa0",
            setup=None,
        )
        assert state.read(f(10)) == 7.0
        assert state.read(x(11)) == 7

    def test_single_precision_rounding(self):
        def setup(state):
            state.write(f(0), 0.1)

        state = _run("fadd.s ft1, ft0, ft0", setup=setup)
        # 0.1 is not representable in binary32; result must be the f32 value.
        import struct
        expected = struct.unpack("<f", struct.pack("<f", 0.1))[0] * 2
        expected = struct.unpack("<f", struct.pack("<f", expected))[0]
        assert state.read(f(1)) == expected


class TestControlFlow:
    def test_countdown_loop(self):
        state = _run(
            """
            addi t0, zero, 10
            addi t1, zero, 0
            loop:
                addi t1, t1, 3
                addi t0, t0, -1
                bne t0, zero, loop
            """
        )
        assert state.read(x(5)) == 0
        assert state.read(x(6)) == 30

    def test_forward_branch_skips(self):
        state = _run(
            """
            addi a0, zero, 1
            beq a0, a0, skip
            addi a1, zero, 99
            skip:
                addi a2, zero, 7
            """
        )
        assert state.read(x(11)) == 0
        assert state.read(x(12)) == 7

    def test_jal_links_return_address(self):
        prog = assemble("jal ra, target\nnop\ntarget:\nnop")
        state = run(prog, MachineState(pc=prog.base_address))
        assert state.read(x(1)) == prog.base_address + 4

    def test_runaway_loop_detected(self):
        with pytest.raises(ExecutionError):
            _run("loop:\nj loop", max_steps=100)

    def test_ecall_raises(self):
        with pytest.raises(ExecutionError):
            _run("ecall")

    def test_run_counts_dynamic_stream(self):
        prog = assemble(
            """
            addi t0, zero, 3
            loop:
                addi t0, t0, -1
                bne t0, zero, loop
            """
        )
        executor = Executor(prog)
        # 1 init + 3 iterations x 2 instructions
        assert executor.run() == 7
        assert executor.instret == 7


class TestProperties:
    @given(a=st.integers(-(1 << 31), (1 << 31) - 1),
           b=st.integers(-(1 << 31), (1 << 31) - 1))
    def test_add_matches_wrapped_python(self, a, b):
        def setup(state):
            state.write(x(10), a)
            state.write(x(11), b)

        state = _run("add a2, a0, a1", setup=setup)
        expected = (a + b + (1 << 31)) % (1 << 32) - (1 << 31)
        assert state.read(x(12)) == expected

    @given(a=st.integers(-(1 << 31), (1 << 31) - 1),
           b=st.integers(-(1 << 31), (1 << 31) - 1).filter(lambda v: v != 0))
    def test_div_rem_invariant(self, a, b):
        """RISC-V guarantees a == div(a,b)*b + rem(a,b) (mod 2^32)."""
        def setup(state):
            state.write(x(10), a)
            state.write(x(11), b)

        state = _run("div t0, a0, a1\nrem t1, a0, a1", setup=setup)
        q, r = state.read(x(5)), state.read(x(6))
        assert (q * b + r - a) % (1 << 32) == 0

    @given(v=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                       width=32))
    def test_fp_add_sub_inverse(self, v):
        def setup(state):
            state.write(f(0), v)
            state.write(f(1), 1.0)

        state = _run("fadd.s ft2, ft0, ft1\nfsub.s ft3, ft2, ft1", setup=setup)
        result = state.read(f(3))
        assert result == pytest.approx(v, abs=1e-1) or math.isclose(result, v, rel_tol=1e-5)
