"""Tests for the functional executor (architectural reference model)."""

import math
import struct

import pytest
from hypothesis import given, strategies as st

from repro.accel import (
    AcceleratorConfig,
    AcceleratorProgram,
    ConfiguredNode,
    DataflowEngine,
    Operand,
    batch,
)
from repro.cpu import collect_trace
from repro.isa import (
    ExecutionError,
    Executor,
    Instruction,
    MachineState,
    Opcode,
    assemble,
    f,
    run,
    x,
)


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


def _fabric_program(instr, xlen: int) -> AcceleratorProgram:
    """A one-node, single-pass fabric program running ``instr`` on its
    register sources."""
    sources = [reg for reg in (instr.rs1, instr.rs2) if reg is not None]
    node = ConfiguredNode(0, instr, (0, 0),
                          *[Operand.from_register(reg) for reg in sources])
    return AcceleratorProgram(
        config=AcceleratorConfig(rows=2, cols=2, xlen=xlen), nodes=[node],
        loop_branch_id=None, live_in=set(sources))


INT32_MAX, INT32_MIN = (1 << 31) - 1, -(1 << 31)


class TestFcvtSaturation:
    """FCVT.W[U].S truncate toward zero and saturate; NaN converts to the
    largest value; the 32-bit result is sign-extended at RV64."""

    @pytest.mark.parametrize("xlen", [32, 64])
    @pytest.mark.parametrize("mnemonic", ["fcvt.w.s", "fcvt.wu.s"])
    @pytest.mark.parametrize("value, signed, unsigned", [
        (math.nan, INT32_MAX, -1),
        (math.inf, INT32_MAX, -1),
        (-math.inf, INT32_MIN, 0),
        (3e9, INT32_MAX, 3_000_000_000 - (1 << 32)),
        (-3e9, INT32_MIN, 0),
        (-1.5, -1, 0),
    ], ids=["nan", "+inf", "-inf", "+3e9", "-3e9", "-1.5"])
    def test_edge(self, value, signed, unsigned, mnemonic, xlen):
        expected = signed if mnemonic == "fcvt.w.s" else unsigned
        program = assemble(f"{mnemonic} a0, fa0")
        state = MachineState(pc=program.base_address, xlen=xlen)
        state.write(f(10), value)
        Executor(program, state).run()
        assert state.read(x(10)) == expected
        engine = DataflowEngine(_fabric_program(program.instructions[0], xlen))
        assert engine.plan.nodes[0].evaluate(value, 0) == expected


@pytest.mark.parametrize("text", ["ecall", "addw t0, t1, t2"])
def test_no_semantics_raises_one_error_everywhere(text):
    """An instruction without semantics at RV32 (a system op, an RV64 W-op)
    fails with the same message on every surface that executes it."""
    program = assemble(text)

    def fresh():
        return MachineState(pc=program.base_address)

    fabric = _fabric_program(program.instructions[0], 32)
    surfaces = [
        lambda: Executor(program, fresh()).step(),
        lambda: Executor(program, fresh()).run(),
        lambda: collect_trace(program, fresh()),
        lambda: DataflowEngine(fabric, compiled=False).run(fresh()),
    ]
    messages = []
    for call in surfaces:
        with pytest.raises(ExecutionError) as info:
            call()
        messages.append(str(info.value))
    assert len(set(messages)) == 1, messages
    assert text in messages[0]


def _float(bits: int) -> float:
    return struct.unpack("<f", bits.to_bytes(4, "little"))[0]


def _bits(value: float) -> int:
    return struct.unpack("<I", struct.pack("<f", value))[0]


#: (first, second) operand bit patterns: canonical vs payload NaNs, both
#: orders, a negative NaN, and a signaling pattern (quieted on the way in).
NAN_PAIRS = [(0x7FC00000, 0x7FC12345), (0x7FC12345, 0x7FC00000),
             (0xFFC00001, 0x7FA00001), (0x7FA00001, 0x7FC00000)]
NAN_OPS = {"fadd.s": Opcode.FADD_S, "fsub.s": Opcode.FSUB_S,
           "fmul.s": Opcode.FMUL_S, "fdiv.s": Opcode.FDIV_S}
#: Iterations of the loops below: past CPython's specialization warm-up
#: and wider than numpy's SIMD chunks within one batched block.
NAN_LANES = 320


def _nan_loop_program(opcode) -> AcceleratorProgram:
    """``mem[a0] = fa0 op fa1`` and ``fa3 = fa3 op fa1`` over a walking
    ``a0``: a two-NaN op on every lane, and a loop-carried NaN
    accumulator (a float32 scan for add/sub/mul, a cluster for div)."""
    base = 0x2000
    nodes = [
        ConfiguredNode(0, Instruction(base, Opcode.ADDI, rd=x(5), rs1=x(5),
                                      imm=-1),
                       (0, 0), src1=Operand.loop_carried(0, x(5))),
        ConfiguredNode(1, Instruction(base + 4, Opcode.ADDI, rd=x(10),
                                      rs1=x(10), imm=4),
                       (0, 1), src1=Operand.loop_carried(1, x(10))),
        ConfiguredNode(2, Instruction(base + 8, opcode, rd=f(0), rs1=f(10),
                                      rs2=f(11)),
                       (1, 0), src1=Operand.from_register(f(10)),
                       src2=Operand.from_register(f(11))),
        ConfiguredNode(3, Instruction(base + 12, Opcode.FSW, rs1=x(10),
                                      rs2=f(0)),
                       (1, -1), src1=Operand.node(1), src2=Operand.node(2),
                       is_memory=True),
        ConfiguredNode(4, Instruction(base + 16, opcode, rd=f(3), rs1=f(3),
                                      rs2=f(11)),
                       (1, 1), src1=Operand.loop_carried(4, f(3)),
                       src2=Operand.from_register(f(11))),
        ConfiguredNode(5, Instruction(base + 20, Opcode.BNE, rs1=x(5),
                                      rs2=x(0), imm=-20),
                       (2, 0), src1=Operand.node(0)),
    ]
    return AcceleratorProgram(
        config=AcceleratorConfig(rows=4, cols=4), nodes=nodes,
        loop_branch_id=5, live_in={x(5), x(10), f(10), f(11), f(3)},
        live_out={f(3): 4})


def _pin_on_every_path(mnemonic, a, b, expected, monkeypatch,
                       accumulates=True):
    """``mnemonic`` of ``(a, b)`` gives the binary32 word ``expected`` on
    every lane: on the CPU, in a plan node's ``evaluate``, and across a
    wide batched block and its interpreted reference.  With
    ``accumulates`` the loop-carried ``fa3 = fa3 op fa1`` (seeded with
    ``a``) ends at ``expected`` too; otherwise both fabric paths only end
    with the same ``fa3``."""
    program = assemble(
        f"""
        addi t0, zero, {NAN_LANES}
        lui a0, 16
        loop:
            {mnemonic} ft0, fa0, fa1
            fsw ft0, 0(a0)
            addi a0, a0, 4
            addi t0, t0, -1
            bne t0, zero, loop
        """
    )
    state = MachineState(pc=program.base_address)
    state.write(f(10), a)
    state.write(f(11), b)
    Executor(program, state).run()
    assert {state.memory.load(0x10000 + 4 * k, 4)
            for k in range(NAN_LANES)} == {expected}

    fabric = _nan_loop_program(Opcode(mnemonic))
    engine = DataflowEngine(fabric)
    evaluate = engine.plan.nodes[2].evaluate
    assert {_bits(evaluate(a, b)) for _ in range(NAN_LANES)} == {expected}

    monkeypatch.setattr(batch, "DEFAULT_BLOCK", 512)
    runs = []
    for compiled in (True, False):
        fabric_state = MachineState()
        fabric_state.write(x(5), NAN_LANES)
        fabric_state.write(x(10), 0x10000 - 4)
        fabric_state.write(f(10), a)
        fabric_state.write(f(11), b)
        fabric_state.write(f(3), a)
        runs.append(DataflowEngine(fabric, compiled=compiled)
                    .run(fabric_state))
    batched, interpreted = runs
    assert batched.drive_path == "batched", batched.drive_reason
    for run_ in runs:
        memory = run_.final_state.memory
        assert {memory.load(0x10000 + 4 * k, 4)
                for k in range(NAN_LANES)} == {expected}
    accumulated = {_bits(run_.final_state.read(f(3))) for run_ in runs}
    assert accumulated == ({expected} if accumulates else accumulated)
    assert len(accumulated) == 1


class TestTwoNanRule:
    """With two NaN operands the first one, quieted, wins — on the CPU, in
    a plan node's ``evaluate``, and across a wide batched block."""

    @pytest.mark.parametrize("pair", NAN_PAIRS,
                             ids=[f"{a:08x}-{b:08x}" for a, b in NAN_PAIRS])
    @pytest.mark.parametrize("mnemonic", sorted(NAN_OPS))
    def test_first_nan_wins_everywhere(self, mnemonic, pair, monkeypatch):
        first, second = pair
        _pin_on_every_path(mnemonic, _float(first), _float(second),
                           first | 0x00400000, monkeypatch)


#: (mnemonic, a, b, expected) binary32 words of RISC-V F edge cases:
#: NaN/±0 keeps the NaN dividend, x/-0 is -inf, sign injection reads the
#: sign bit (fabs.s of -0.0 is +0.0), fmin/fmax return the non-NaN operand
#: and order -0.0 below +0.0, and two NaNs give the canonical NaN.
FP_EDGES = [
    ("fdiv.s", 0x7FC12345, 0x00000000, 0x7FC12345),
    ("fdiv.s", 0xFFC00123, 0x80000000, 0xFFC00123),
    ("fdiv.s", 0x3F800000, 0x80000000, 0xFF800000),
    ("fsgnjx.s", 0x80000000, 0x80000000, 0x00000000),
    ("fsgnjx.s", 0x3F800000, 0x7FC00000, 0x3F800000),
    ("fmin.s", 0x7FC00000, 0x3F800000, 0x3F800000),
    ("fmax.s", 0x7FC00000, 0x3F800000, 0x3F800000),
    ("fmin.s", 0x00000000, 0x80000000, 0x80000000),
    ("fmax.s", 0x80000000, 0x00000000, 0x00000000),
    ("fmin.s", 0x7FC12345, 0xFFC00001, 0x7FC00000),
    ("fmax.s", 0x7FC12345, 0xFFC00001, 0x7FC00000),
]


class TestFpEdgeCases:
    @pytest.mark.parametrize(
        "mnemonic,a,b,expected", FP_EDGES,
        ids=[f"{m}-{a:08x}-{b:08x}" for m, a, b, _ in FP_EDGES])
    def test_edge_everywhere(self, mnemonic, a, b, expected, monkeypatch):
        _pin_on_every_path(mnemonic, _float(a), _float(b), expected,
                           monkeypatch, accumulates=False)


def _store_loop(source: Instruction, operand: Operand) -> AcceleratorProgram:
    """``mem[a0] = source`` over a walking ``a0`` (node 2 is ``source``)."""
    base = 0x2000
    nodes = [
        ConfiguredNode(0, Instruction(base, Opcode.ADDI, rd=x(5), rs1=x(5),
                                      imm=-1),
                       (0, 0), src1=Operand.loop_carried(0, x(5))),
        ConfiguredNode(1, Instruction(base + 4, Opcode.ADDI, rd=x(10),
                                      rs1=x(10), imm=4),
                       (0, 1), src1=Operand.loop_carried(1, x(10))),
        ConfiguredNode(2, source, (1, 0) if not source.is_load else (1, -1),
                       src1=operand, is_memory=source.is_load),
        ConfiguredNode(3, Instruction(base + 12, Opcode.FSW, rs1=x(10),
                                      rs2=f(0)),
                       (1, -1), src1=Operand.node(1), src2=Operand.node(2),
                       is_memory=True),
        ConfiguredNode(4, Instruction(base + 16, Opcode.BNE, rs1=x(5),
                                      rs2=x(0), imm=-16),
                       (2, 0), src1=Operand.node(0)),
    ]
    return AcceleratorProgram(
        config=AcceleratorConfig(rows=4, cols=4), nodes=nodes,
        loop_branch_id=4, live_in={x(5), x(10), x(11)}, live_out={})


@pytest.mark.parametrize("opcode", [Opcode.FMV_W_X, Opcode.FLW],
                         ids=["fmv.w.x", "flw"])
def test_signaling_nan_word_is_quieted_on_both_fabric_paths(opcode):
    # A binary32 register value is a widened float, so a signaling word
    # moved or loaded into one is quiet when stored again, in the
    # interpreter and in the batched lanes alike.
    word, quiet = 0x7F800001, 0x7FC00001
    source = Instruction(0x2008, opcode, rd=f(0), rs1=x(11))
    fabric = _store_loop(source, Operand.from_register(x(11)))
    for compiled in (True, False):
        state = MachineState()
        state.write(x(5), 8)
        state.write(x(10), 0x10000 - 4)
        state.write(x(11), 0x20000 if opcode is Opcode.FLW else word)
        state.memory.store(0x20000, 4, word)
        run_ = DataflowEngine(fabric, compiled=compiled).run(state)
        assert run_.drive_path == ("batched" if compiled
                                   else "interpreted"), run_.drive_reason
        assert {run_.final_state.memory.load(0x10000 + 4 * k, 4)
                for k in range(8)} == {quiet}
