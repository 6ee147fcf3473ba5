"""The opcode table: one row per opcode, scalar and lane form in one place.

Every opcode with compute or branch semantics has one row in
:data:`repro.isa.OPCODE_TABLE`.  The scalar form is what the CPU executor
and the fabric interpreter compute; the lane form is what the batched
fabric path computes over numpy lanes.  This file holds the two forms of
every row to the same bits at xlen 32 — on edge operands and on random
32-bit words read both as integers and as binary32 — and pins the rows
that have no lane form, with their reasons.  It holds the inline operators
of the recurrence clusters' fast binding to the same scalar forms wherever
their re-run trigger stays quiet.
"""

from __future__ import annotations

import itertools
import os
import struct

import numpy as np
import pytest

from repro.isa import (
    OPCODE_CLASS,
    OPCODE_TABLE,
    ExecutionError,
    Instruction,
    OpClass,
    Opcode,
    compile_branch,
    compile_operation,
    f,
    x,
)
from repro.accel.batch import _FAST_OPS, _RERUN
from repro.isa.semantics import FORM_VALUES, compile_lanes

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

#: Nightly CI exports REPRO_FUZZ_SCALE to multiply every example budget.
FUZZ_SCALE = int(os.environ.get("REPRO_FUZZ_SCALE", "1"))

INT_MIN, INT_MAX = -(1 << 31), (1 << 31) - 1


def _signed(word: int) -> int:
    return word - (1 << 32) if word & 0x80000000 else word


def _float(word: int) -> float:
    """A binary32 word as the register value the executor holds."""
    return struct.unpack("<f", struct.pack("<I", word))[0]


def _bits(value: float) -> int:
    return struct.unpack("<I", struct.pack("<f", value))[0]


#: Integer operands: INT_MIN with -1, shift amounts 31/32/33/63/-1, and
#: binary32 NaN / infinity patterns as words (for fmv.w.x).
INT_EDGES = (0, 1, -1, 2, 3, 7, -7, 31, 32, 33, 63, INT_MIN, INT_MAX,
             INT_MIN + 1, 0x12345678, _signed(0x7FC00001),
             _signed(0xFFC00123), _signed(0x7F800001), _signed(0xFF800000))

#: Float operands, as binary32 words: NaN payloads (a signaling pattern is
#: quieted on the way into a register), ±0, ±inf, subnormals, FLT_MAX,
#: ±3e9, and ordinary values.
FLOAT_EDGES = tuple(_float(word) for word in (
    0x7FC00001, 0xFFC00123, 0x7FC00000, 0x7F800001, 0x00000000, 0x80000000,
    0x7F800000, 0xFF800000, 0x00000001, 0x807FFFFF, 0x7F7FFFFF, 0xFF7FFFFF,
    0x3F800000, 0xBF800000, 0x3FC00000, 0xC0200000)) + (3e9, -3e9)

#: Immediates of the "int_imm" and "const" rows.
IMM_EDGES = (0, 1, -1, 4, 31, 32, 33, 63, -2048, 2047)

#: Lane-less rows and their reasons.
LANELESS = {
    **dict.fromkeys((Opcode.MULHU, Opcode.DIV, Opcode.DIVU, Opcode.REM,
                     Opcode.REMU),
                    "no exact int64 lane form"),
    **dict.fromkeys((Opcode.ADDW, Opcode.SUBW, Opcode.SLLW, Opcode.SRLW,
                     Opcode.SRAW, Opcode.ADDIW, Opcode.SLLIW, Opcode.SRLIW,
                     Opcode.SRAIW), "xlen 64"),
    **dict.fromkeys((Opcode.FCVT_W_S, Opcode.FCVT_WU_S),
                    "saturating conversion"),
}

LANED = sorted((op for op, row in OPCODE_TABLE.items()
                if row.lane is not None), key=lambda op: op.value)


def test_every_compute_and_branch_opcode_has_one_row():
    expected = {op for op, cls in OPCODE_CLASS.items()
                if cls.is_compute or cls is OpClass.BRANCH}
    assert set(OPCODE_TABLE) == expected
    for row in OPCODE_TABLE.values():
        assert row.form in FORM_VALUES


def test_laneless_rows_carry_their_reason():
    laneless = {op: row.reason for op, row in OPCODE_TABLE.items()
                if row.lane is None}
    assert laneless == LANELESS
    assert all(not row.reason for row in OPCODE_TABLE.values()
               if row.lane is not None)


def test_laneless_row_raises_its_reason():
    instr = Instruction(0x1000, Opcode.DIV, rd=x(5), rs1=x(6), rs2=x(7))
    reason = "^no lane form for div: no exact int64 lane form$"
    with pytest.raises(ExecutionError, match=reason):
        compile_lanes(instr)


def _instruction(op: Opcode, imm: int = 0, address: int = 0x1000):
    """``op`` with registers in the files its form reads and writes."""
    rd, rs1, rs2 = (None if code is None else (x if code == "i" else f)(n)
                    for code, n in zip(FORM_VALUES[OPCODE_TABLE[op].form],
                                       (5, 6, 7)))
    if OPCODE_TABLE[op].form == "branch":
        rd = None
    return Instruction(address, op, rd=rd, rs1=rs1, rs2=rs2, imm=imm)


def _operands(code, ints, floats):
    """(register values, lanes) for one operand of value code ``code``."""
    if code == "f":
        return list(floats), np.array(floats, np.float32)
    values = list(ints) if code == "i" else [0] * len(ints)
    return values, np.array(values, np.int64)


def _assert_row_agrees(op: Opcode, ints_a, ints_b, floats_a, floats_b,
                       imms=(0,)):
    """The scalar and lane forms of ``op`` agree bit for bit at xlen 32 on
    every lane (the int and float operand lists are zipped lane-wise)."""
    result, code1, code2 = FORM_VALUES[OPCODE_TABLE[op].form]
    a, a_lanes = _operands(code1, ints_a, floats_a)
    b, b_lanes = _operands(code2, ints_b, floats_b)
    for imm in imms:
        instr = _instruction(op, imm)
        scalar = (compile_branch(instr, 32) if instr.is_branch
                  else compile_operation(instr, 32))
        with np.errstate(all="ignore"):
            lanes = compile_lanes(instr)[0](a_lanes, b_lanes)
        expected = [scalar(p, q) for p, q in zip(a, b)]
        assert lanes.shape == a_lanes.shape
        if result == "f":
            assert lanes.dtype == np.float32
            got = lanes.view(np.uint32).tolist()
            expected = [_bits(value) for value in expected]
        else:
            got = lanes.astype(np.int64).tolist()
            expected = [int(value) for value in expected]
        mismatches = [(p, q, e, g) for p, q, e, g
                      in zip(a, b, expected, got) if e != g]
        assert not mismatches, (op, imm, mismatches[:5])


@pytest.mark.parametrize("op", LANED, ids=lambda op: op.value)
def test_lane_form_equals_scalar_form_on_edges(op):
    ints = list(itertools.product(INT_EDGES, repeat=2))
    floats = list(itertools.product(FLOAT_EDGES, repeat=2))
    lanes = max(len(ints), len(floats))
    ints = (ints * lanes)[:lanes]
    floats = (floats * lanes)[:lanes]
    form = OPCODE_TABLE[op].form
    imms = IMM_EDGES if form in ("int_imm", "const") else (0,)
    _assert_row_agrees(op, [p for p, _ in ints], [q for _, q in ints],
                       [p for p, _ in floats], [q for _, q in floats],
                       imms)


_words = st.lists(st.integers(0, (1 << 32) - 1), min_size=2, max_size=64)


@settings(max_examples=50 * FUZZ_SCALE, deadline=None)
@given(words=_words, imm=st.integers(-2048, 2047))
def test_lane_form_equals_scalar_form_on_random_words(words, imm):
    # Each word is read both as a signed integer and as binary32; operand
    # b is operand a's list rotated by one lane.
    ints = [_signed(word) for word in words]
    floats = [_float(word) for word in words]
    for op in LANED:
        _assert_row_agrees(op, ints, ints[1:] + ints[:1],
                           floats, floats[1:] + floats[:1], (imm,))


# -- the fast binding of recurrence clusters -------------------------------------

FAST = sorted(_FAST_OPS, key=lambda op: op.value)


def _assert_fast_form_agrees(op: Opcode, ints_a, ints_b, floats_a, floats_b,
                             imms=(0,)):
    """Wherever its re-run trigger stays quiet, ``op``'s inline operator
    equals the row's scalar form on canonical operands (Python ints,
    ``np.float32`` scalars): the bits the cluster keeps from a block."""
    kind, expr, trigger = _FAST_OPS[op]
    form = OPCODE_TABLE[op].form
    assert kind == FORM_VALUES[form][1]
    inline = eval(f"lambda a, b: {expr.format(a='a', b='b')}")
    if kind == "f":
        pairs = [(np.float32(p), np.float32(q))
                 for p, q in zip(floats_a, floats_b)]
    else:
        pairs = list(zip(ints_a, ints_b))
    mismatches = []
    for imm in imms:
        instr = _instruction(op, imm)
        scalar = (compile_branch(instr, 32) if instr.is_branch
                  else compile_operation(instr, 32))
        for a, b in pairs:
            expected = scalar(a, b)
            with np.errstate(all="ignore"):
                got = inline(a, imm if form == "int_imm" else b)
            if kind == "f":
                assert type(got) is np.float32
                column = np.array([got], np.float32)
                got, expected = _bits(got), _bits(expected)
            else:
                column = np.array([got], np.int64)
                got, expected = int(got), int(expected)
            if trigger and _RERUN[trigger](column):
                continue  # the cluster re-runs on its closures
            if got != expected:
                mismatches.append((a, b, imm, expected, got))
    assert not mismatches, (op, mismatches[:5])


@pytest.mark.parametrize("op", FAST, ids=lambda op: op.value)
def test_fast_form_equals_scalar_form_on_edges(op):
    ints = list(itertools.product(INT_EDGES, repeat=2))
    floats = list(itertools.product(FLOAT_EDGES, repeat=2))
    imms = IMM_EDGES if OPCODE_TABLE[op].form == "int_imm" else (0,)
    _assert_fast_form_agrees(op, [p for p, _ in ints], [q for _, q in ints],
                             [p for p, _ in floats], [q for _, q in floats],
                             imms)


@settings(max_examples=50 * FUZZ_SCALE, deadline=None)
@given(words=_words, imm=st.integers(-2048, 2047))
def test_fast_form_equals_scalar_form_on_random_words(words, imm):
    ints = [_signed(word) for word in words]
    floats = [_float(word) for word in words]
    for op in FAST:
        _assert_fast_form_agrees(op, ints, ints[1:] + ints[:1],
                                 floats, floats[1:] + floats[:1], (imm,))


def test_fast_triggers_fire_where_the_forms_differ():
    # A NaN sum and a sum past signed 32 bits are exactly the cases the
    # inline operators get wrong, so both must trip their trigger.
    nan = np.float32(_float(0x7FC00001)) + np.float32(1.0)
    assert _RERUN["nan"](np.array([nan], np.float32))
    assert _RERUN["wrap"](np.array([INT_MAX + 1], np.int64))
    assert _RERUN["wrap"](np.array([INT_MIN - 1], np.int64))
    assert not _RERUN["wrap"](np.array([INT_MIN, INT_MAX], np.int64))
