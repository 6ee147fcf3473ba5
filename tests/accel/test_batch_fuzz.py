"""Property-based fuzzing of the batched engine path.

Hypothesis generates random single-loop accelerator programs — random
compute DAGs over int and float producers, optional loads and stores off a
walking address (stores may alias later loads, exercising first-hazard
block truncation), stores addressed by a loaded value masked into a small
window, loads that follow an overlapping store in the same iteration
(in-iteration forwarding, stepped on the interpreter), optional
predication with loop-carried fallbacks, loop-carried reads of any node
(itself and later nodes included, so int, FP and guarded recurrence
clusters appear), and random live-in register values including NaN and
infinity payloads.  The property under test is the
batched path's whole contract in one line: **whatever the capability
analysis decides**, a default engine run is bit-identical to the
interpreter — cycles, counters, registers, memory, and the memory model's
caches, AMAT counters and ports.

This seeds the ROADMAP's random-kernel fuzzing item.
"""

from __future__ import annotations

import os
import struct

import pytest

from repro.accel import (
    AcceleratorConfig,
    AcceleratorProgram,
    ConfiguredNode,
    DataflowEngine,
    Guard,
    Operand,
    batch,
)
from repro.isa import Instruction, MachineState, Opcode, f, x
from repro.mem import Memory

from .test_batch_equivalence import assert_reran, record_clusters
from .test_plan_equivalence import memory_fingerprint, run_fingerprint

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

#: Nightly CI exports REPRO_FUZZ_SCALE to multiply every example budget
#: (10x on the scheduled run); the default keeps local runs fast.
FUZZ_SCALE = int(os.environ.get("REPRO_FUZZ_SCALE", "1"))

CFG = AcceleratorConfig(rows=16, cols=8)
LOAD_BASE = 0x1000

INT_OPS = (Opcode.ADD, Opcode.SUB, Opcode.SLL, Opcode.SLT, Opcode.SLTU,
           Opcode.XOR, Opcode.SRL, Opcode.SRA, Opcode.OR, Opcode.AND,
           Opcode.MUL)
FP_OPS = (Opcode.FADD_S, Opcode.FSUB_S, Opcode.FMUL_S, Opcode.FDIV_S,
          Opcode.FMIN_S, Opcode.FMAX_S, Opcode.FSGNJ_S)
FP_CMP_OPS = (Opcode.FEQ_S, Opcode.FLT_S, Opcode.FLE_S)
GUARD_OPS = (Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE, Opcode.BLTU)

#: Float32 bit patterns the register/memory pools draw from: ordinary
#: values, signed zeros, infinities, and payloaded quiet/"signaling" NaNs.
FLOAT_BITS = (0x00000000, 0x80000000, 0x3F800000, 0xBF000000, 0x42F6E979,
              0x7F800000, 0xFF800000, 0x7FC00000, 0x7FC00001, 0x7FA00001,
              0xFFC01234, 0x00000001, 0x7F7FFFFF)


def _bits_to_float(bits: int) -> float:
    return struct.unpack("<f", bits.to_bytes(4, "little"))[0]


@st.composite
def programs(draw):
    """A random single-loop program plus a matching initial state.

    Node 0 is always the countdown (ADDI -1 self-reduction), node 1 the
    address walker (ADDI 4 self-reduction); the last node is the loop
    branch.  In between sit 1–5 random compute nodes, at most one load
    and one store, plus, after the store, at most one load that may
    overlap it in the same iteration.  The store walks with node 1 or,
    when there is a load, may take its address from the loaded value
    masked into an 8-word window the walking load also reads.  Wiring
    keeps int consumers on int producers (so both engine paths perform
    identical exact conversions) but otherwise roams freely over earlier
    nodes, registers, and loop-carried values of any node, itself and
    later nodes included: such reads close dependence cycles, the
    recurrence clusters the batched path runs lane by lane.
    """
    base = 0x3000
    iterations = draw(st.integers(1, 24))
    nodes = [
        ConfiguredNode(0, Instruction(base, Opcode.ADDI, rd=x(5), rs1=x(5),
                                      imm=-1),
                       (0, 0), src1=Operand.loop_carried(0, x(5))),
        ConfiguredNode(1, Instruction(base + 4, Opcode.ADDI, rd=x(10),
                                      rs1=x(10), imm=4),
                       (0, 1), src1=Operand.loop_carried(1, x(10))),
    ]
    # dtype per producer node: "i" or "f" (branches produce nothing).
    dtypes = {0: "i", 1: "i"}
    live_in = {x(5), x(10), x(14)}
    live_out = {}
    int_regs = [x(11), x(12), x(13)]
    fp_regs = [f(4), f(5), f(6)]
    live_in.update(int_regs)
    live_in.update(fp_regs)

    def source(i, dtype, regs):
        pool = [Operand.from_register(draw(st.sampled_from(regs)))]
        earlier = [j for j in range(i) if dtypes.get(j) == dtype]
        if earlier:
            pool.append(Operand.node(draw(st.sampled_from(earlier))))
        # A loop-carried read may name any producer, so node i itself and
        # the compute nodes after it close cycles.
        carried = sorted(j for j, d in dtypes.items() if d == dtype)
        if carried:
            seed = draw(st.sampled_from(regs))
            pool.append(Operand.loop_carried(draw(st.sampled_from(carried)),
                                             seed))
        return draw(st.sampled_from(pool))

    def int_source(i):
        return source(i, "i", int_regs)

    def fp_source(i):
        return source(i, "f", fp_regs)

    n_mid = draw(st.integers(1, 5))
    has_load = draw(st.booleans())
    has_store = draw(st.booleans())
    # Every compute node's kind is drawn first, so a loop-carried read
    # can name a later node by its dtype.
    first_mid = 2 + has_load
    kinds = [draw(st.sampled_from(("int", "fp", "fpcmp", "branch")))
             for _ in range(n_mid)]
    for m, kind in enumerate(kinds):
        if kind != "branch":
            dtypes[first_mid + m] = "f" if kind == "fp" else "i"
    guard_branch = None
    grid, memory_row = 2, 0

    def place(is_memory):
        nonlocal grid, memory_row
        if is_memory:
            memory_row += 1
            return (memory_row - 1, -1)
        grid += 1
        return ((grid - 1) // CFG.cols, (grid - 1) % CFG.cols)

    load_id = None
    if has_load:
        i = len(nodes)
        load_id = i
        nodes.append(ConfiguredNode(
            i, Instruction(base + 4 * i, Opcode.LW, rd=x(6), rs1=x(10),
                           imm=draw(st.integers(-8, 8)) * 4),
            place(True), src1=Operand.node(1), is_memory=True))
        dtypes[i] = "i"

    for kind in kinds:
        i = len(nodes)
        if kind == "branch":
            op = draw(st.sampled_from(GUARD_OPS))
            nodes.append(ConfiguredNode(
                i, Instruction(base + 4 * i, op, rs1=x(11), rs2=x(12),
                               imm=8),
                place(False), src1=int_source(i), src2=int_source(i)))
            guard_branch = i
            continue
        if kind == "int":
            op = draw(st.sampled_from(INT_OPS))
            src1, src2 = int_source(i), int_source(i)
            rd, dtype = x(7), "i"
        elif kind == "fp":
            op = draw(st.sampled_from(FP_OPS))
            src1, src2 = fp_source(i), fp_source(i)
            rd, dtype = f(7), "f"
        else:
            op = draw(st.sampled_from(FP_CMP_OPS))
            src1, src2 = fp_source(i), fp_source(i)
            rd, dtype = x(7), "i"
        guard = None
        if guard_branch is not None and draw(st.booleans()):
            if dtype == "i":
                fallback = int_source(i)
            else:
                fallback = fp_source(i)
            guard = Guard(guard_branch, fallback)
        nodes.append(ConfiguredNode(
            i, Instruction(base + 4 * i, op, rd=rd, rs1=x(11), rs2=x(12)),
            place(False), src1=src1, src2=src2, guard=guard))
        reg = x(20 + i) if dtype == "i" else f(20 + i)
        live_out[reg] = i

    if has_store:
        i = len(nodes)
        data_pool = [j for j in range(i) if dtypes.get(j) == "i"]
        data = Operand.node(draw(st.sampled_from(data_pool)))
        # Offsets near zero overlap the load window — aliasing on purpose.
        offset = draw(st.integers(-4, 4)) * 4 + 0x40 * draw(
            st.sampled_from((0, 1)))
        address = Operand.node(1)
        if load_id is not None and draw(st.booleans()):
            # Load-dependent addressing: x14 + (loaded & 0x1C), a window
            # of 8 words the walking load reads early in the run.
            nodes.append(ConfiguredNode(
                i, Instruction(base + 4 * i, Opcode.ANDI, rd=x(8), rs1=x(6),
                               imm=0x1C),
                place(False), src1=Operand.node(load_id)))
            nodes.append(ConfiguredNode(
                i + 1, Instruction(base + 4 * i + 4, Opcode.ADD, rd=x(8),
                                   rs1=x(8), rs2=x(14)),
                place(False), src1=Operand.node(i),
                src2=Operand.from_register(x(14))))
            dtypes[i] = dtypes[i + 1] = "i"
            address = Operand.node(i + 1)
            offset = 0
            i += 2
        nodes.append(ConfiguredNode(
            i, Instruction(base + 4 * i, Opcode.SW, rs1=x(10), rs2=x(7),
                           imm=offset),
            place(True), src1=address, src2=data, is_memory=True))
        if draw(st.booleans()):
            # A load after the store off the same base: it overlaps the
            # store of its own iteration at delta 0 (store-to-load
            # forwarding) and, on a walking base, the previous
            # iteration's store at delta -4.
            delta = draw(st.sampled_from((0, 4, -4)))
            i = len(nodes)
            nodes.append(ConfiguredNode(
                i, Instruction(base + 4 * i, Opcode.LW, rd=x(9), rs1=x(10),
                               imm=offset + delta),
                place(True), src1=address, is_memory=True))
            live_out[x(9)] = i

    i = len(nodes)
    nodes.append(ConfiguredNode(
        i, Instruction(base + 4 * i, Opcode.BNE, rs1=x(5), rs2=x(0),
                       imm=-4 * i),
        place(False), src1=Operand.node(0)))
    live_out[x(5)] = 0

    program = AcceleratorProgram(config=CFG, nodes=nodes, loop_branch_id=i,
                                 live_in=live_in, live_out=live_out)

    reg_values = {
        x(5): iterations,
        x(10): LOAD_BASE,
        x(14): LOAD_BASE,
    }
    for reg in int_regs:
        reg_values[reg] = draw(st.integers(-(1 << 31), (1 << 31) - 1))
    for reg in fp_regs:
        reg_values[reg] = _bits_to_float(draw(st.sampled_from(FLOAT_BITS)))
    mem_words = [
        draw(st.sampled_from(FLOAT_BITS + (0x00000007, 0xFFFFFFF9)))
        for _ in range(8)
    ]
    return program, reg_values, mem_words, iterations


def build_state(reg_values, mem_words, iterations) -> MachineState:
    state = MachineState(memory=Memory())
    for reg, value in reg_values.items():
        state.write(reg, value)
    for k in range(iterations + 10):
        state.memory.store(LOAD_BASE - 0x20 + 4 * k, 4,
                           mem_words[k % len(mem_words)])
    return state


def nan_pair_example():
    """FADD_S of the canonical NaN and a payload NaN on every lane: the
    pair a 20x budget found the two paths disagreeing on before both
    applied the explicit first-NaN-wins rule."""
    base = 0x3000
    iterations = 24
    nodes = [
        ConfiguredNode(0, Instruction(base, Opcode.ADDI, rd=x(5), rs1=x(5),
                                      imm=-1),
                       (0, 0), src1=Operand.loop_carried(0, x(5))),
        ConfiguredNode(1, Instruction(base + 4, Opcode.ADDI, rd=x(10),
                                      rs1=x(10), imm=4),
                       (0, 1), src1=Operand.loop_carried(1, x(10))),
        ConfiguredNode(2, Instruction(base + 8, Opcode.FADD_S, rd=f(7),
                                      rs1=f(4), rs2=f(5)),
                       (0, 2), src1=Operand.from_register(f(4)),
                       src2=Operand.from_register(f(5))),
        # Every lane's result lands in memory, where the fingerprint sees it.
        ConfiguredNode(3, Instruction(base + 12, Opcode.FSW, rs1=x(10),
                                      rs2=f(7), imm=0x40),
                       (0, -1), src1=Operand.node(1), src2=Operand.node(2),
                       is_memory=True),
        ConfiguredNode(4, Instruction(base + 16, Opcode.BNE, rs1=x(5),
                                      rs2=x(0), imm=-16),
                       (0, 3), src1=Operand.node(0)),
    ]
    program = AcceleratorProgram(
        config=CFG, nodes=nodes, loop_branch_id=4,
        live_in={x(5), x(10), x(14), f(4), f(5)},
        live_out={f(22): 2, x(5): 0})
    reg_values = {x(5): iterations, x(10): LOAD_BASE, x(14): LOAD_BASE,
                  f(4): _bits_to_float(0x7FC00000),
                  f(5): _bits_to_float(0x7FC12345)}
    return program, reg_values, [0] * 8, iterations


def _cluster_example(middle, live_in, reg_values, live_out):
    """Countdown and walker, then ``middle`` (built from the first free
    node id), then the loop branch: 24 iterations, three blocks of 8."""
    base = 0x3000
    nodes = [
        ConfiguredNode(0, Instruction(base, Opcode.ADDI, rd=x(5), rs1=x(5),
                                      imm=-1),
                       (0, 0), src1=Operand.loop_carried(0, x(5))),
        ConfiguredNode(1, Instruction(base + 4, Opcode.ADDI, rd=x(10),
                                      rs1=x(10), imm=4),
                       (0, 1), src1=Operand.loop_carried(1, x(10))),
        *middle(base),
    ]
    i = len(nodes)
    nodes.append(ConfiguredNode(
        i, Instruction(base + 4 * i, Opcode.BNE, rs1=x(5), rs2=x(0),
                       imm=-4 * i),
        (0, i + 1), src1=Operand.node(0)))
    program = AcceleratorProgram(
        config=CFG, nodes=nodes, loop_branch_id=i,
        live_in={x(5), x(10), x(14), *live_in},
        live_out={x(5): 0, **live_out})
    return (program, {x(5): 24, x(10): LOAD_BASE, x(14): LOAD_BASE,
                      **reg_values}, [0] * 8, 24)


def nan_cluster_example():
    """An FP cluster (nodes 3 and 4, both on the fast binding) that meets
    the NaN live-in f6 at iteration 14, lane 6 of the second block: node 3
    takes it as its guard fallback once the countdown drops below 10."""
    def middle(base):
        return [
            ConfiguredNode(2, Instruction(base + 8, Opcode.BLT, rs1=x(5),
                                          rs2=x(11), imm=8),
                           (0, 2), src1=Operand.node(0),
                           src2=Operand.from_register(x(11))),
            ConfiguredNode(3, Instruction(base + 12, Opcode.FADD_S,
                                          rd=f(7), rs1=f(8), rs2=f(5)),
                           (0, 3), src1=Operand.loop_carried(4, f(4)),
                           src2=Operand.from_register(f(5)),
                           guard=Guard(2, Operand.from_register(f(6)))),
            ConfiguredNode(4, Instruction(base + 16, Opcode.FMUL_S,
                                          rd=f(8), rs1=f(7), rs2=f(5)),
                           (0, 4), src1=Operand.node(3),
                           src2=Operand.from_register(f(5))),
        ]
    return _cluster_example(
        middle, {x(11), f(4), f(5), f(6)},
        {x(11): 10, f(4): 1.5, f(5): 0.5,
         f(6): _bits_to_float(0x7FC01234)},
        {f(23): 3, f(24): 4})


def wrap_cluster_example():
    """An add recurrence (nodes 2 and 3, Fibonacci from 20000) whose sums
    pass 2**31 at iteration 11, lane 3 of the second block; node 4's sign
    test of node 3 tells a wrapped sum from an unwrapped one."""
    def middle(base):
        return [
            ConfiguredNode(2, Instruction(base + 8, Opcode.ADD, rd=x(11),
                                          rs1=x(11), rs2=x(12)),
                           (0, 2), src1=Operand.loop_carried(2, x(11)),
                           src2=Operand.loop_carried(3, x(12))),
            ConfiguredNode(3, Instruction(base + 12, Opcode.ADD, rd=x(12),
                                          rs1=x(12), rs2=x(11)),
                           (0, 3), src1=Operand.loop_carried(3, x(12)),
                           src2=Operand.node(2)),
            ConfiguredNode(4, Instruction(base + 16, Opcode.SLT, rd=x(13),
                                          rs1=x(12), rs2=x(0)),
                           (0, 4), src1=Operand.node(3)),
            ConfiguredNode(5, Instruction(base + 20, Opcode.SW, rs1=x(10),
                                          rs2=x(13), imm=0x40),
                           (0, -1), src1=Operand.node(1),
                           src2=Operand.node(4), is_memory=True),
        ]
    return _cluster_example(
        middle, {x(11), x(12)}, {x(11): 20000, x(12): 20000},
        {x(11): 2, x(12): 3, x(13): 4})


def assert_bit_identical(drawn):
    program, reg_values, mem_words, iterations = drawn
    runs = []
    memories = []
    for compiled in (True, False):
        engine = DataflowEngine(program, compiled=compiled)
        with pytest.MonkeyPatch.context() as patch:
            # Blocks of 8 put block boundaries inside the 1-24 iteration
            # runs.
            patch.setattr(batch, "DEFAULT_BLOCK", 8)
            runs.append(engine.run(
                build_state(reg_values, mem_words, iterations)))
        memories.append(memory_fingerprint(engine.hierarchy))
    batched, reference = runs
    assert batched.iterations == iterations
    assert run_fingerprint(batched) == run_fingerprint(reference)
    assert memories[0] == memories[1]
    return batched


@settings(max_examples=60 * FUZZ_SCALE, deadline=None)
@given(programs())
@example(nan_pair_example())
@example(nan_cluster_example())
@example(wrap_cluster_example())
def test_batched_request_bit_identical_to_interpreter(drawn):
    assert_bit_identical(drawn)


@pytest.mark.parametrize("drawn, members", [
    (nan_cluster_example(), (3, 4)),
    (wrap_cluster_example(), (2, 3)),
], ids=["nan", "wrap"])
def test_pinned_clusters_rerun_on_the_exact_binding(drawn, members,
                                                    monkeypatch):
    # The two pinned examples end in the exact re-run: their clusters run
    # on the fast binding until a trigger trips mid-block.
    built = record_clusters(monkeypatch)
    assert assert_bit_identical(drawn).drive_path == "batched"
    assert_reran(built, members)
