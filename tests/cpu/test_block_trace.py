"""Block tracing: ``collect_trace`` equals a plain step-by-step executor.

Once a straight-line loop's back edge repeats, :func:`repro.cpu.collect_trace`
runs the loop body in blocks through the batched fabric drive's value phase.
The oracle here is a plain :meth:`~repro.isa.Executor.step` loop that
records each step's pc, effective address and branch direction.  Every
column of the trace, and the final state (pc, registers by bit pattern,
every memory byte), must equal the oracle's — on the Rodinia kernels, on
generated loops, and on hand-assembled bodies that hit each way a block is
cut or refused.  The hottest loop's verdict per kernel is pinned, read from
:func:`repro.cpu.trace.compile_loop_body`, the function the tracer calls.
"""

from __future__ import annotations

import os
import random
import struct
from collections import Counter

import pytest

from repro.accel.batch import DEFAULT_BLOCK
from repro.cpu import collect_trace
from repro.cpu.trace import BLOCK_AFTER, compile_loop_body
from repro.isa import (
    ExecutionError,
    Executor,
    MachineState,
    assemble,
    parse_register,
)
from repro.workloads import (
    GeneratorParams,
    build_kernel,
    generate_kernel,
    kernel_names,
)

from ..accel.test_batch_equivalence import assert_reran, record_clusters

#: Nightly CI exports REPRO_FUZZ_SCALE to multiply every example budget.
FUZZ_SCALE = int(os.environ.get("REPRO_FUZZ_SCALE", "1"))

#: Where hand-assembled loops keep their data (clear of the program).
DATA = 0x10000


def oracle(program, state, max_steps=1_000_000):
    """``(pc, address, taken)`` per step of a plain ``Executor.step()``
    loop, with -1 for no address and no direction, as the columns hold."""
    executor = Executor(program, state)
    mask = (1 << state.xlen) - 1
    rows = []
    while program.base_address <= state.pc < program.end_address:
        if len(rows) == max_steps:
            raise ExecutionError(
                f"exceeded {max_steps} steps (runaway loop?)")
        pc = state.pc
        instr = program.at(pc)
        address = ((state.read(instr.rs1) + instr.imm) & mask
                   if instr.is_memory else -1)
        executor.step()
        taken = int(state.pc != pc + 4) if instr.is_control else -1
        rows.append((pc, address, taken))
    return rows


def columns(trace):
    table = trace.instructions
    return list(zip([table[k].address for k in trace.index.tolist()],
                    trace.address.tolist(), trace.taken.tolist()))


def state_key(state):
    """Everything architectural, floats by bit pattern."""
    return (state.pc, state.xlen, list(state._int_regs),
            [struct.pack("<d", value) for value in state._fp_regs],
            state.memory._bytes)


def assert_same(program, make_state, max_steps=1_000_000):
    """The trace's columns and final state equal the oracle's."""
    expected_state = make_state()
    rows = oracle(program, expected_state, max_steps)
    trace = collect_trace(program, make_state(), max_steps)
    assert columns(trace) == rows
    assert state_key(trace.final_state) == state_key(expected_state)
    return trace


def loop_body(program, trace):
    """The body of the trace's hottest loop, and the longest run of taken
    back edges it had."""
    pc = Counter(entry.pc for entry in trace.back_edges).most_common(1)[0][0]
    branch = (pc - program.base_address) >> 2
    instr = program.instructions[branch]
    first = (instr.address + instr.imm - program.base_address) >> 2
    longest = run = 0
    for taken in trace.taken[trace.index == branch].tolist():
        run = run + 1 if taken == 1 else 0
        longest = max(longest, run)
    return program.instructions[first:branch + 1], longest


def verdict(body, xlen=32):
    compiled = compile_loop_body(body, xlen)
    return compiled if isinstance(compiled, str) else "block-traced"


# -- the Rodinia kernels ---------------------------------------------------------

#: Per kernel: the hottest loop block-traces, a reason rejects its body, or
#: its back edge is never taken BLOCK_AFTER times in a row.
EXPECTED = {
    **dict.fromkeys(
        ("backprop", "cfd", "gaussian", "heartwall", "hotspot", "hotspot3d",
         "kmeans", "lavamd", "lud", "myocyte", "nn", "particlefilter"),
        "block-traced"),
    **dict.fromkeys(
        ("bfs", "leukocyte", "nw", "pathfinder", "streamcluster"),
        "inner control"),
    "btree": "loop-carried recurrence through memory",
    "srad": "short trips",
}


def test_expected_covers_every_kernel():
    assert set(EXPECTED) == set(kernel_names())


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_kernel_verdict_frozen(name):
    kernel = build_kernel(name, iterations=64, seed=1)
    body, longest = loop_body(kernel.program,
                              collect_trace(kernel.program,
                                            kernel.fresh_state()))
    expected = EXPECTED[name]
    if expected == "short trips":
        assert longest < BLOCK_AFTER
    elif expected == "block-traced":
        assert longest >= BLOCK_AFTER
        assert verdict(body) == expected
    else:
        assert verdict(body) == expected


def test_myocyte_block_traces_through_a_cluster():
    kernel = build_kernel("myocyte", iterations=64, seed=1)
    body, _ = loop_body(kernel.program,
                        collect_trace(kernel.program, kernel.fresh_state()))
    assert compile_loop_body(body, 32).clusters


@pytest.mark.parametrize("iterations", [64, 384])
@pytest.mark.parametrize("name", kernel_names())
def test_kernel_trace_equals_oracle(name, iterations):
    kernel = build_kernel(name, iterations=iterations, seed=1)
    assert_same(kernel.program, kernel.fresh_state)


@pytest.mark.parametrize("draw", range(8 * FUZZ_SCALE))
def test_generated_loop_trace_equals_oracle(draw):
    rng = random.Random(draw)
    kernel = generate_kernel(GeneratorParams(
        loads=rng.randint(1, 4), compute_ops=rng.randint(2, 12),
        stores=rng.randint(1, 2), fp_fraction=rng.random(),
        iterations=rng.choice((5, 64, 300)), seed=rng.randrange(1 << 30)))
    assert_same(kernel.program, kernel.state_factory)


# -- hand-assembled bodies -------------------------------------------------------

def staged(program, words=(), floats=(), xlen=32, **registers):
    """A state recipe: registers by ABI name, words and floats at DATA."""
    def make():
        state = MachineState(pc=program.base_address, xlen=xlen)
        for name, value in registers.items():
            state.write(parse_register(name), value)
        if words:
            state.memory.store_words(DATA, words)
        if floats:
            state.memory.store_floats(DATA + 0x8000, floats)
        return state
    return make


def streaming(trips: int, body: str):
    return assemble(f"""
        li t0, {trips}
        li a0, {DATA}
        li a1, {DATA + 0x4000}
        loop:
        {body}
            addi t0, t0, -1
            bne t0, zero, loop
        addi s1, s1, 1
        """)


def test_in_iteration_forward_steps_one_iteration():
    # Each iteration stores a word and loads it back: a store→load hazard
    # in every block's first iteration.
    program = streaming(300, """
            lw t1, 0(a0)
            addi t1, t1, 3
            sw t1, 0(a1)
            lw t2, 0(a1)
            add t3, t3, t2
            addi a0, a0, 4
            addi a1, a1, 4
        """)
    trace = assert_same(program, staged(program, words=range(400)))
    assert verdict(loop_body(program, trace)[0]) == "block-traced"


@pytest.mark.parametrize("distance", [1, 10, 200])
def test_cross_iteration_alias_cuts_blocks_mid_block(distance):
    # Iteration i stores where iteration i + distance loads: a hazard
    # early in a block steps, one late in a block commits and goes on.
    program = streaming(600, f"""
            lw t1, 0(a0)
            addi t1, t1, 1
            sw t1, {4 * distance}(a0)
            addi a0, a0, 4
        """)
    trace = assert_same(program, staged(program, words=range(700)))
    assert verdict(loop_body(program, trace)[0]) == "block-traced"


@pytest.mark.parametrize("trips", [BLOCK_AFTER + 1, 20, 256 + BLOCK_AFTER,
                                   DEFAULT_BLOCK + BLOCK_AFTER,
                                   DEFAULT_BLOCK + BLOCK_AFTER + 1])
def test_loop_exiting_inside_its_first_block(trips):
    program = streaming(trips, """
            lw t1, 0(a0)
            slli t2, t1, 3
            xor t3, t3, t2
            sw t3, 0(a1)
            addi a0, a0, 4
            addi a1, a1, 4
        """)
    assert_same(program, staged(program, words=range(300)))


@pytest.mark.parametrize("steps_in_loop", [
    5 * BLOCK_AFTER - 2,          # in the scalar iterations before a block
    5 * BLOCK_AFTER + 37,         # mid-block: no whole block fits
    5 * (BLOCK_AFTER + 256),      # exactly at the end of the first block
    5 * (BLOCK_AFTER + 256) + 4,  # just after it
])
def test_max_steps_mid_block_raises_at_the_same_step(steps_in_loop):
    program = streaming(1000, """
            lw t1, 0(a0)
            add t3, t3, t1
            addi a0, a0, 4
        """)
    loop = next(i for i in program.instructions if i.is_branch)
    prefix = (loop.address + loop.imm - program.base_address) >> 2
    max_steps = prefix + steps_in_loop
    make = staged(program, words=range(1000))
    expected_state = make()
    with pytest.raises(ExecutionError) as expected:
        oracle(program, expected_state, max_steps)
    state = make()
    with pytest.raises(ExecutionError) as raised:
        collect_trace(program, state, max_steps)
    assert str(raised.value) == str(expected.value)
    assert state_key(state) == state_key(expected_state)


def test_rv64_state_steps_on_the_scalar_path():
    program = streaming(300, """
            ld t1, 0(a0)
            add t3, t3, t1
            slli t3, t3, 1
            sd t3, 0(a1)
            addi a0, a0, 8
            addi a1, a1, 8
        """)
    trace = assert_same(program, staged(program, words=range(700), xlen=64))
    assert verdict(loop_body(program, trace)[0], xlen=64) == "xlen 64"


def test_coupled_fp_recurrence_block_traces(monkeypatch):
    # ft1 and ft2 feed each other across iterations: one recurrence
    # cluster, on the fast binding until the NaN at iteration 33 makes
    # its block re-run on the exact one.
    program = streaming(400, """
            flw ft0, 0(a2)
            fadd.s ft1, ft1, ft2
            fmul.s ft2, ft1, ft0
            fsub.s ft2, ft2, ft1
            fsw ft1, 0(a1)
            addi a2, a2, 4
            addi a1, a1, 4
        """)
    floats = [((i * 37) % 11 - 5) * 0.25 for i in range(500)]
    make = staged(program, floats=floats, a2=DATA + 0x8000)

    def seeded():
        state = make()
        state.memory.store(DATA + 0x8000 + 4 * 33, 4, 0x7FC00123)  # a NaN
        return state
    clusters = record_clusters(monkeypatch)
    trace = assert_same(program, seeded)
    assert_reran(clusters, (1, 2, 3))
    body = loop_body(program, trace)[0]
    assert verdict(body) == "block-traced"
    assert compile_loop_body(body, 32).clusters


def test_wrapping_int_recurrence_block_traces(monkeypatch):
    # t1 and t2 grow as Fibonacci numbers and pass 2**31 at iteration 23
    # (and stay within int64 over the 40 trips): the fast binding's sums
    # leave signed 32 bits, and the block re-runs on the exact binding,
    # which wraps as the CPU does.  The stored sign bit of t2 differs
    # between a wrapped and an unwrapped sum.
    program = streaming(40, """
            add t1, t1, t2
            add t2, t2, t1
            slt t3, t2, zero
            sw t3, 0(a1)
            addi a1, a1, 4
        """)
    clusters = record_clusters(monkeypatch)
    trace = assert_same(program, staged(program, t1=1, t2=1))
    assert_reran(clusters, (0, 1))
    assert verdict(loop_body(program, trace)[0]) == "block-traced"


def test_pointer_chase_steps_on_the_scalar_path():
    # Each node's first word holds the next node's address.
    nodes = [DATA + 8 * ((i * 7 + 3) % 64) for i in range(64)]
    words = [0] * 128
    for here, there in zip(nodes, nodes[1:] + nodes[:1]):
        words[(here - DATA) // 4] = there
        words[(here - DATA) // 4 + 1] = here & 0xFF
    program = assemble(f"""
        li t0, 200
        li a0, {nodes[0]}
        loop:
            lw t1, 4(a0)
            add t2, t2, t1
            lw a0, 0(a0)
            addi t0, t0, -1
            bne t0, zero, loop
        """)
    trace = assert_same(program, staged(program, words=words))
    assert verdict(loop_body(program, trace)[0]) \
        == "loop-carried recurrence through memory"


def test_inner_control_and_jump_closed_loops_step():
    program = assemble("""
        li t0, 100
        loop:
            andi t1, t0, 1
            beq t1, zero, skip
            addi t2, t2, 3
        skip:
            addi t0, t0, -1
            bne t0, zero, loop
        li t0, 50
        again:
            addi t3, t3, 1
            addi t0, t0, -1
            beq t0, zero, out
            j again
        out:
            nop
        """)
    trace = assert_same(program, staged(program))
    assert verdict(loop_body(program, trace)[0]) == "inner control"
    jump = next(i for i in program.instructions if i.is_jump and i.imm < 0)
    first = (jump.address + jump.imm - program.base_address) >> 2
    last = (jump.address - program.base_address) >> 2
    assert verdict(program.instructions[first:last + 1]) \
        == "closing transfer is not a conditional branch"
