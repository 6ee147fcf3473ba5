"""Engine-level timing effects of the §4.2 memory optimizations."""

import pytest

from repro.accel import AcceleratorConfig, DataflowEngine
from repro.core import (
    InstructionMapper,
    apply_memory_optimizations,
    build_ldfg,
    build_program,
)
from repro.isa import MachineState, assemble, x
from repro.mem import Memory, MemoryHierarchy


CFG = AcceleratorConfig(rows=8, cols=8, lsu_entries=16, memory_ports=1)


def mapped_program(text: str, memopt: bool):
    ldfg = build_ldfg(list(assemble(text).instructions))
    if memopt:
        apply_memory_optimizations(ldfg)
    sdfg = InstructionMapper(CFG).map(ldfg)
    return build_program(sdfg)


VECTOR_LOOP = """
loop:
    lw t1, 0(a0)
    lw t2, 4(a0)
    lw t3, 8(a0)
    add t4, t1, t2
    add t4, t4, t3
    sw t4, 0(a1)
    addi a1, a1, 4
    addi t0, t0, -1
    bne t0, zero, loop
"""


def run_loop(text: str, memopt: bool, iterations: int = 32):
    program = mapped_program(text, memopt)
    state = MachineState()
    memory = Memory()
    memory.store_words(0x10000, list(range(64)))
    state.memory = memory
    state.write(x(10), 0x10000)
    state.write(x(11), 0x30000)
    state.write(x(5), iterations)
    engine = DataflowEngine(program, hierarchy=MemoryHierarchy())
    return engine.run(state), state


class TestVectorizationTiming:
    def test_vector_group_shares_port_grants(self):
        """Three same-base loads on ONE port: grouped they issue together."""
        plain, _ = run_loop(VECTOR_LOOP, memopt=False)
        grouped, _ = run_loop(VECTOR_LOOP, memopt=True)
        assert grouped.cycles < plain.cycles

    def test_vectorization_preserves_results(self):
        _, plain_state = run_loop(VECTOR_LOOP, memopt=False)
        _, opt_state = run_loop(VECTOR_LOOP, memopt=True)
        assert plain_state.memory.load_word(0x30000) == \
            opt_state.memory.load_word(0x30000)
        # sum of in[0..2] since a0 never advances in this loop.
        assert opt_state.memory.load_word(0x30000) == 0 + 1 + 2


PREFETCH_LOOP = """
loop:
    lw t1, 0(a0)
    addi a0, a0, 256      # stride one L1 set: every load cold
    add t2, t2, t1
    addi t0, t0, -1
    bne t0, zero, loop
"""


class TestPrefetchTiming:
    def test_prefetch_hides_miss_latency(self):
        plain, _ = run_loop(PREFETCH_LOOP, memopt=False)
        prefetched, _ = run_loop(PREFETCH_LOOP, memopt=True)
        # After iteration 0 the induction-based load exposes only L1 time.
        assert prefetched.iteration_latency < plain.iteration_latency

    def test_prefetch_preserves_results(self):
        _, plain_state = run_loop(PREFETCH_LOOP, memopt=False)
        _, opt_state = run_loop(PREFETCH_LOOP, memopt=True)
        assert plain_state.read(x(7)) == opt_state.read(x(7))


FORWARD_LOOP = """
loop:
    add t1, t2, t3
    sw t1, 0(a1)
    lw t4, 0(a1)          # reads back what was just stored
    add t2, t4, t3
    addi a1, a1, 4
    addi t0, t0, -1
    bne t0, zero, loop
"""


class TestForwardingTiming:
    def test_forwarded_load_frees_lsu_entry(self):
        plain = mapped_program(FORWARD_LOOP, memopt=False)
        optimized = mapped_program(FORWARD_LOOP, memopt=True)
        assert len(optimized.memory_nodes) == len(plain.memory_nodes) - 1

    def test_forwarding_preserves_results(self):
        _, plain_state = run_loop(FORWARD_LOOP, memopt=False)
        _, opt_state = run_loop(FORWARD_LOOP, memopt=True)
        assert plain_state.read(x(7)) == opt_state.read(x(7))
        assert plain_state.read(x(6)) == opt_state.read(x(6))
