"""Tests for dynamic trace collection."""

import pytest

from repro.cpu import collect_trace
from repro.isa import MachineState, Opcode, assemble, x


def loop_program(iters: int):
    return assemble(
        f"""
        addi t0, zero, {iters}
        addi a0, zero, 0x100
        loop:
            lw t1, 0(a0)
            addi t1, t1, 1
            sw t1, 0(a0)
            addi a0, a0, 4
            addi t0, t0, -1
            bne t0, zero, loop
        """
    )


class TestCollectTrace:
    def test_lengths_and_order(self):
        trace = collect_trace(loop_program(3))
        assert len(trace) == 2 + 3 * 6

    def test_memory_addresses_recorded(self):
        trace = collect_trace(loop_program(2))
        mem = [e for e in trace if e.instruction.is_memory]
        # 2 iterations x (1 load + 1 store)
        assert len(mem) == 4
        assert [e.address for e in mem] == [0x100, 0x100, 0x104, 0x104]

    def test_non_memory_has_no_address(self):
        trace = collect_trace(loop_program(1))
        assert trace[0].address is None

    def test_branch_direction_recorded(self):
        trace = collect_trace(loop_program(2))
        branches = [e for e in trace if e.instruction.is_branch]
        assert [e.taken for e in branches] == [True, False]

    def test_non_control_taken_is_none(self):
        trace = collect_trace(loop_program(1))
        assert trace[0].taken is None

    def test_final_state_returned(self):
        trace = collect_trace(loop_program(3))
        assert trace.final_state.read(x(5)) == 0
        assert trace.final_state.memory.load(0x100, 4) == 1

    def test_pc_stream(self):
        prog = assemble("nop\nnop")
        trace = collect_trace(prog)
        assert [e.pc for e in trace] == [0x1000, 0x1004]

    def test_max_steps_enforced(self):
        from repro.isa import ExecutionError

        with pytest.raises(ExecutionError):
            collect_trace(assemble("x:\nj x"), max_steps=10)

    def test_initial_state_respected(self):
        prog = assemble("add a2, a0, a1")
        state = MachineState(pc=prog.base_address)
        state.write(x(10), 4)
        state.write(x(11), 6)
        trace = collect_trace(prog, state)
        assert trace.final_state.read(x(12)) == 10
