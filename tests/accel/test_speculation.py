"""Tests for out-of-order load speculation on the fabric (paper §4.2)."""

import pytest

from repro.accel import (
    AcceleratorConfig,
    AcceleratorProgram,
    ConfiguredNode,
    DataflowEngine,
    ExecutionOptions,
    Operand,
)
from repro.isa import Instruction, MachineState, Opcode, x
from repro.mem import Memory


CFG = AcceleratorConfig(rows=8, cols=8, lsu_entries=16)


def conflict_program() -> AcceleratorProgram:
    """A store whose address depends on slow compute, then a load to the
    *same* address whose own address is ready immediately:

        mul  t2, t3, t3       # slow address computation
        add  t4, t2, zero     # the store's base (delayed)
        sw   t5, 0(t4)
        lw   t6, 0(a0)        # same address, ready instantly
    """
    t2, t3, t4, t5, t6, a0 = x(7), x(28), x(29), x(30), x(31), x(10)
    base = 0x1000
    instr = [
        Instruction(base + 0, Opcode.MUL, rd=t2, rs1=t3, rs2=t3),
        Instruction(base + 4, Opcode.ADD, rd=t4, rs1=t2, rs2=x(0)),
        Instruction(base + 8, Opcode.SW, rs1=t4, rs2=t5, imm=0),
        Instruction(base + 12, Opcode.LW, rd=t6, rs1=a0, imm=0),
    ]
    nodes = [
        ConfiguredNode(0, instr[0], (0, 0),
                       src1=Operand.from_register(t3),
                       src2=Operand.from_register(t3)),
        ConfiguredNode(1, instr[1], (0, 1), src1=Operand.node(0)),
        ConfiguredNode(2, instr[2], (0, -1), src1=Operand.node(1),
                       src2=Operand.from_register(t5), is_memory=True),
        ConfiguredNode(3, instr[3], (1, -1),
                       src1=Operand.from_register(a0), is_memory=True),
    ]
    return AcceleratorProgram(
        config=CFG, nodes=nodes, loop_branch_id=None,
        live_in={t3, t5, a0}, live_out={t6: 3, t4: 1, t2: 0},
    )


def make_state(store_base: int) -> MachineState:
    state = MachineState()
    memory = Memory()
    memory.store_words(0x400, [111])  # old value at the load address
    state.memory = memory
    state.write(x(28), store_base)  # t3: sqrt of the store address
    state.write(x(30), 999)         # t5: store data
    state.write(x(10), 0x400)       # a0: load address
    return state


class TestSpeculation:
    def test_conflicting_load_replays(self):
        """Store to 32*32=0x400 == load address -> invalidation."""
        state = make_state(32)
        engine = DataflowEngine(conflict_program())
        run = engine.run(state, ExecutionOptions(speculative_loads=True))
        assert run.activity.load_replays == 1
        # Functional result is the *stored* value (program order semantics).
        assert state.read(x(31)) == 999

    def test_disjoint_load_no_replay(self):
        """Store to 16*16=0x100 != load address 0x400 -> speculation wins."""
        state = make_state(16)
        engine = DataflowEngine(conflict_program())
        run = engine.run(state, ExecutionOptions(speculative_loads=True))
        assert run.activity.load_replays == 0
        assert state.read(x(31)) == 111, "load sees the old memory value"

    def test_speculation_faster_when_disjoint(self):
        spec = DataflowEngine(conflict_program()).run(
            make_state(16), ExecutionOptions(speculative_loads=True))
        conservative = DataflowEngine(conflict_program()).run(
            make_state(16), ExecutionOptions(speculative_loads=False))
        assert spec.latency.node_latency(3) < conservative.latency.node_latency(3), (
            "waiting for the slow store address must delay the load")

    def test_replay_penalty_charged(self):
        cheap = DataflowEngine(conflict_program()).run(
            make_state(32), ExecutionOptions(speculative_loads=True,
                                             replay_penalty=0))
        costly = DataflowEngine(conflict_program()).run(
            make_state(32), ExecutionOptions(speculative_loads=True,
                                             replay_penalty=50))
        assert (costly.latency.node_latency(3)
                > cheap.latency.node_latency(3))

    def test_functional_result_mode_independent(self):
        for speculative in (True, False):
            state = make_state(32)
            DataflowEngine(conflict_program()).run(
                state, ExecutionOptions(speculative_loads=speculative))
            assert state.read(x(31)) == 999

    def test_invalid_penalty_rejected(self):
        with pytest.raises(ValueError):
            ExecutionOptions(replay_penalty=-1)

    def test_forwarded_load_waits_for_store_data(self):
        """A same-base forwarded load cannot complete before the store's
        data-producing chain does."""
        t2, t3, t5, t6 = x(7), x(28), x(30), x(31)
        base = 0x1000
        instr = [
            Instruction(base + 0, Opcode.MUL, rd=t2, rs1=t3, rs2=t3),
            Instruction(base + 4, Opcode.SW, rs1=x(10), rs2=t2, imm=0),
            Instruction(base + 8, Opcode.LW, rd=t6, rs1=x(10), imm=0),
        ]
        nodes = [
            ConfiguredNode(0, instr[0], (0, 0),
                           src1=Operand.from_register(t3),
                           src2=Operand.from_register(t3)),
            ConfiguredNode(1, instr[1], (0, -1),
                           src1=Operand.from_register(x(10)),
                           src2=Operand.node(0), is_memory=True),
            ConfiguredNode(2, instr[2], (1, -1),
                           src1=Operand.from_register(x(10)), is_memory=True),
        ]
        program = AcceleratorProgram(config=CFG, nodes=nodes,
                                     loop_branch_id=None,
                                     live_in={t3, x(10)}, live_out={t6: 2})
        state = MachineState()
        state.memory = Memory()
        state.write(t3, 5)
        state.write(x(10), 0x500)
        run = DataflowEngine(program).run(state)
        # The disambiguation hardware catches the pair either way: as a
        # forward (conservative) or as an invalidation (speculative).
        assert run.activity.lsq_forwards + run.activity.load_replays == 1
        assert state.read(t6) == 25
        # Load completes after the mul -> store chain, not at cycle ~1.
        assert run.latency.node_latency(2) >= run.latency.node_latency(0)
