"""Tests for out-of-order load speculation on the fabric (paper §4.2)."""

import dataclasses

import pytest

from repro.accel import (
    AcceleratorConfig,
    AcceleratorProgram,
    ConfiguredNode,
    DataflowEngine,
    ExecutionOptions,
    Operand,
)
from repro.accel.engine import REPLAY_PENALTY
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
        run = engine.run(state)
        assert run.activity.load_replays == 1
        # Functional result is the *stored* value (program order semantics).
        assert state.read(x(31)) == 999

    def test_disjoint_load_no_replay(self):
        """Store to 16*16=0x100 != load address 0x400 -> speculation wins."""
        state = make_state(16)
        engine = DataflowEngine(conflict_program())
        run = engine.run(state)
        assert run.activity.load_replays == 0
        assert state.read(x(31)) == 111, "load sees the old memory value"

    def test_replay_penalty_charged(self):
        # The replayed load completes the engine's constant penalty after
        # the store that invalidated it.
        run = DataflowEngine(conflict_program()).run(make_state(32))
        assert run.activity.load_replays == 1
        assert run.latency.node_latency(3) == (run.latency.node_latency(2)
                                               + REPLAY_PENALTY)

    def test_functional_result_mode_independent(self):
        for options in (ExecutionOptions(), ExecutionOptions(tile_factor=2)):
            state = make_state(32)
            run = DataflowEngine(conflict_program()).run(state, options)
            assert run.activity.load_replays == 1
            assert state.read(x(31)) == 999

    @pytest.mark.parametrize("compiled", [True, False])
    def test_stale_read_charges_a_port_and_a_cache_access(self, compiled):
        # The replayed load read memory before the store completed: that
        # read takes a port grant and an L1 access like any other load.
        # (A single-shot region runs on the interpreter either way; the
        # batched path steps such iterations on it too, which
        # test_batch_equivalence's forwarding tests hold it to.)  The
        # config has a port free for the load at once, so its grant
        # precedes the store's completion.
        program = conflict_program()
        assert CFG.memory_ports > 1
        engine = DataflowEngine(program, compiled=compiled)
        run = engine.run(make_state(32))
        assert run.activity.load_replays == 1
        load_pc = program.nodes[3].instruction.address
        assert engine.hierarchy.amat_counters()[load_pc].accesses == 1
        assert engine.hierarchy.l1.stats.accesses == 2

    @pytest.mark.parametrize("compiled", [True, False])
    def test_load_granted_at_store_completion_reads_memory(self, compiled):
        # With one port, the load that issued early waits behind the
        # store's grant and is granted as the store completes: it read the
        # stored data, so it neither replays nor forwards, and completes
        # one cache access after its grant.
        program = conflict_program()
        program = dataclasses.replace(
            program, config=dataclasses.replace(CFG, memory_ports=1))
        engine = DataflowEngine(program, compiled=compiled)
        state = make_state(32)
        run = engine.run(state)
        assert state.read(x(31)) == 999
        assert run.activity.load_replays == 0
        assert run.activity.lsq_forwards == 0
        store_done = run.latency.node_latency(2)
        hit = engine.hierarchy.ideal_latency
        assert run.latency.node_latency(3) == store_done + hit
        assert run.latency.node_latency(3) < store_done + REPLAY_PENALTY

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
        # The load's address is ready before the store completes, so the
        # ordering rule catches the pair as an invalidation and replay.
        assert run.activity.load_replays == 1
        assert run.activity.lsq_forwards == 0
        assert state.read(t6) == 25
        # Load completes after the mul -> store chain, not at cycle ~1.
        assert run.latency.node_latency(2) >= run.latency.node_latency(0)


def two_store_program() -> AcceleratorProgram:
    """:func:`conflict_program`'s slow store, then a second store to the
    load's address whose own address is ready at once, then the load.
    Each of the three accesses has its own port, so the load's grant
    comes before either store completes."""
    program = conflict_program()
    base = 0x1000
    fast_store = ConfiguredNode(
        3, Instruction(base + 12, Opcode.SW, rs1=x(10), rs2=x(11), imm=0),
        (2, -1), src1=Operand.from_register(x(10)),
        src2=Operand.from_register(x(11)), is_memory=True)
    load = ConfiguredNode(
        4, Instruction(base + 16, Opcode.LW, rd=x(31), rs1=x(10), imm=0),
        (1, -1), src1=Operand.from_register(x(10)), is_memory=True)
    return AcceleratorProgram(
        config=dataclasses.replace(CFG, memory_ports=3),
        nodes=[*program.nodes[:3], fast_store, load],
        loop_branch_id=None, live_in={*program.live_in, x(11)},
        live_out={x(31): 4})


class TestOrderingRule:
    def test_load_replays_against_the_newest_overlapping_store(self):
        # Both stores write the load's address: the load reads the fast
        # (newer) store's data, and its replay waits for that store, not
        # for the slow older one.
        state = make_state(32)
        state.write(x(11), 888)
        run = DataflowEngine(two_store_program()).run(state)
        assert state.read(x(31)) == 888
        assert run.activity.load_replays == 1
        latency = run.latency
        assert latency.node_latency(4) == (latency.node_latency(3)
                                           + REPLAY_PENALTY)
        assert latency.node_latency(4) < (latency.node_latency(2)
                                          + REPLAY_PENALTY)

    def test_younger_store_does_not_touch_the_load(self):
        # A store after the load in program order is not in its store
        # list: the load reads the old value from memory.
        program = conflict_program()
        store, load = program.nodes[2:]
        program = dataclasses.replace(
            program, nodes=[*program.nodes[:2],
                            dataclasses.replace(load, node_id=2),
                            dataclasses.replace(store, node_id=3)],
            live_out={x(31): 2})
        state = make_state(32)
        run = DataflowEngine(program).run(state)
        assert state.read(x(31)) == 111
        assert run.activity.load_replays == 0
        assert run.activity.lsq_forwards == 0
        assert state.memory.load(0x400, 4) == 999
