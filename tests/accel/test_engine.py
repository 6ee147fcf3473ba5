"""Tests for the dataflow execution engine (functional + timing)."""

import dataclasses
import math

import pytest

from repro.accel import (
    AcceleratorConfig,
    AcceleratorProgram,
    ConfiguredNode,
    DataflowEngine,
    ExecutionOptions,
    Guard,
    Operand,
)
from repro.core import plan_loop_optimizations
from repro.isa import Instruction, MachineState, Opcode, assemble, run, x
from repro.mem import Memory


CFG = AcceleratorConfig(rows=8, cols=8, lsu_entries=16, memory_ports=2)


def increment_loop_program(cfg: AcceleratorConfig = CFG) -> AcceleratorProgram:
    """The mapped form of a word-increment loop:

        loop: lw t1, 0(a0); addi t1, t1, 1; sw t1, 0(a0)
              addi a0, a0, 4; addi t0, t0, -1; bne t0, zero, loop
    """
    a0, t0, t1 = x(10), x(5), x(6)
    base = 0x1000
    instr = [
        Instruction(base + 0, Opcode.LW, rd=t1, rs1=a0, imm=0),
        Instruction(base + 4, Opcode.ADDI, rd=t1, rs1=t1, imm=1),
        Instruction(base + 8, Opcode.SW, rs1=a0, rs2=t1, imm=0),
        Instruction(base + 12, Opcode.ADDI, rd=a0, rs1=a0, imm=4),
        Instruction(base + 16, Opcode.ADDI, rd=t0, rs1=t0, imm=-1),
        Instruction(base + 20, Opcode.BNE, rs1=t0, rs2=x(0), imm=-20),
    ]
    lc_a0 = Operand.loop_carried(3, a0)
    lc_t0 = Operand.loop_carried(4, t0)
    nodes = [
        ConfiguredNode(0, instr[0], (0, -1), src1=lc_a0, is_memory=True),
        ConfiguredNode(1, instr[1], (0, 0), src1=Operand.node(0)),
        ConfiguredNode(2, instr[2], (1, -1), src1=lc_a0,
                       src2=Operand.node(1), is_memory=True),
        ConfiguredNode(3, instr[3], (0, 1), src1=lc_a0),
        ConfiguredNode(4, instr[4], (1, 1), src1=lc_t0),
        ConfiguredNode(5, instr[5], (1, 0), src1=Operand.node(4)),
    ]
    return AcceleratorProgram(
        config=cfg,
        nodes=nodes,
        loop_branch_id=5,
        live_in={a0, t0},
        live_out={a0: 3, t0: 4, t1: 1},
    )


def fresh_state(iters: int, base_addr: int = 0x2000) -> MachineState:
    state = MachineState()
    memory = Memory()
    memory.store_words(base_addr, list(range(100)))
    state.memory = memory
    state.write(x(10), base_addr)
    state.write(x(5), iters)
    return state


class TestFunctionalExecution:
    def test_matches_reference_executor(self):
        iters = 10
        accel_state = fresh_state(iters)
        run_result = DataflowEngine(increment_loop_program()).run(accel_state)
        assert run_result.iterations == iters

        prog = assemble(
            f"""
            addi t0, zero, {iters}
            addi a0, zero, 0x2000
            loop:
                lw t1, 0(a0)
                addi t1, t1, 1
                sw t1, 0(a0)
                addi a0, a0, 4
                addi t0, t0, -1
                bne t0, zero, loop
            """
        )
        ref_state = MachineState(pc=prog.base_address)
        ref_memory = Memory()
        ref_memory.store_words(0x2000, list(range(100)))
        ref_state.memory = ref_memory
        run(prog, ref_state)

        for i in range(20):
            assert (accel_state.memory.load_word(0x2000 + 4 * i)
                    == ref_memory.load_word(0x2000 + 4 * i))
        assert accel_state.read(x(10)) == ref_state.read(x(10))
        assert accel_state.read(x(5)) == ref_state.read(x(5))
        assert accel_state.read(x(6)) == ref_state.read(x(6))

    def test_single_iteration(self):
        state = fresh_state(1)
        result = DataflowEngine(increment_loop_program()).run(state)
        assert result.iterations == 1
        assert state.memory.load_word(0x2000) == 1
        assert state.memory.load_word(0x2004) == 1, "untouched word keeps value"

    def test_max_iterations_cap(self):
        state = fresh_state(1000)
        result = DataflowEngine(increment_loop_program()).run(
            state, ExecutionOptions(max_iterations=5))
        assert result.iterations == 5

    def test_predication_matches_reference(self):
        """A forward branch disables a guarded node; the fallback (old
        register value) must flow instead — checked against the ISA model."""
        t0, t2, s0 = x(5), x(7), x(8)
        base = 0x1000
        instr = [
            Instruction(base + 0, Opcode.ANDI, rd=t2, rs1=t0, imm=1),
            Instruction(base + 4, Opcode.BEQ, rs1=t2, rs2=x(0), imm=8),
            Instruction(base + 8, Opcode.ADDI, rd=s0, rs1=s0, imm=1),
            Instruction(base + 12, Opcode.ADDI, rd=t0, rs1=t0, imm=-1),
            Instruction(base + 16, Opcode.BNE, rs1=t0, rs2=x(0), imm=-16),
        ]
        lc_t0 = Operand.loop_carried(3, t0)
        lc_s0 = Operand.loop_carried(2, s0)
        nodes = [
            ConfiguredNode(0, instr[0], (0, 0), src1=lc_t0),
            ConfiguredNode(1, instr[1], (0, 1), src1=Operand.node(0)),
            ConfiguredNode(2, instr[2], (1, 1), src1=lc_s0,
                           guard=Guard(branch_node_id=1, fallback=lc_s0)),
            ConfiguredNode(3, instr[3], (1, 0), src1=lc_t0),
            ConfiguredNode(4, instr[4], (2, 0), src1=Operand.node(3)),
        ]
        program = AcceleratorProgram(
            config=CFG, nodes=nodes, loop_branch_id=4,
            live_in={t0, s0}, live_out={t0: 3, s0: 2, t2: 0},
        )
        state = MachineState()
        state.write(t0, 9)
        result = DataflowEngine(program).run(state)
        assert result.iterations == 9
        # Odd t0 values in 9..1: 9,7,5,3,1 -> 5 increments.
        assert state.read(s0) == 5
        assert state.read(t0) == 0

        ref = run(assemble(
            """
            addi t0, zero, 9
            loop:
                andi t2, t0, 1
                beq t2, zero, skip
                addi s0, s0, 1
            skip:
                addi t0, t0, -1
                bne t0, zero, loop
            """
        ))
        assert state.read(s0) == ref.read(s0)


class TestTiming:
    def test_iteration_latency_includes_memory(self):
        state = fresh_state(10)
        result = DataflowEngine(increment_loop_program()).run(state)
        # Every iteration at minimum: load (L1 hit 2) + addi + store.
        assert result.iteration_latency > 4

    def test_default_run_is_the_loop_plan_run(self):
        """Every run pipelines: the default options drive the loop exactly
        as an unannotated loop's plan does."""
        program = increment_loop_program()
        default = DataflowEngine(program).run(fresh_state(50))
        planned = DataflowEngine(program).run(
            fresh_state(50),
            plan_loop_optimizations(program, False).to_execution_options())
        assert default.cycles == planned.cycles
        assert default.initiation_interval == planned.initiation_interval
        assert default.iteration_latency == planned.iteration_latency
        assert default.activity == planned.activity
        assert default.latency == planned.latency

    @pytest.mark.parametrize("tile", [1, 4])
    def test_cycles_follow_the_pipelined_formula(self, tile):
        result = DataflowEngine(increment_loop_program()).run(
            fresh_state(50), ExecutionOptions(tile_factor=tile))
        assert result.iterations == 50
        assert result.initiation_interval >= 1
        assert result.cycles == (
            result.iteration_latency
            + (math.ceil(50 / tile) - 1) * result.initiation_interval)

    def test_tiling_reduces_cycles_until_ports_saturate(self):
        base = DataflowEngine(increment_loop_program()).run(
            fresh_state(64))
        tiled4 = DataflowEngine(increment_loop_program()).run(
            fresh_state(64), ExecutionOptions(tile_factor=4))
        assert tiled4.cycles < base.cycles

    def test_ideal_ports_beat_limited_ports_when_tiled(self):
        limited = DataflowEngine(increment_loop_program()).run(
            fresh_state(64), ExecutionOptions(tile_factor=16))
        program = increment_loop_program()
        ideal_program = dataclasses.replace(
            program, config=dataclasses.replace(program.config,
                                                memory_ports=math.inf))
        ideal = DataflowEngine(ideal_program).run(
            fresh_state(64), ExecutionOptions(tile_factor=16))
        assert ideal.cycles < limited.cycles

    def test_recurrence_limits_pipelining(self):
        """An FP accumulation's loop-carried chain bounds the II below by
        the FP add latency."""
        fa, fb = x(5), x(6)  # reuse int regs; recurrence uses ADD chain
        base = 0x1000
        instr = [
            Instruction(base + 0, Opcode.ADD, rd=fa, rs1=fa, rs2=fb),
            Instruction(base + 4, Opcode.ADDI, rd=fb, rs1=fb, imm=-1),
            Instruction(base + 8, Opcode.BNE, rs1=fb, rs2=x(0), imm=-8),
        ]
        nodes = [
            ConfiguredNode(0, instr[0], (0, 0),
                           src1=Operand.loop_carried(0, fa),
                           src2=Operand.loop_carried(1, fb)),
            ConfiguredNode(1, instr[1], (0, 1),
                           src1=Operand.loop_carried(1, fb)),
            ConfiguredNode(2, instr[2], (1, 1), src1=Operand.node(1)),
        ]
        program = AcceleratorProgram(config=CFG, nodes=nodes, loop_branch_id=2,
                                     live_in={fa, fb},
                                     live_out={fa: 0, fb: 1})
        state = MachineState()
        state.write(fa, 0)
        state.write(fb, 30)
        result = DataflowEngine(program).run(state)
        assert result.initiation_interval >= 1
        assert state.read(fa) == sum(range(1, 31))


class TestCounters:
    def test_latency_counters_populated(self):
        state = fresh_state(10)
        result = DataflowEngine(increment_loop_program()).run(state)
        lat = result.latency
        # Node 1 (addi) completes after the load (node 0).
        assert lat.node_latency(1) > lat.node_latency(3)
        assert lat.edge_latency(0, 1) >= 1
        assert lat.edge_latency(4, 5) >= 1

    def test_activity_counters(self):
        state = fresh_state(10)
        result = DataflowEngine(increment_loop_program()).run(state)
        act = result.activity
        assert act.loads == 10
        assert act.stores == 10
        assert act.int_ops == 3 * 10  # addi x3 per iteration
        assert act.control_events == 10  # the loop branch

    def test_validation_rejects_shared_pe(self):
        program = increment_loop_program()
        bad = AcceleratorProgram(
            config=CFG,
            nodes=[
                ConfiguredNode(0, program.nodes[1].instruction, (0, 0)),
                ConfiguredNode(1, program.nodes[3].instruction, (0, 0)),
            ],
            loop_branch_id=None,
        )
        with pytest.raises(ValueError, match="share PE"):
            DataflowEngine(bad)

    def test_validation_rejects_forward_reference(self):
        instr = Instruction(0x1000, Opcode.ADDI, rd=x(5), rs1=x(5), imm=1)
        with pytest.raises(ValueError, match="later node"):
            AcceleratorProgram(
                config=CFG,
                nodes=[ConfiguredNode(0, instr, (0, 0), src1=Operand.node(1)),
                       ConfiguredNode(1, instr, (0, 1))],
                loop_branch_id=None,
            ).validate_placement()
