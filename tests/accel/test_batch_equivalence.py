"""Golden equivalence: the batched (vectorized-block) engine path.

The batched executor (:mod:`repro.accel.batch`) advances whole blocks of
fabric iterations as numpy vectors.  Its contract is the same as the
execution plan's: **bit-identical** results to the interpreter on every
program its capability analysis accepts — cycles, counters, per-node and
per-edge latencies, registers (by IEEE bit pattern) and memory (byte for
byte).  These tests hold it to that contract through the full controller
pipeline, through direct engine runs over hand-built programs that hit the
tricky corners (block boundaries, loop-carried reductions, predication,
NaN payloads, blocks truncated at a store-to-load alias, interpreter steps
for in-iteration forwarding), and across block sizes.
"""

from __future__ import annotations

import dataclasses

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
from repro.accel import M_128, batch
from repro.core import MesaController
from repro.isa import Instruction, MachineState, Opcode, f, x
from repro.latency import LatencyTable
from repro.mem import Memory, MemoryPorts
from repro.workloads import build_kernel

from .test_plan_equivalence import (
    KERNELS,
    MODES,
    memory_fingerprint,
    result_fingerprint,
    run_fingerprint,
)
from .test_plan_equivalence import execute_kernel as execute_on_path

CFG = AcceleratorConfig(rows=16, cols=8)

#: Base of the integer load region staged by :func:`make_state`.
LOAD_BASE = 0x100
#: Offset from the integer region to the float region.
FP_OFFSET = 0x200


def execute_kernel(name: str, config, options=None) -> tuple:
    """One kernel through the full pipeline on the default drive path."""
    kernel = build_kernel(name, iterations=96, seed=1)
    controller = MesaController(config, options=options)
    result = controller.execute(kernel.program, kernel.state_factory,
                                parallelizable=kernel.parallelizable)
    return result_fingerprint(result), result


class TestPipelineEquivalence:
    @pytest.mark.parametrize("name", KERNELS)
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_batched_vs_scalar_bit_identical(self, name, mode, monkeypatch):
        # Every kernel here batches end to end (bfs included: its
        # load-dependent store addresses are handled by first-hazard
        # truncation) and matches the scalar reference, the interpreter.
        options = MODES[mode]
        batched, result = execute_kernel(name, M_128, options)
        assert result.drive_path == "batched", result.drive_reason
        assert result.drive_reason == ""
        scalar = execute_on_path(name, M_128, options, False, monkeypatch)
        assert batched == scalar

    @pytest.mark.parametrize("name", KERNELS)
    @pytest.mark.parametrize("block", (1, 7, 256))
    def test_block_size_bit_identical(self, name, block, monkeypatch):
        # The block size is a pure performance knob: one-lane blocks, odd
        # blocks and full blocks all end in the interpreter's state, memory
        # model included.
        monkeypatch.setattr(batch, "DEFAULT_BLOCK", block)
        batched, result = execute_kernel(name, M_128)
        assert result.drive_path == "batched", result.drive_reason
        scalar = execute_on_path(name, M_128, None, False, monkeypatch)
        assert batched == scalar

    def test_fallback_reason_is_reported(self):
        # A plan the capability analysis rejects runs on the interpreter,
        # and the run says why.
        program = dataclasses.replace(
            loop_program(), config=dataclasses.replace(CFG, xlen=64))
        run = DataflowEngine(program).run(make_state())
        reference = DataflowEngine(program, compiled=False).run(make_state())
        assert run.drive_path == "interpreted"
        assert run.drive_reason == "xlen 64"
        assert run_fingerprint(run) == run_fingerprint(reference)

    def test_batchable_kernel_reports_batched(self):
        _, result = execute_kernel("hotspot", M_128)
        assert result.accelerated
        assert result.drive_path == "batched"
        assert result.drive_reason == ""

    def test_noc_contended_kernel_reports_batched(self):
        # kmeans fans one producer out across a row — two NoC slots on
        # one ring channel, formerly a fallback, now reproduced by the
        # closed-form grant chain.
        _, result = execute_kernel("kmeans", M_128)
        assert result.accelerated
        assert result.drive_path == "batched"
        assert result.drive_reason == ""


def loop_program(store_offset: int = 0x400,
                 store_base_register: bool = False) -> AcceleratorProgram:
    """A compact loop exercising every batched-path mechanism at once:
    two addi reductions (countdown + address walk), int and float loads,
    an FADD loop-carried accumulation, NaN-capable FP compute, a guarded
    add with a loop-carried fallback, a store, and the loop branch.

    ``store_base_register`` pins the store's address to the live-in
    ``x14`` instead of the walking base — with the right ``store_offset``
    that plants an alias a later load trips over mid-run.
    """
    base = 0x2000
    store_src1 = (Operand.from_register(x(14)) if store_base_register
                  else Operand.node(1))
    nodes = [
        # 0: countdown t0 -= 1 (closed-form addi reduction)
        ConfiguredNode(0, Instruction(base, Opcode.ADDI, rd=x(5), rs1=x(5),
                                      imm=-1),
                       (0, 0), src1=Operand.loop_carried(0, x(5))),
        # 1: address walk a0 += 4 (second reduction)
        ConfiguredNode(1, Instruction(base + 4, Opcode.ADDI, rd=x(10),
                                      rs1=x(10), imm=4),
                       (0, 1), src1=Operand.loop_carried(1, x(10))),
        # 2: integer load off the walking base
        ConfiguredNode(2, Instruction(base + 8, Opcode.LW, rd=x(6),
                                      rs1=x(10), imm=0),
                       (0, -1), src1=Operand.node(1), is_memory=True),
        # 3: float load (the staged region includes NaN payloads)
        ConfiguredNode(3, Instruction(base + 12, Opcode.FLW, rd=f(1),
                                      rs1=x(10), imm=FP_OFFSET),
                       (1, -1), src1=Operand.node(1), is_memory=True),
        # 4: loop-carried FP accumulation (float32 prefix scan)
        ConfiguredNode(4, Instruction(base + 16, Opcode.FADD_S, rd=f(2),
                                      rs1=f(2), rs2=f(1)),
                       (1, 0), src1=Operand.loop_carried(4, f(2)),
                       src2=Operand.node(3)),
        # 5: NaN-propagating FP compute
        ConfiguredNode(5, Instruction(base + 20, Opcode.FMUL_S, rd=f(3),
                                      rs1=f(1), rs2=f(1)),
                       (1, 1), src1=Operand.node(3), src2=Operand.node(3)),
        # 6: guard branch — disables node 7 when the loaded int < x12
        ConfiguredNode(6, Instruction(base + 24, Opcode.BLT, rs1=x(6),
                                      rs2=x(12), imm=8),
                       (2, 0), src1=Operand.node(2),
                       src2=Operand.from_register(x(12))),
        # 7: guarded add; disabled lanes forward the *previous*
        # iteration's loaded value (a non-self loop-carried fallback)
        ConfiguredNode(7, Instruction(base + 28, Opcode.ADD, rd=x(7),
                                      rs1=x(6), rs2=x(13)),
                       (2, 1), src1=Operand.node(2),
                       src2=Operand.from_register(x(13)),
                       guard=Guard(6, Operand.loop_carried(2, x(6)))),
        # 8: store the guarded result
        ConfiguredNode(8, Instruction(base + 32, Opcode.SW, rs1=x(10),
                                      rs2=x(7), imm=store_offset),
                       (2, -1), src1=store_src1, src2=Operand.node(7),
                       is_memory=True),
        # 9: loop branch — repeat while the countdown is nonzero
        ConfiguredNode(9, Instruction(base + 36, Opcode.BNE, rs1=x(5),
                                      rs2=x(0), imm=-36),
                       (3, 0), src1=Operand.node(0)),
    ]
    return AcceleratorProgram(
        config=CFG, nodes=nodes, loop_branch_id=9,
        live_in={x(5), x(6), x(10), x(12), x(13), x(14), x(7), f(2)},
        live_out={x(5): 0, x(6): 2, x(7): 7, f(2): 4, f(3): 5},
    )


def make_state(iterations: int = 50, store_target: int = 0) -> MachineState:
    state = MachineState(memory=Memory())
    state.write(x(5), iterations)
    state.write(x(10), LOAD_BASE)
    state.write(x(12), 7)      # guard threshold
    state.write(x(13), 3)
    state.write(x(14), store_target)
    state.write(x(6), 21)      # loop-carried fallback seed
    state.write(x(7), 111)
    state.write(f(2), 0.5)     # accumulator seed
    for i in range(iterations + 2):
        address = LOAD_BASE + 4 * (i + 1)
        state.memory.store_words(address, [(i * 2654435761) % 97 - 48])
        if i % 7 == 3:
            # Payloaded NaNs and a negative zero in the float region.
            raw = 0x7FC00001 if i % 2 else 0x80000000
            state.memory.store(address + FP_OFFSET, 4, raw)
        else:
            state.memory.store_floats(address + FP_OFFSET,
                                      [(i - 20) * 0.3125])
    return state


def both_paths(program, make, ports=None, **overrides):
    """(batched, interpreted) runs of one program/state recipe, whose
    memory models — caches, AMAT counters, ports — must end identical.

    ``ports`` makes each path's port pool (default: the config's count).
    """
    runs = []
    memories = []
    for compiled in (True, False):
        engine = DataflowEngine(program, compiled=compiled)
        pool = (ports() if ports is not None
                else MemoryPorts(program.config.memory_ports))
        runs.append(engine.run(make(), ExecutionOptions(ports=pool,
                                                        **overrides)))
        memories.append(memory_fingerprint(engine.hierarchy, pool))
    assert memories[0] == memories[1]
    return tuple(runs)


class TestDirectEngineEquivalence:
    def test_disjoint_store_is_batchable_and_bit_identical(self):
        program = loop_program()
        batched, interpreted = both_paths(program, make_state)
        assert batched.drive_path == "batched"
        assert batched.drive_reason == ""
        assert run_fingerprint(batched) == run_fingerprint(interpreted)

    @pytest.mark.parametrize("block", (1, 3, 7, 64, 4096))
    def test_block_boundaries_bit_identical(self, block, monkeypatch):
        monkeypatch.setattr(batch, "DEFAULT_BLOCK", block)
        batched, interpreted = both_paths(loop_program(), make_state)
        assert batched.drive_path == "batched"
        assert run_fingerprint(batched) == run_fingerprint(interpreted)

    def test_mid_run_alias_truncates_block_bit_identical(self, monkeypatch):
        # The store writes a fixed address the walking load reaches at
        # iteration 10 — inside the *second* block of 8, which must commit
        # only its first two iterations and start the next block at the
        # aliasing load.
        monkeypatch.setattr(batch, "DEFAULT_BLOCK", 8)
        program = loop_program(store_offset=0, store_base_register=True)
        target = LOAD_BASE + 4 * 11

        def make():
            return make_state(iterations=30, store_target=target)

        batched, interpreted = both_paths(program, make)
        assert batched.drive_path == "batched"
        assert batched.drive_reason == ""
        assert batched.iterations == 30
        assert run_fingerprint(batched) == run_fingerprint(interpreted)

    def test_first_block_alias_truncates_bit_identical(self):
        # Store at base+4: iteration k writes the address iteration k+1
        # loads, so every block is cut after its first iteration and the
        # whole run still drives batched.
        program = loop_program(store_offset=4)
        batched, interpreted = both_paths(program, make_state)
        assert batched.drive_path == "batched"
        assert batched.drive_reason == ""
        assert run_fingerprint(batched) == run_fingerprint(interpreted)

    def test_in_iteration_forward_steps_interpreter(self, monkeypatch):
        # The store writes the fixed address x14, and a second walking
        # load placed after it reaches that address at iteration 10: the
        # one iteration where the load forwards from the store of its own
        # iteration.  The block of iterations 8-15 is cut at iteration 10
        # (the first walking load also reads the earlier stores there),
        # and the next block starts with the forward, which only the
        # interpreter executes — then batching resumes.
        monkeypatch.setattr(batch, "DEFAULT_BLOCK", 8)
        program = forwarding_program()
        target = LOAD_BASE + 4 * 11

        def make():
            return make_state(iterations=30, store_target=target)

        batched, interpreted = both_paths(program, make)
        assert batched.drive_path == "batched"
        assert batched.drive_reason == (
            "in-iteration store-to-load forwarding at iteration 10")
        assert batched.iterations == 30
        # The forward is modeled (here as a speculative load's replay).
        activity = batched.activity
        assert activity.lsq_forwards + activity.load_replays == 1
        assert run_fingerprint(batched) == run_fingerprint(interpreted)

    def test_max_iterations_cut_bit_identical(self):
        program = loop_program()
        batched, interpreted = both_paths(program, make_state,
                                          max_iterations=13)
        assert batched.iterations == 13
        assert batched.drive_path == "batched"
        assert run_fingerprint(batched) == run_fingerprint(interpreted)

    def test_single_iteration_loop(self):
        program = loop_program()
        batched, interpreted = both_paths(
            program, lambda: make_state(iterations=1))
        assert batched.iterations == 1
        assert run_fingerprint(batched) == run_fingerprint(interpreted)

    def test_batch_disabled_pins_scalar_loop(self):
        # compiled=False pins the interpreter, the scalar reference; it is
        # a choice, not a fallback, so no reason is reported.
        run = DataflowEngine(loop_program(), compiled=False).run(make_state())
        assert run.drive_path == "interpreted"
        assert run.drive_reason == ""

    def test_options_validation(self):
        with pytest.raises(ValueError):
            ExecutionOptions(replay_penalty=-1)
        with pytest.raises(ValueError):
            ExecutionOptions(tile_factor=0)


class TestPortCarryFallback:
    """When memory-port state can carry from one iteration into the next,
    the drive steps those iterations on the interpreter: the run still
    reports the batched path, stays bit-identical, and names the reason."""

    def assert_stepped_identical(self, program, reason, ports=None):
        batched, interpreted = both_paths(program, make_state, ports=ports)
        assert batched.drive_path == "batched"
        assert batched.drive_reason == reason
        assert run_fingerprint(batched) == run_fingerprint(interpreted)

    def test_slow_issue_interval(self):
        self.assert_stepped_identical(
            loop_program(),
            "memory ports carry into iteration 0: "
            "port issue interval 3 > L1 hit latency 2",
            ports=lambda: MemoryPorts(1, issue_interval=3))

    def test_zero_store_issue(self):
        config = dataclasses.replace(CFG, latencies=LatencyTable(
            store_issue=0))
        self.assert_stepped_identical(
            dataclasses.replace(loop_program(), config=config),
            "memory ports carry into iteration 0: "
            "port issue interval 1 > store issue 0")

    def test_pending_grants_from_an_earlier_run(self):
        # A shared pool still holds the first run's grants when the second
        # run starts its clock at 0; once they drain, batching resumes.
        def used_ports():
            ports = MemoryPorts(1)
            DataflowEngine(loop_program(), compiled=False).run(
                make_state(), ExecutionOptions(ports=ports))
            return ports

        self.assert_stepped_identical(
            loop_program(),
            "memory ports still busy at the start of iteration 0",
            ports=used_ports)


def forwarding_program() -> AcceleratorProgram:
    """:func:`loop_program` with its store pinned to ``x14`` and a second
    walking load (node 9) after it, so the load forwards from the store of
    its own iteration whenever it reaches ``x14``."""
    program = loop_program(store_offset=0, store_base_register=True)
    base = 0x2000
    load = ConfiguredNode(9, Instruction(base + 36, Opcode.LW, rd=x(8),
                                         rs1=x(10), imm=0),
                          (3, -1), src1=Operand.node(1), is_memory=True)
    branch = program.nodes[9]
    branch = dataclasses.replace(
        branch, node_id=10,
        instruction=dataclasses.replace(branch.instruction,
                                        address=base + 40))
    return dataclasses.replace(
        program, nodes=[*program.nodes[:9], load, branch],
        loop_branch_id=10, live_out={**program.live_out, x(8): 9})


def edit_node(program, node_id, **changes):
    nodes = list(program.nodes)
    nodes[node_id] = dataclasses.replace(nodes[node_id], **changes)
    return dataclasses.replace(program, nodes=nodes)


class TestNewFamilyEquivalence:
    """The three families the capability analysis newly admits — guarded
    memory, microloop recurrence clusters, contended NoC rings — plus the
    guard-ordering rule, each held to bit identity against the interpreter.
    """

    def assert_batched_identical(self, program, make=make_state, **overrides):
        batched, interpreted = both_paths(program, make, **overrides)
        assert batched.drive_path == "batched", batched.drive_reason
        assert run_fingerprint(batched) == run_fingerprint(interpreted)
        return batched

    def test_guarded_store_bit_identical(self):
        # The store inherits node 7's guard: off lanes must skip the
        # alias check, the port walk, and the write itself.
        program = loop_program()
        program = edit_node(program, 8, guard=program.nodes[7].guard)
        self.assert_batched_identical(program)

    def test_guarded_load_bit_identical(self):
        # Node 8 becomes a guarded load off the walking base: on lanes
        # gather through the masked bulk read, off lanes forward the
        # loop-carried fallback and charge neither ports nor AMAT.
        program = loop_program()
        instr = Instruction(0x2000 + 32, Opcode.LW, rd=x(8), rs1=x(10),
                            imm=0x400)
        program = edit_node(program, 8, instruction=instr,
                            src1=Operand.node(1), src2=Operand.none(),
                            guard=Guard(6, Operand.loop_carried(2, x(6))))
        program = dataclasses.replace(
            program, live_out={**program.live_out, x(8): 8})
        self.assert_batched_identical(program)

    def test_guard_fallback_recurrence_bit_identical(self):
        # x7 = taken ? new : old(x7) — a data-dependent recurrence the
        # microloop cluster replays lane by lane.
        program = loop_program()
        guard = dataclasses.replace(
            program.nodes[7].guard,
            fallback=Operand.loop_carried(7, x(7)))
        self.assert_batched_identical(edit_node(program, 7, guard=guard))

    def test_non_scan_cluster_bit_identical(self):
        # x7 = x7 XOR load has no closed scan form; the cluster path must
        # still match the interpreter exactly.
        program = loop_program()
        instr = dataclasses.replace(program.nodes[7].instruction,
                                    opcode=Opcode.XOR)
        program = edit_node(program, 7, instruction=instr,
                            src1=Operand.loop_carried(7, x(7)),
                            src2=Operand.node(2), guard=None)
        self.assert_batched_identical(program)

    def test_coupled_recurrence_bit_identical(self):
        # Nodes 0 and 7 cross-couple into a two-node cycle; the countdown
        # is gone, so the iteration cap bounds the run.
        program = loop_program()
        program = edit_node(program, 0,
                            src1=Operand.loop_carried(7, x(7)))
        program = edit_node(program, 7, src2=Operand.node(0), guard=None)
        run = self.assert_batched_identical(program, max_iterations=20)
        assert run.iterations == 20

    def test_guard_after_consumer_is_inert_bit_identical(self):
        # Guard-ordering rule: a guard whose branch does not precede the
        # consumer can never fire in the scalar walk, so the batched path
        # must treat it as absent — not apply it with this iteration's
        # branch outcome.
        program = loop_program()
        program = edit_node(program, 5, guard=Guard(6, Operand.node(3)))
        self.assert_batched_identical(program)

    def test_cluster_block_boundaries_bit_identical(self, monkeypatch):
        # The cluster's loop-carried seam must carry across blocks.
        monkeypatch.setattr(batch, "DEFAULT_BLOCK", 7)
        program = loop_program()
        guard = dataclasses.replace(
            program.nodes[7].guard,
            fallback=Operand.loop_carried(7, x(7)))
        program = edit_node(program, 7, guard=guard)
        self.assert_batched_identical(program)
