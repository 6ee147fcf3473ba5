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

import collections
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
from repro.accel import engine as engine_module
from repro.core import MesaController
from repro.isa import Instruction, MachineState, Opcode, f, x
from repro.latency import STORE_ISSUE
from repro.mem import Memory
from repro.workloads import build_kernel

from .test_plan_equivalence import (
    KERNELS,
    MODES,
    execute_result,
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


def execute_kernel(name: str, config) -> tuple:
    """One kernel through the full pipeline on the default drive path."""
    kernel = build_kernel(name, iterations=96, seed=1)
    controller = MesaController(config)
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
        overrides = MODES[mode]
        result = execute_result(name, M_128, overrides, True, monkeypatch)
        assert result.drive_path == "batched", result.drive_reason
        assert result.drive_reason == ""
        scalar = execute_on_path(name, M_128, overrides, False, monkeypatch)
        assert result_fingerprint(result) == scalar

    @pytest.mark.parametrize("name", KERNELS)
    @pytest.mark.parametrize("block", (1, 7, 256, 2048, 4096))
    def test_block_size_bit_identical(self, name, block, monkeypatch):
        # The block size is a pure performance knob: one-lane blocks, odd
        # blocks, full blocks and blocks longer than the 96-iteration run
        # (2048, the default, and 4096) all end in the interpreter's
        # state, memory model included.
        monkeypatch.setattr(batch, "DEFAULT_BLOCK", block)
        batched, result = execute_kernel(name, M_128)
        assert result.drive_path == "batched", result.drive_reason
        scalar = execute_on_path(name, M_128, {}, False, monkeypatch)
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


def both_paths(program, make, **overrides):
    """(batched, interpreted) runs of one program/state recipe, whose
    memory models — caches and AMAT counters — must end identical."""
    runs = []
    memories = []
    for compiled in (True, False):
        engine = DataflowEngine(program, compiled=compiled)
        runs.append(engine.run(make(), ExecutionOptions(**overrides)))
        memories.append(memory_fingerprint(engine.hierarchy))
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

    def test_two_overlapping_stores_forward_the_newer(self, monkeypatch):
        # At iteration 10, the run's last, the walking load overlaps both
        # stores of its iteration — the word store and the byte store
        # inside it — and the interpreter steps that iteration.
        monkeypatch.setattr(batch, "DEFAULT_BLOCK", 8)
        program = two_store_forwarding_program()
        target = LOAD_BASE + 4 * 11

        def make():
            return make_state(iterations=30, store_target=target)

        batched, interpreted = both_paths(program, make, max_iterations=11)
        assert batched.drive_path == "batched"
        assert batched.drive_reason == (
            "in-iteration store-to-load forwarding at iteration 10")
        # The load issues before the byte store completes, but its port
        # grant comes after: a plain memory read of the stored bytes.
        activity = batched.activity
        assert activity.lsq_forwards == activity.load_replays == 0
        assert run_fingerprint(batched) == run_fingerprint(interpreted)
        # The load reads the word store's value with the newer byte
        # store's byte inside it.
        state = batched.final_state
        word, byte = state.read(x(7)), state.read(x(6)) & 0xFF
        expected = (word & ~0xFF00 | byte << 8) & 0xFFFFFFFF
        assert state.read(x(8)) & 0xFFFFFFFF == expected

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
            ExecutionOptions(tile_factor=0)


class TestPortCarryFallback:
    """Memory-port state never carries from one iteration into the next:
    each run's pool starts empty, a port frees one cycle after its grant,
    and no access completes sooner."""

    def test_zero_store_issue(self):
        # A store hand-off shorter than a port's one busy cycle could leave
        # the port busy into the next iteration; the constant is never 0.
        assert STORE_ISSUE >= 1

    def test_late_granted_load_frees_its_port(self, monkeypatch):
        # At iteration 10 a walking load reads a slow store's address of
        # its own iteration.  It issues before the store completes, and
        # its read is granted the one port behind seven queued stores.
        # The next iteration's first load asks for the port at that
        # iteration's start, which the batched path assumes idle.
        monkeypatch.setattr(batch, "DEFAULT_BLOCK", 8)
        batched, interpreted = both_paths(stale_read_program(),
                                          stale_read_state)
        assert batched.drive_path == "batched"
        assert batched.drive_reason == (
            "in-iteration store-to-load forwarding at iteration 10")
        assert batched.activity.load_replays == 0
        assert run_fingerprint(batched) == run_fingerprint(interpreted)

    def test_load_granted_after_the_store_pays_no_replay(self, monkeypatch):
        # That iteration-10 load's grant comes after the store completed,
        # so it read the stored value: no replay, no forward, and no
        # REPLAY_PENALTY in the run's timing on either path.
        runs = both_paths(stale_read_program(), stale_read_state)
        monkeypatch.setattr(engine_module, "REPLAY_PENALTY", 1000)
        slow = both_paths(stale_read_program(), stale_read_state)
        for run, penalized in zip(runs, slow):
            assert run.activity.load_replays == 0
            assert run.activity.lsq_forwards == 0
            assert run_fingerprint(run) == run_fingerprint(penalized)


def stale_read_program() -> AcceleratorProgram:
    """A one-port loop: a fixed-address load, a store to ``x14`` whose data
    comes from a chain of five dependent multiplies (about 20 cycles),
    seven stores ready at once, and a load off a walking base that reaches
    ``x14`` at iteration 10."""
    config = AcceleratorConfig(rows=16, cols=8, memory_ports=1)
    base = 0x2000
    chain = 5

    def instr(k, opcode, **fields):
        return Instruction(base + 4 * k, opcode, **fields)

    nodes = [
        ConfiguredNode(0, instr(0, Opcode.ADDI, rd=x(5), rs1=x(5), imm=-1),
                       (0, 0), src1=Operand.loop_carried(0, x(5))),
        ConfiguredNode(1, instr(1, Opcode.ADDI, rd=x(10), rs1=x(10), imm=4),
                       (0, 1), src1=Operand.loop_carried(1, x(10))),
        ConfiguredNode(2, instr(2, Opcode.LW, rd=x(20), rs1=x(15)),
                       (0, -1), src1=Operand.from_register(x(15)),
                       is_memory=True),
    ]
    # x7 = x28 ** (chain + 1), one multiply per PE along row 1 towards
    # the store's entry: 3 cycles each plus a 1-cycle hop between them.
    for j in range(chain):
        first = j == 0
        nodes.append(ConfiguredNode(
            3 + j, instr(3 + j, Opcode.MUL, rd=x(7),
                         rs1=x(28) if first else x(7), rs2=x(28)),
            (1, chain - 1 - j),
            src1=(Operand.from_register(x(28)) if first
                  else Operand.node(2 + j)),
            src2=Operand.from_register(x(28))))
    store = 3 + chain
    nodes.append(ConfiguredNode(
        store, instr(store, Opcode.SW, rs1=x(14), rs2=x(7)),
        (1, -1), src1=Operand.from_register(x(14)),
        src2=Operand.node(store - 1), is_memory=True))
    for j in range(7):
        nodes.append(ConfiguredNode(
            store + 1 + j,
            instr(store + 1 + j, Opcode.SW, rs1=x(16), rs2=x(30), imm=4 * j),
            (2 + j, -1), src1=Operand.from_register(x(16)),
            src2=Operand.from_register(x(30)), is_memory=True))
    load, branch = store + 8, store + 9
    nodes += [
        ConfiguredNode(load, instr(load, Opcode.LW, rd=x(8), rs1=x(10)),
                       (9, -1), src1=Operand.node(1), is_memory=True),
        ConfiguredNode(branch, instr(branch, Opcode.BNE, rs1=x(5), rs2=x(0),
                                     imm=-4 * branch),
                       (3, 0), src1=Operand.node(0)),
    ]
    return AcceleratorProgram(
        config=config, nodes=nodes, loop_branch_id=branch,
        live_in={x(5), x(10), x(14), x(15), x(16), x(28), x(30)},
        live_out={x(8): load, x(5): 0})


def stale_read_state() -> MachineState:
    state = MachineState(memory=Memory())
    for register, value in ((x(5), 30), (x(10), LOAD_BASE),
                            (x(14), LOAD_BASE + 4 * 11), (x(15), 0x8000),
                            (x(16), 0x9000), (x(28), 5), (x(30), 7)):
        state.write(register, value)
    return state


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


def two_store_forwarding_program() -> AcceleratorProgram:
    """:func:`forwarding_program` with a byte store (node 9) into byte 1
    of the word store's target between the word store and the walking
    load, so that whenever the load reaches ``x14`` two stores of its own
    iteration overlap it."""
    program = forwarding_program()
    base = 0x2000
    byte_store = ConfiguredNode(
        9, Instruction(base + 36, Opcode.SB, rs1=x(14), rs2=x(6), imm=1),
        (4, -1), src1=Operand.from_register(x(14)), src2=Operand.node(2),
        is_memory=True)
    load, branch = (dataclasses.replace(
        node, node_id=node.node_id + 1,
        instruction=dataclasses.replace(node.instruction,
                                        address=node.instruction.address + 4))
        for node in program.nodes[9:])
    return dataclasses.replace(
        program, nodes=[*program.nodes[:9], byte_store, load, branch],
        loop_branch_id=11, live_out={**program.live_out, x(8): 10})


def edit_node(program, node_id, **changes):
    nodes = list(program.nodes)
    nodes[node_id] = dataclasses.replace(nodes[node_id], **changes)
    return dataclasses.replace(program, nodes=nodes)


def record_clusters(monkeypatch) -> list:
    """Every recurrence cluster the batch compiler builds from now on."""
    built = []
    make_cluster = batch._make_cluster

    def recording(*args):
        built.append(make_cluster(*args))
        return built[-1]

    monkeypatch.setattr(batch, "_make_cluster", recording)
    return built


def assert_reran(clusters, members):
    """A cluster of ``members``, every one on the fast binding, tripped a
    re-run trigger, so its exact binding was generated."""
    assert any(cluster.fast_members == members
               and cluster.exact is not None for cluster in clusters)


class TestNewFamilyEquivalence:
    """The three families the capability analysis newly admits — guarded
    memory, recurrence clusters, contended NoC rings — plus the
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
        # recurrence cluster replays lane by lane.
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

    def test_cluster_evaluates_each_committed_lane_once(self, monkeypatch):
        # Exit-first evaluation: a block longer than the remaining trip
        # runs only the loop branch's cone (the countdown and its branch)
        # past the exit, so the recurrence cluster's evaluator is called
        # once per iteration that commits, not once per lane of the block.
        # The count is of the lanes its generated function runs on.
        calls = collections.Counter()
        make_cluster = batch._make_cluster

        def counted(node_id, function):
            def wrapper(nb, *args):
                calls[node_id] += nb
                return function(nb, *args)
            return wrapper

        def counting_cluster(comp, nodes, instructions):
            cluster = make_cluster(comp, nodes, instructions)
            cluster.fast = counted(cluster.members[0], cluster.fast)
            return cluster

        monkeypatch.setattr(batch, "_make_cluster", counting_cluster)
        program = loop_program()
        instr = dataclasses.replace(program.nodes[7].instruction,
                                    opcode=Opcode.XOR)
        program = edit_node(program, 7, instruction=instr,
                            src1=Operand.loop_carried(7, x(7)),
                            src2=Operand.node(2), guard=None)
        batched = self.assert_batched_identical(program)
        assert batched.iterations == 50 < batch.DEFAULT_BLOCK
        assert calls == {7: 50}

    @pytest.mark.parametrize("block", (7, 2048))
    def test_nan_reruns_fp_cluster_bit_identical(self, block, monkeypatch):
        # Nodes 4 and 5 couple into an FP cluster on the fast binding; the
        # payloaded NaN loaded at iteration 3 reaches it mid-block, and
        # every block from there re-runs on the exact binding.
        monkeypatch.setattr(batch, "DEFAULT_BLOCK", block)
        built = record_clusters(monkeypatch)
        program = edit_node(loop_program(), 4,
                            src1=Operand.loop_carried(5, f(2)))
        program = edit_node(program, 5, src1=Operand.node(4))
        self.assert_batched_identical(program)
        assert_reran(built, (4, 5))

    @pytest.mark.parametrize("block", (7, 2048))
    def test_int_wrap_reruns_cluster_bit_identical(self, block,
                                                   monkeypatch):
        # x7 doubles from 111 while the guard sees it at least x12 and
        # passes 2**31 at iteration 24: the fast sum leaves signed 32
        # bits, and the block re-runs on the exact binding, whose wrapped
        # x7 turns the guard off for good.
        monkeypatch.setattr(batch, "DEFAULT_BLOCK", block)
        built = record_clusters(monkeypatch)
        carried = Operand.loop_carried(7, x(7))
        program = edit_node(loop_program(), 6, src1=carried)
        program = edit_node(program, 7, src1=carried, src2=carried,
                            guard=Guard(6, carried))
        self.assert_batched_identical(program)
        assert_reran(built, (6, 7))

    def test_cluster_block_boundaries_bit_identical(self, monkeypatch):
        # The cluster's loop-carried seam must carry across blocks.
        monkeypatch.setattr(batch, "DEFAULT_BLOCK", 7)
        program = loop_program()
        guard = dataclasses.replace(
            program.nodes[7].guard,
            fallback=Operand.loop_carried(7, x(7)))
        program = edit_node(program, 7, guard=guard)
        self.assert_batched_identical(program)
