"""Batched-path capability analysis: frozen verdicts and unit reasons.

The capability analysis in :mod:`repro.accel.batch` decides — per compiled
plan — whether the vectorized block executor can reproduce the interpreter
bit for bit, and says *why not* when it can't.  Two kinds of regression are
frozen here:

* the verdict for every Rodinia kernel at M-128, so a change that silently
  stops batching (or starts batching something unsound) fails loudly, and
  which recurrence-cluster members take the fast binding; and
* unit tests pinning each machine-readable fallback reason to a minimal
  program that triggers it, plus the acceptance shape (cluster membership,
  contended-ring detection, schedule order) for the families the analysis
  now admits: guarded memory, loop-carried recurrence clusters, and
  closed-form NoC ring queueing.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.accel import (
    AcceleratorConfig,
    AcceleratorProgram,
    ConfiguredNode,
    DataflowEngine,
    Guard,
    M_128,
    Operand,
)
from repro.accel.batch import compile_batch
from repro.core import MesaController, MesaOptions
from repro.isa import Instruction, MachineState, Opcode, x
from repro.workloads import build_kernel, kernel_names

from .test_batch_equivalence import loop_program
from .test_plan_equivalence import run_fingerprint

#: Frozen verdict per kernel at M-128: "batched", a fallback reason, or
#: None when the controller does not accelerate the kernel at all.
EXPECTED = {
    "backprop": "batched",
    "bfs": "batched",
    "btree": None,
    "cfd": "batched",
    "gaussian": "batched",
    "heartwall": "batched",
    "hotspot": "batched",
    "hotspot3d": "batched",
    "kmeans": "batched",
    "lavamd": "batched",
    "leukocyte": "batched",
    "lud": "batched",
    "myocyte": "batched",
    "nn": "batched",
    "nw": "batched",
    "particlefilter": "batched",
    "pathfinder": "batched",
    "srad": None,
    "streamcluster": "batched",
}


def test_expected_covers_every_kernel():
    assert set(EXPECTED) == set(kernel_names())


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_kernel_verdict_frozen(name):
    kernel = build_kernel(name, iterations=64, seed=1)
    controller = MesaController(M_128, options=MesaOptions())
    result = controller.execute(kernel.program, kernel.state_factory,
                                parallelizable=kernel.parallelizable)
    expected = EXPECTED[name]
    if expected is None:
        assert not result.accelerated
    elif expected == "batched":
        assert result.accelerated
        assert result.drive_path == "batched", result.drive_reason
    else:
        assert result.accelerated
        assert result.drive_path == "interpreted"
        assert result.drive_reason == expected


@pytest.mark.parametrize("name", sorted(name for name, verdict
                                         in EXPECTED.items()
                                         if verdict == "batched"))
def test_kernel_exit_cone_is_counter_and_branch(name):
    # Exit-first evaluation is cheap because every batched kernel's loop
    # branch depends on its counter alone.
    kernel = build_kernel(name, iterations=64, seed=1)
    result = MesaController(M_128).execute(
        kernel.program, kernel.state_factory,
        parallelizable=kernel.parallelizable)
    bp = compile_batch(DataflowEngine(result.accel_program).plan)
    counter, branch = bp.exit_order
    assert branch == bp.loop_id
    assert bp.nodes[counter].opcode is Opcode.ADDI
    assert sorted(bp.exit_order + bp.rest_order) == sorted(bp.order)


#: The members on the fast binding, per recurrence cluster, of every
#: batched kernel at M-128 (kernels without a cluster: none).  myocyte's
#: coupled FP updates and nw's guarded max chain bind every member, so a
#: change that silently drops one to its closure fails here.
FAST_MEMBERS = {
    "myocyte": [(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)],
    "nw": [(4, 6, 7, 8, 9, 11)],
}


@pytest.mark.parametrize("name", sorted(name for name, verdict
                                         in EXPECTED.items()
                                         if verdict == "batched"))
def test_kernel_cluster_bindings_frozen(name):
    kernel = build_kernel(name, iterations=64, seed=1)
    result = MesaController(M_128).execute(
        kernel.program, kernel.state_factory,
        parallelizable=kernel.parallelizable)
    bp = compile_batch(DataflowEngine(result.accel_program).plan)
    assert [cluster.fast_members for cluster in bp.clusters] \
        == FAST_MEMBERS.get(name, [])
    for cluster in bp.clusters:
        assert cluster.fast_members == tuple(cluster.members)


# -- unit reasons and acceptance shapes over minimal programs -----------------

CFG = AcceleratorConfig(rows=16, cols=8)


def batch_program(program):
    return compile_batch(DataflowEngine(program).plan)


def reason_for(program) -> str:
    capability = batch_program(program).capability
    assert not capability
    return capability.reason


def edit_node(program, node_id, **changes):
    nodes = list(program.nodes)
    nodes[node_id] = dataclasses.replace(nodes[node_id], **changes)
    return dataclasses.replace(program, nodes=nodes)


def test_no_loop_branch():
    program = loop_program()
    single = dataclasses.replace(
        program,
        nodes=program.nodes[:9],
        loop_branch_id=None,
        live_out={x(6): 2, x(7): 7},
    )
    assert reason_for(single) == "no loop branch (single-shot region)"


def test_xlen_64_rejected():
    program = dataclasses.replace(
        loop_program(), config=dataclasses.replace(CFG, xlen=64))
    assert reason_for(program) == "xlen 64"


def test_wide_memory_access_rejected():
    # A doubleword load exceeds the 4-byte lanes the vectorized gather
    # models; only word-and-narrower accesses batch.
    program = loop_program()
    instr = dataclasses.replace(program.nodes[2].instruction,
                                opcode=Opcode.LD)
    program = edit_node(program, 2, instruction=instr)
    assert reason_for(program) == "wide memory access"


def test_guarded_store_accepted():
    # A predicated store batches: off lanes are masked out of the alias
    # check, the port walk, and the hierarchy, exactly like a
    # predicated-off access that never issues.
    program = loop_program()
    guard = program.nodes[7].guard
    capability = batch_program(edit_node(program, 8, guard=guard)).capability
    assert capability
    assert capability.reason == ""


def test_self_referential_guard_fallback_clusters():
    # x7 = taken ? new : old(x7) is a data-dependent recurrence; it now
    # batches through a single-member recurrence cluster on node 7.
    program = loop_program()
    guard = program.nodes[7].guard
    guard = dataclasses.replace(
        guard, fallback=Operand.loop_carried(7, x(7)))
    bp = batch_program(edit_node(program, 7, guard=guard))
    assert bp.capability
    assert [list(c.members) for c in bp.clusters] == [[7]]


def test_non_scan_self_loop_clusters():
    # node 7 becomes x7 = x7 XOR load — XOR has no closed scan form, so
    # the node demotes to a single-member recurrence cluster.
    program = loop_program()
    node = program.nodes[7]
    instr = dataclasses.replace(node.instruction, opcode=Opcode.XOR)
    bp = batch_program(edit_node(program, 7, instruction=instr,
                                 src1=Operand.loop_carried(7, x(7)),
                                 src2=Operand.node(2), guard=None))
    assert bp.capability
    assert [list(c.members) for c in bp.clusters] == [[7]]


def coupled_program():
    # Cross-coupled: node 0 feeds on node 7's previous value while node 7
    # feeds on node 0 — a two-node cycle in the dependence graph.
    program = loop_program()
    program = edit_node(program, 0, src1=Operand.loop_carried(7, x(7)))
    return edit_node(program, 7, src2=Operand.node(0), guard=None)


def test_coupled_recurrence_clusters():
    bp = batch_program(coupled_program())
    assert bp.capability
    assert [list(c.members) for c in bp.clusters] == [[0, 7]]


def test_cluster_schedule_order_pinned():
    # The condensation topo sort (heapq over component keys) must pop in
    # the same order the old min()-scan did: smallest ready key first.
    # For the coupled program the {0, 7} cluster becomes ready only after
    # node 2 (node 7 reads the load), pinning this exact order.
    bp = batch_program(coupled_program())
    assert bp.order == [1, 2, 0, 7, 3, 4, 5, 6, 8, 9]


def test_exit_cone_keeps_clusters_whole():
    # The loop branch (9) reads node 0, which is in the {0, 7} cluster;
    # node 7 reads the load (2) off the walking base (1).  The cone takes
    # all of them, the cluster whole, in schedule order.
    bp = batch_program(coupled_program())
    assert bp.exit_order == [1, 2, 0, 7, 9]
    assert bp.rest_order == [3, 4, 5, 6, 8]


def test_memory_recurrence_rejected():
    # A load whose address chains through its own previous value would
    # put a memory access inside a recurrence cluster, where the port and
    # cache walk cannot replay — the analysis must refuse.
    program = loop_program()
    program = edit_node(program, 2, src1=Operand.loop_carried(2, x(6)))
    assert reason_for(program) == "loop-carried recurrence through memory"


def test_forward_fallback_edge_rejected():
    # A guard fallback naming a *later* node's same-iteration output
    # breaks the id-ordered block sweep (plan compilation already rejects
    # forward src operands; the fallback is the one route left).
    program = loop_program()
    guard = dataclasses.replace(program.nodes[7].guard,
                                fallback=Operand.node(8))
    program = edit_node(program, 7, guard=guard)
    assert reason_for(program) == "forward same-iteration edge"


def test_load_dependent_store_addressing():
    # Store address computed from a loaded value (bfs's shape): every
    # access before a block's first store-to-load hazard is exact, so the
    # block is cut there and the run still batches bit-identically.
    from repro.accel import ExecutionOptions

    from .test_batch_equivalence import make_state
    from .test_plan_equivalence import run_fingerprint

    # The loaded words span [-48, 48], so the stores land all over the
    # window the walking loads read next.
    program = loop_program(store_offset=0x100 + 100)
    program = edit_node(program, 8, src1=Operand.node(2))
    assert batch_program(program).capability
    batched = DataflowEngine(program).run(make_state(), ExecutionOptions())
    interpreted = DataflowEngine(program, compiled=False).run(
        make_state(), ExecutionOptions())
    assert batched.drive_path == "batched"
    assert run_fingerprint(batched) == run_fingerprint(interpreted)


def test_operand_dtype_mismatch():
    # An integer add fed by a float producer — int() coercion on the
    # scalar path has no exact vector form.
    program = loop_program()
    program = edit_node(program, 7, src2=Operand.node(5), guard=None)
    assert reason_for(program) == "operand dtype mismatch"


@pytest.mark.parametrize("opcode", [Opcode.DIV, Opcode.MULHU],
                         ids=["div", "mulhu"])
def test_laneless_opcode_falls_back_with_its_row_reason(opcode):
    # The guarded add becomes an opcode whose row in the opcode table has
    # no lane form: the plan runs on the interpreter, says why, and the
    # run is the interpreter's bit for bit.
    from .test_batch_equivalence import make_state
    from .test_plan_equivalence import run_fingerprint

    program = loop_program()
    instr = dataclasses.replace(program.nodes[7].instruction, opcode=opcode)
    program = edit_node(program, 7, instruction=instr)
    reason = f"no lane form for {opcode.value}: no exact int64 lane form"
    assert reason_for(program) == reason
    run = DataflowEngine(program).run(make_state())
    reference = DataflowEngine(program, compiled=False).run(make_state())
    assert run.drive_path == "interpreted"
    assert run.drive_reason == reason
    assert run_fingerprint(run) == run_fingerprint(reference)


def test_batchable_program_accepts():
    capability = compile_batch(DataflowEngine(loop_program()).plan).capability
    assert capability
    assert capability.reason == ""


def noc_program(guarded_fallback: bool = False) -> AcceleratorProgram:
    """One producer fanned out to two far-away consumers: both transfers
    ride the row-0 ring channel, so the channel is contended and the
    closed-form queueing model must engage.  With ``guarded_fallback``
    the second consumer is predicated and its fallback transfer shares
    the same contended channel — a data-dependent request order the
    closed-form chain cannot replay.
    """
    base = 0x3000
    nodes = [
        ConfiguredNode(0, Instruction(base, Opcode.ADDI, rd=x(5), rs1=x(5),
                                      imm=-1),
                       (0, 0), src1=Operand.loop_carried(0, x(5))),
        ConfiguredNode(1, Instruction(base + 4, Opcode.ADDI, rd=x(10),
                                      rs1=x(10), imm=4),
                       (0, 1), src1=Operand.loop_carried(1, x(10))),
        ConfiguredNode(2, Instruction(base + 8, Opcode.BLT, rs1=x(5),
                                      rs2=x(12), imm=8),
                       (1, 1), src1=Operand.node(0),
                       src2=Operand.from_register(x(12))),
        ConfiguredNode(3, Instruction(base + 12, Opcode.ADD, rd=x(6),
                                      rs1=x(10), rs2=x(13)),
                       (13, 7), src1=Operand.node(1),
                       src2=Operand.from_register(x(13))),
        ConfiguredNode(4, Instruction(base + 16, Opcode.ADD, rd=x(7),
                                      rs1=x(10), rs2=x(12)),
                       (12, 7), src1=Operand.node(1),
                       src2=Operand.from_register(x(12)),
                       guard=(Guard(2, Operand.loop_carried(1, x(10)))
                              if guarded_fallback else None)),
        ConfiguredNode(5, Instruction(base + 20, Opcode.BNE, rs1=x(5),
                                      rs2=x(0), imm=-20),
                       (1, 0), src1=Operand.node(0)),
    ]
    return AcceleratorProgram(
        config=CFG, nodes=nodes, loop_branch_id=5,
        live_in={x(5), x(10), x(12), x(13)},
        live_out={x(5): 0, x(6): 3, x(7): 4},
    )


def test_noc_contention_accepted_with_closed_form():
    bp = batch_program(noc_program())
    assert bp.capability
    assert sorted(bp.noc_rows) == [0]


def test_noc_closed_form_bit_identical():
    # The grant chain must replay the interpreter's ring arbitration
    # exactly — departures, per-edge latencies, and the NoC wait counter.
    from repro.accel import ExecutionOptions
    from repro.isa import MachineState
    from repro.mem import Memory

    from .test_plan_equivalence import run_fingerprint

    def make():
        state = MachineState(memory=Memory())
        state.write(x(5), 40)
        state.write(x(10), 0x100)
        state.write(x(12), 7)
        state.write(x(13), 3)
        return state

    program = noc_program()
    batched = DataflowEngine(program).run(make(), ExecutionOptions())
    interpreted = DataflowEngine(program, compiled=False).run(
        make(), ExecutionOptions())
    assert batched.drive_path == "batched"
    assert batched.activity.noc_wait_cycles > 0
    assert run_fingerprint(batched) == run_fingerprint(interpreted)


def test_noc_fallback_on_contended_row_rejected():
    assert (reason_for(noc_program(guarded_fallback=True))
            == "data-dependent NoC channel order")


def test_noc_contention_kmeans_accepted():
    # kmeans fans one producer across a row — formerly the poster child
    # for the contention fallback, now batched through the grant chain.
    kernel = build_kernel("kmeans", iterations=64, seed=1)
    controller = MesaController(M_128, options=MesaOptions())
    result = controller.execute(kernel.program, kernel.state_factory,
                                parallelizable=kernel.parallelizable)
    assert result.accel_program is not None
    bp = compile_batch(
        DataflowEngine(result.accel_program,
                       interconnect=controller.interconnect).plan)
    assert bp.capability
    assert bp.noc_rows


def guards_program(guards: int) -> AcceleratorProgram:
    """A countdown loop with ``guards`` guard branches, each predicating
    one add of the counter (its fallback a live-in register) while the
    counter is below its own threshold register."""
    base = 0x4000
    nodes = [ConfiguredNode(0, Instruction(base, Opcode.ADDI, rd=x(5),
                                           rs1=x(5), imm=-1),
                            (0, 0), src1=Operand.loop_carried(0, x(5)))]
    for g in range(guards):
        branch = len(nodes)
        nodes.append(ConfiguredNode(
            branch, Instruction(base + 4 * branch, Opcode.BLT, rs1=x(5),
                                rs2=x(16 + g), imm=8),
            divmod(branch, 8), src1=Operand.node(0),
            src2=Operand.from_register(x(16 + g))))
        nodes.append(ConfiguredNode(
            branch + 1, Instruction(base + 4 * branch + 4, Opcode.ADDI,
                                    rd=x(6), rs1=x(5), imm=g),
            divmod(branch + 1, 8), src1=Operand.node(0),
            guard=Guard(branch, Operand.from_register(x(13)))))
    last = len(nodes)
    nodes.append(ConfiguredNode(
        last, Instruction(base + 4 * last, Opcode.BNE, rs1=x(5), rs2=x(0),
                          imm=-4 * last),
        divmod(last, 8), src1=Operand.node(0)))
    return AcceleratorProgram(
        config=CFG, nodes=nodes, loop_branch_id=last,
        live_in={x(5), x(13), *(x(16 + g) for g in range(guards))},
        live_out={x(5): 0, x(6): last - 1})


def test_guard_count_bounded_by_the_lane_pattern_id():
    # A lane's pattern id holds one bit per active guard: 6 guards batch
    # (bit-identical to the interpreter, with a pattern per threshold
    # the counter crosses), 7 fall back with a reason.
    assert reason_for(guards_program(7)) == "more than 6 guard branches"
    program = guards_program(6)
    engines = [DataflowEngine(program, compiled=compiled)
               for compiled in (True, False)]
    runs = []
    for engine in engines:
        state = MachineState()
        state.write(x(5), 40)
        state.write(x(13), 7)
        for g in range(6):
            state.write(x(16 + g), 6 * g + 3)
        runs.append(engine.run(state))
    assert runs[0].drive_path == "batched"
    assert run_fingerprint(runs[0]) == run_fingerprint(runs[1])
    # The first lane, then one pattern per threshold the counter has
    # fallen below: the highest threshold (bit 6) turns its guard off
    # first.
    assert sorted(engines[0].plan.batch_program.patterns) == [
        0, 1, 64, 96, 112, 120, 124, 126]
