"""Golden equivalence: the plan-compiled engine vs the interpreter.

The execution plan (:mod:`repro.accel.plan`) is a pure compilation of
mapping-frozen facts — it must not change a single observable.  These tests
drive both engine paths through the real controller pipeline and through
direct engine runs, and require **bit-identical** results: cycle counts,
iteration latency, every activity counter, the per-node/per-edge latency
counters, and the final architectural state (registers compared by IEEE bit
pattern, so NaN payloads count; memory compared byte for byte).

Also covers the ``noc_hops`` accounting fix that rode along with the plan:
the counter records router traversals, never queueing time.
"""

from __future__ import annotations

import dataclasses
import struct

import pytest

from repro.accel import (
    AcceleratorConfig,
    AcceleratorProgram,
    ConfiguredNode,
    DataflowEngine,
    InterconnectKind,
    MeshNocInterconnect,
    Operand,
    build_interconnect,
    compile_plan,
)
from repro.accel import M_128, M_512
from repro.core import MesaController
from repro.isa import Instruction, MachineState, Opcode, x
from repro.workloads import build_kernel

# Kernels spanning the interesting engine behaviors: stencils (hotspot),
# FP recurrences with NaN-producing inputs (cfd), vectorized loads
# (kmeans), guarded compute (nn), reductions (lud), control (bfs).
KERNELS = ("hotspot", "cfd", "kmeans", "nn", "lud", "bfs")

#: Engine-level ExecutionOptions overrides on top of the controller's loop
#: plan: no loop-level optimization beyond the pipelining every run has
#: (no tiling).
MODES = {
    "default": {},
    "no-loopopt": {"tile_factor": 1},
}


def bits(value: float) -> bytes:
    """IEEE-754 bit pattern — NaN-safe float comparison."""
    return struct.pack("<d", float(value))


def state_fingerprint(state: MachineState) -> tuple:
    regs = tuple(
        (name, bits(value) if isinstance(value, float) else value)
        for name, value in sorted(state.snapshot().items())
    )
    memory = tuple(sorted(state.memory._bytes.items()))
    return (regs, memory)


def run_fingerprint(run) -> tuple:
    activity = run.activity
    latency = run.latency
    return (
        run.iterations,
        bits(run.cycles),
        bits(run.iteration_latency),
        bits(run.initiation_interval),
        (activity.int_ops, activity.fp_ops, activity.forwards,
         activity.loads, activity.stores, activity.lsq_forwards,
         activity.load_replays, activity.local_hops, activity.noc_hops,
         bits(activity.noc_wait_cycles), bits(activity.pe_busy_cycles),
         activity.control_events),
        tuple(sorted((k, bits(v)) for k, v in latency._node_total.items())),
        tuple(sorted(latency._node_count.items())),
        tuple(sorted((k, bits(v)) for k, v in latency._edge_total.items())),
        tuple(sorted(latency._edge_count.items())),
        state_fingerprint(run.final_state),
    )


def memory_fingerprint(hierarchy) -> tuple:
    """The memory model's end state: per-level cache counters and resident
    lines per set in LRU order, DRAM accesses, and the per-PC AMAT counters
    in creation order.  Port grants show in a run's cycles and latency
    counters."""
    levels = tuple(
        (dataclasses.astuple(cache.stats),
         tuple((index, tuple(ways))
               for index, ways in enumerate(cache._sets) if ways))
        for cache in (hierarchy.l1, hierarchy.l2))
    amat = tuple((pc, counter.total_cycles, counter.accesses)
                 for pc, counter in hierarchy.amat_counters().items())
    return (levels, hierarchy.dram_accesses, amat)


def result_fingerprint(result) -> tuple:
    return (
        result.accelerated,
        result.reason,
        bits(result.total_cycles),
        result.offload_count,
        tuple(run_fingerprint(run) for run in result.runs),
        state_fingerprint(result.final_state)
        if result.final_state is not None else None,
        memory_fingerprint(result.accel_hierarchy)
        if result.accel_hierarchy is not None else None,
    )


def execute_result(name: str, config, overrides: dict, compiled: bool,
                   monkeypatch):
    """One kernel through the full pipeline on the chosen engine path, with
    ``overrides`` replacing fields of every run's ExecutionOptions."""
    import repro.core.controller as controller_mod

    class Engine(DataflowEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, compiled=compiled, **kwargs)

        def run(self, state, options):
            return super().run(state,
                               dataclasses.replace(options, **overrides))

    monkeypatch.setattr(controller_mod, "DataflowEngine", Engine)
    kernel = build_kernel(name, iterations=96, seed=1)
    controller = MesaController(config)
    return controller.execute(kernel.program, kernel.state_factory,
                              parallelizable=kernel.parallelizable)


def execute_kernel(name: str, config, overrides: dict, compiled: bool,
                   monkeypatch) -> tuple:
    return result_fingerprint(
        execute_result(name, config, overrides, compiled, monkeypatch))


class TestPipelineEquivalence:
    @pytest.mark.parametrize("name", KERNELS)
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_m128_bit_identical(self, name, mode, monkeypatch):
        overrides = MODES[mode]
        fast = execute_kernel(name, M_128, overrides, True, monkeypatch)
        slow = execute_kernel(name, M_128, overrides, False, monkeypatch)
        assert fast == slow

    @pytest.mark.parametrize("name", ("hotspot", "cfd"))
    def test_m512_bit_identical(self, name, monkeypatch):
        fast = execute_kernel(name, M_512, {}, True, monkeypatch)
        slow = execute_kernel(name, M_512, {}, False, monkeypatch)
        assert fast == slow


CFG = AcceleratorConfig(rows=16, cols=8)  # MESH_NOC by default


def fanout_program(consumers: int) -> AcceleratorProgram:
    """A NoC-heavy fanout: one producer feeding the far column, so packets
    queue on the row-0 ring channel (exercises the dynamic wait path)."""
    base = 0x1000
    producer = Instruction(base, Opcode.ADDI, rd=x(5), rs1=x(10), imm=1)
    nodes = [ConfiguredNode(0, producer, (0, 0),
                            src1=Operand.from_register(x(10)))]
    for i in range(consumers):
        instr = Instruction(base + 4 * (i + 1), Opcode.ADDI,
                            rd=x(6 + i % 8), rs1=x(5), imm=i)
        nodes.append(ConfiguredNode(i + 1, instr, (i % 8, 7),
                                    src1=Operand.node(0)))
    return AcceleratorProgram(
        config=CFG, nodes=nodes, loop_branch_id=None,
        live_in={x(10)},
        live_out={x(6 + i % 8): i + 1 for i in range(consumers)},
    )


class TestDirectEngineEquivalence:
    @pytest.mark.parametrize("consumers", (1, 4, 8))
    def test_noc_contention_bit_identical(self, consumers):
        program = fanout_program(consumers)
        runs = []
        for compiled in (True, False):
            state = MachineState()
            state.write(x(10), 1)
            runs.append(DataflowEngine(program, compiled=compiled).run(state))
        assert run_fingerprint(runs[0]) == run_fingerprint(runs[1])

    def test_plan_is_cached_per_interconnect(self):
        program = fanout_program(2)
        first = DataflowEngine(program)
        second = DataflowEngine(program)
        assert first.plan is second.plan
        other = DataflowEngine(
            program, interconnect=build_interconnect(CFG))
        # Same interconnect value -> same compiled plan.
        assert other.plan is first.plan
        assert compile_plan(program, other.interconnect) is first.plan


class TestNocHopAccounting:
    """Satellite fix: noc_hops counts router traversals, not queue time."""

    def test_hops_track_router_distance(self):
        noc = MeshNocInterconnect(CFG)
        # NOC_SLICE=4: (0,0) and (0,1) share a router — no NoC traversal.
        assert noc.router_hops((0, 0), (0, 1)) == 0
        # Crossing slices and rows accumulates one hop per router boundary.
        assert noc.router_hops((0, 0), (0, 7)) == 1
        assert noc.router_hops((0, 0), (1, 7)) == 2
        assert noc.router_hops((0, 0), (15, 7)) == 16
        assert noc.router_hops((3, 2), (3, 2)) == 0

    @pytest.mark.parametrize("compiled", (True, False))
    def test_wait_cycles_never_counted_as_hops(self, compiled):
        # 8 simultaneous packets on one ring channel: waits grow with
        # traffic, but hops stay exactly (sum of router hops over the
        # NoC-routed edges) — a hop count that included queue time would
        # explode here.
        state = MachineState()
        state.write(x(10), 1)
        engine = DataflowEngine(fanout_program(8), compiled=compiled)
        run = engine.run(state)
        assert run.activity.noc_wait_cycles > 0
        expected = 0
        for node in engine.plan.nodes:
            for operand in (node.src1, node.src2):
                edge = operand.edge
                if edge is not None and not edge.is_local:
                    expected += edge.router_hops
        assert run.activity.noc_hops == expected


class TestVectorizedLatencyMatrix:
    """The interconnect matrix API must agree with the scalar latency."""

    @pytest.mark.parametrize("rows,cols", ((4, 4), (16, 8), (8, 16)))
    def test_matrix_matches_scalar(self, rows, cols):
        for kind in InterconnectKind:
            interconnect = build_interconnect(
                AcceleratorConfig(rows=rows, cols=cols, interconnect=kind))
            srcs = [(0, 0), (rows - 1, cols - 1), (rows // 2, cols // 2),
                    (rows // 2, -1)]
            for src in srcs:
                matrix = interconnect.latency_matrix(src)
                for r in range(rows):
                    for c in range(cols):
                        assert matrix[r, c] == interconnect.latency(
                            src, (r, c))

    def test_matrix_is_cached_and_frozen(self):
        interconnect = build_interconnect(CFG)
        matrix = interconnect.latency_matrix((2, 3))
        assert interconnect.latency_matrix((2, 3)) is matrix
        with pytest.raises(ValueError):
            matrix[0, 0] = 99.0
