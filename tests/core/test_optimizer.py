"""Tests for iterative runtime re-optimization (F3)."""

import pytest

from repro.accel import AcceleratorConfig, InterconnectKind
from repro.core import (
    CandidateStrategy,
    InstructionMapper,
    IterativeOptimizer,
    MappingOptions,
    build_ldfg,
)
from repro.core.ldfg import INITIAL_AMAT
from repro.core.optimizer import IMPROVEMENT_THRESHOLD
from repro.isa import MachineState, assemble, x
from repro.mem import CacheConfig, HierarchyConfig, Memory, MemoryHierarchy


CONFIG = AcceleratorConfig(rows=8, cols=8,
                           interconnect=InterconnectKind.MESH)

# A streaming loop whose loads miss: the initial AMAT guess (4 cycles) is
# far below the measured DRAM latency, so re-optimization has real work.
LOOP_BODY = """
loop:
    lw t1, 0(a0)
    lw t2, 256(a0)
    add t3, t1, t2
    sw t3, 512(a0)
    addi a0, a0, 4
    addi t0, t0, -1
    bne t0, zero, loop
"""


def make_ldfg():
    return build_ldfg(list(assemble(LOOP_BODY).instructions))


def state_factory():
    state = MachineState()
    memory = Memory()
    memory.store_words(0x4000, list(range(512)))
    state.memory = memory
    state.write(x(10), 0x4000)
    state.write(x(5), 64)
    return state


def small_hierarchy():
    return MemoryHierarchy(HierarchyConfig(
        l1=CacheConfig(size_bytes=512, line_bytes=16, associativity=2,
                       hit_latency=2),
        l2=CacheConfig(size_bytes=4096, line_bytes=16, associativity=4,
                       hit_latency=12),
        dram_latency=80,
    ))


class TestIterativeOptimization:
    def test_memory_weights_refined_from_measured_amat(self):
        ldfg = make_ldfg()
        sdfg = InstructionMapper(CONFIG).map(ldfg)
        optimizer = IterativeOptimizer(CONFIG)
        hierarchy = small_hierarchy()
        optimizer.optimize(ldfg, sdfg, state_factory, hierarchy,
                           rounds=1, profile_iterations=16)
        load_entry = ldfg[0]
        assert load_entry.op_latency != INITIAL_AMAT, (
            "measured AMAT must replace the initial estimate")
        assert load_entry.op_latency > 2.0

    def test_mispredicted_op_latency_corrected_in_one_round(self):
        """Regression: the engine's per-node counters used to be ignored
        (the profiled run was dead weight), so a wrong static latency on a
        compute node survived every round.  One round must now pull the
        node's weight back to its measured operation latency."""
        ldfg = make_ldfg()
        add_entry = next(e for e in ldfg.entries
                         if e.instruction.opcode.value == "add")
        add_entry.op_latency = 40.0  # grossly mispredicted: int ALU is 1
        sdfg = InstructionMapper(CONFIG).map(ldfg)
        optimizer = IterativeOptimizer(CONFIG)
        optimizer.optimize(ldfg, sdfg, state_factory, small_hierarchy(),
                           rounds=1, profile_iterations=16)
        assert add_entry.op_latency != 40.0, (
            "measured node latency must replace the misprediction")
        assert add_entry.op_latency == pytest.approx(1.0, abs=1.0), (
            f"an integer add measures ~1 cycle, "
            f"got {add_entry.op_latency}")

    def test_correct_weights_survive_refinement(self):
        """Measurement-driven refinement must be a no-op (to within noise)
        when the static prediction was already right."""
        ldfg = make_ldfg()
        compute = [e for e in ldfg.entries
                   if not e.instruction.is_memory]
        before = {e.node_id: e.op_latency for e in compute}
        sdfg = InstructionMapper(CONFIG).map(ldfg)
        optimizer = IterativeOptimizer(CONFIG)
        optimizer.optimize(ldfg, sdfg, state_factory, small_hierarchy(),
                           rounds=1, profile_iterations=16)
        for entry in compute:
            assert entry.op_latency == pytest.approx(
                before[entry.node_id], abs=1.0), (
                f"{entry.instruction.opcode.value}: "
                f"{before[entry.node_id]} -> {entry.op_latency}")

    def test_history_recorded(self):
        ldfg = make_ldfg()
        sdfg = InstructionMapper(CONFIG).map(ldfg)
        optimizer = IterativeOptimizer(CONFIG)
        optimizer.optimize(ldfg, sdfg, state_factory, small_hierarchy(),
                           rounds=3, profile_iterations=8)
        assert 1 <= len(optimizer.history) <= 3
        first = optimizer.history[0]
        assert first.measured_iteration_latency > 0

    def test_stops_when_no_improvement(self):
        ldfg = make_ldfg()
        sdfg = InstructionMapper(CONFIG).map(ldfg)
        optimizer = IterativeOptimizer(CONFIG)
        result = optimizer.optimize(ldfg, sdfg, state_factory,
                                    small_hierarchy(), rounds=5)
        for event in optimizer.history:
            measured = event.measured_iteration_latency
            gain = measured - event.predicted_after_remap
            assert event.remapped == (
                measured > 0 and gain / measured > IMPROVEMENT_THRESHOLD)
        # Rounds stop at the first one that keeps its mapping.
        kept = [event.remapped for event in optimizer.history]
        assert False not in kept[:-1]
        if not any(kept):
            assert result is sdfg

    def test_returns_valid_sdfg(self):
        ldfg = make_ldfg()
        sdfg = InstructionMapper(CONFIG).map(ldfg)
        optimizer = IterativeOptimizer(CONFIG)
        result = optimizer.optimize(ldfg, sdfg, state_factory,
                                    small_hierarchy(), rounds=2)
        assert set(result.positions) == set(sdfg.positions)


# A loop-carried integer chain behind one load: after refinement the
# mapper predicts a shorter iteration than the profile measured.
CHAIN_BODY = """
loop:
    lw t1, 0(a0)
    add t2, t1, t1
    xor t3, t2, t1
    add t4, t3, t2
    sub t6, t4, t3
    add s2, t6, t4
    xor s3, s2, t6
    add s4, s3, s2
    sw s4, 0(a0)
    addi a0, a0, 4
    addi t0, t0, -1
    bne t0, zero, loop
"""


def test_remap_returns_the_candidate(monkeypatch):
    """The branch that keeps a remapped candidate: mapped first through a
    1x1 candidate window, the chain measures slower than the remap
    predicts, so round 0 remaps and its candidate is what comes back."""
    ldfg = build_ldfg(list(assemble(CHAIN_BODY).instructions))
    poor = MappingOptions(strategy=CandidateStrategy.FIXED_WINDOW,
                          window=(1, 1))
    sdfg = InstructionMapper(CONFIG, options=poor).map(ldfg)
    candidates = []
    original = InstructionMapper.map

    def recording(self, graph):
        candidates.append(original(self, graph))
        return candidates[-1]

    monkeypatch.setattr(InstructionMapper, "map", recording)
    optimizer = IterativeOptimizer(CONFIG)
    result = optimizer.optimize(ldfg, sdfg, state_factory, MemoryHierarchy(),
                                rounds=1, profile_iterations=16)
    first = optimizer.history[0]
    assert first.remapped
    assert first.predicted_after_remap < first.measured_iteration_latency
    assert result is candidates[0]
    assert result is not sdfg
