"""Tests for configuration lowering, timing, and the config cache (T3)."""

import pytest

from repro.accel import (
    AcceleratorConfig,
    DataflowEngine,
    InterconnectKind,
    OperandKind,
)
from repro.core import (
    ConfigCache,
    ConfigTimingModel,
    InstructionMapper,
    apply_memory_optimizations,
    build_ldfg,
    build_program,
    configuration_cost,
)
from repro.isa import MachineState, assemble, run, x
from repro.mem import Memory


CONFIG = AcceleratorConfig(rows=8, cols=8, interconnect=InterconnectKind.MESH)


def mapped(text: str, memopt=False):
    ldfg = build_ldfg(list(assemble(text).instructions))
    if memopt:
        apply_memory_optimizations(ldfg)
    return InstructionMapper(CONFIG).map(ldfg)


LOOP = """
addi t0, zero, 12
addi a0, zero, 0x400
loop:
    lw t1, 0(a0)
    addi t1, t1, 5
    sw t1, 0(a0)
    addi a0, a0, 4
    addi t0, t0, -1
    bne t0, zero, loop
"""


class TestBuildProgram:
    def test_lowered_program_executes_correctly(self):
        sdfg = mapped(
            """
            loop:
                lw t1, 0(a0)
                addi t1, t1, 5
                sw t1, 0(a0)
                addi a0, a0, 4
                addi t0, t0, -1
                bne t0, zero, loop
            """
        )
        program = build_program(sdfg)
        state = MachineState()
        memory = Memory()
        memory.store_words(0x800, [10, 20, 30, 40])
        state.memory = memory
        state.write(x(10), 0x800)
        state.write(x(5), 3)
        DataflowEngine(program).run(state)
        assert memory.load_word(0x800) == 15
        assert memory.load_word(0x804) == 25
        assert memory.load_word(0x808) == 35
        assert memory.load_word(0x80C) == 40

    def test_matches_reference_semantics(self):
        prog = assemble(LOOP)
        ref_state = MachineState(pc=prog.base_address)
        ref_memory = Memory()
        ref_memory.store_words(0x400, list(range(20)))
        ref_state.memory = ref_memory
        run(prog, ref_state)

        # Build from the loop body only (the two setup instructions run on
        # the CPU side; the engine receives their values as live-ins).
        body = list(assemble(LOOP).instructions)[2:]
        ldfg = build_ldfg(body)
        sdfg = InstructionMapper(CONFIG).map(ldfg)
        program = build_program(sdfg)
        state = MachineState()
        memory = Memory()
        memory.store_words(0x400, list(range(20)))
        state.memory = memory
        state.write(x(10), 0x400)
        state.write(x(5), 12)
        DataflowEngine(program).run(state)
        for i in range(20):
            assert memory.load_word(0x400 + 4 * i) == ref_memory.load_word(
                0x400 + 4 * i)

    def test_forwarded_load_compiled_out(self):
        sdfg = mapped(
            """
            addi t0, zero, 7
            sw t0, 0(a0)
            lw t1, 0(a0)
            addi t2, t1, 1
            """,
            memopt=True,
        )
        program = build_program(sdfg)
        # 4 instructions minus the eliminated load.
        assert len(program.nodes) == 3
        # The consumer (addi t2) now reads the store's data producer (addi t0).
        consumer = program.nodes[-1]
        assert consumer.src1.kind is OperandKind.NODE
        assert consumer.src1.node_id == 0

    def test_forwarded_load_functional_equivalence(self):
        text = """
        addi t0, zero, 7
        sw t0, 0(a0)
        lw t1, 0(a0)
        addi t2, t1, 1
        """
        plain = mapped(text, memopt=False)
        optimized = mapped(text, memopt=True)
        for sdfg in (plain, optimized):
            program = build_program(sdfg)
            state = MachineState()
            state.memory = Memory()
            state.write(x(10), 0x900)
            DataflowEngine(program).run(state)
            assert state.read(x(7)) == 8, "t2 = 7 + 1 either way"

    def test_live_in_out_sets(self):
        sdfg = mapped("add t0, a0, a1\nsw t0, 0(a2)")
        program = build_program(sdfg)
        assert {x(10), x(11), x(12)} <= program.live_in
        assert program.live_out[x(5)] == 0

    def test_guard_lowered_with_fallback(self):
        sdfg = mapped(
            """
            loop:
                beq t1, zero, skip
                addi t2, t2, 1
            skip:
                addi t1, t1, -1
                bne t1, zero, loop
            """
        )
        program = build_program(sdfg)
        guarded = program.nodes[1]
        assert guarded.guard is not None
        assert guarded.guard.branch_node_id == 0
        assert guarded.guard.fallback.kind is OperandKind.LOOP_CARRIED


class TestConfigurationCost:
    def test_cost_breakdown(self):
        sdfg = mapped(LOOP)
        cost = configuration_cost(sdfg, bitstream_words=50)
        assert cost.ldfg_build_cycles == len(sdfg.ldfg)
        assert cost.write_cycles == 50
        assert cost.total == (cost.ldfg_build_cycles + cost.mapping_cycles
                              + cost.write_cycles)

    def test_reduction_scales_with_window(self):
        timing = ConfigTimingModel()
        assert timing.reduction_cycles(32) == 5
        assert timing.reduction_cycles(8) == 3
        assert timing.reduction_cycles(1) >= 1

    def test_large_region_in_paper_range(self):
        """A 64-512 instruction region should cost ~10^3-10^4 cycles."""
        lines = ["addi t0, zero, 1"]
        lines += [f"addi t{1 + i % 5}, t{i % 5}, 1" for i in range(120)]
        ldfg = build_ldfg(list(assemble("\n".join(lines)).instructions))
        big = AcceleratorConfig(rows=16, cols=16,
                                interconnect=InterconnectKind.MESH)
        sdfg = InstructionMapper(big).map(ldfg)
        from repro.accel import encode_bitstream

        words = encode_bitstream(build_program(sdfg))
        cost = configuration_cost(sdfg, len(words))
        assert 1e3 <= cost.total <= 1e4

    def test_microseconds(self):
        sdfg = mapped(LOOP)
        cost = configuration_cost(sdfg, bitstream_words=100)
        assert cost.microseconds(2.0) == pytest.approx(cost.total / 2000.0)

    def test_stall_fills_charged(self):
        sdfg = mapped(LOOP)
        without = configuration_cost(sdfg, 10, stall_fills=0)
        with_stalls = configuration_cost(sdfg, 10, stall_fills=4)
        assert with_stalls.total > without.total


class TestConfigCache:
    def make_entry(self):
        sdfg = mapped(LOOP)
        program = build_program(sdfg)
        cost = configuration_cost(sdfg, 10)
        return program, cost

    def test_miss_then_hit(self):
        cache = ConfigCache()
        program, cost = self.make_entry()
        assert cache.lookup(0x1000, 0x1020, "M-64") is None
        cache.put(0x1000, 0x1020, "M-64", program, cost)
        hit = cache.lookup(0x1000, 0x1020, "M-64")
        assert hit is not None
        assert hit[0] is program
        assert cache.hits == 1 and cache.misses == 1

    def test_distinct_backends_distinct_entries(self):
        cache = ConfigCache()
        program, cost = self.make_entry()
        cache.put(0x1000, 0x1020, "M-64", program, cost)
        assert cache.lookup(0x1000, 0x1020, "M-128") is None

    def test_fifo_eviction(self):
        cache = ConfigCache(capacity=2)
        program, cost = self.make_entry()
        for i in range(3):
            cache.put(0x1000 + 0x100 * i, 0x1020, "M-64", program, cost)
        assert cache.lookup(0x1000, 0x1020, "M-64") is None, "evicted"
        assert cache.lookup(0x1200, 0x1020, "M-64") is not None

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ConfigCache(capacity=0)

    def test_overwrite_at_capacity_keeps_unrelated_entries(self):
        """Re-inserting an existing key at capacity must update in place,
        not evict the oldest unrelated entry."""
        cache = ConfigCache(capacity=2)
        program, cost = self.make_entry()
        cache.put(0x1000, 0x1020, "M-64", program, cost)
        cache.put(0x2000, 0x2020, "M-64", program, cost)
        cache.put(0x1000, 0x1020, "M-64", program, cost)  # overwrite
        assert cache.lookup(0x2000, 0x2020, "M-64") is not None, (
            "overwrite evicted an unrelated entry")
        assert cache.lookup(0x1000, 0x1020, "M-64") is not None
        assert cache.evictions == 0
        assert len(cache) == 2

    def test_eviction_counter(self):
        cache = ConfigCache(capacity=1)
        program, cost = self.make_entry()
        cache.put(0x1000, 0x1020, "M-64", program, cost)
        assert cache.evictions == 0
        cache.put(0x2000, 0x2020, "M-64", program, cost)
        assert cache.evictions == 1
        assert cache.insertions == 2

    def test_put_reports_eviction_and_replacement(self):
        cache = ConfigCache(capacity=1)
        program, cost = self.make_entry()
        first = cache.put(0x1000, 0x1020, "M-64", program, cost)
        assert not first.evicted and not first.replaced
        again = cache.put(0x1000, 0x1020, "M-64", program, cost)
        assert again.replaced and not again.evicted
        other = cache.put(0x2000, 0x2020, "M-64", program, cost)
        assert other.evicted and not other.replaced
        assert len(other.bitstream) > 5

    def test_digest_mismatch_is_conflict_miss(self):
        """Two binaries can place different loops at the same virtual
        addresses; the content digest must keep them apart."""
        cache = ConfigCache()
        program, cost = self.make_entry()
        cache.put(0x1000, 0x1020, "M-64", program, cost, digest="aaaa")
        assert cache.lookup(0x1000, 0x1020, "M-64", digest="bbbb") is None
        assert cache.lookup(0x1000, 0x1020, "M-64", digest="aaaa") is not None
        # An address-only probe (no digest) still matches.
        assert cache.lookup(0x1000, 0x1020, "M-64") is not None
        assert cache.misses == 1 and cache.hits == 2

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            ConfigCache(policy="random")

    def test_lru_hit_refreshes_entry(self):
        """Under LRU a lookup hit protects the entry: the victim is the
        least-recently-touched key, not the oldest insertion."""
        program, cost = self.make_entry()
        cache = ConfigCache(capacity=2, policy="lru")
        cache.put(0x1000, 0x1020, "M-64", program, cost)
        cache.put(0x2000, 0x2020, "M-64", program, cost)
        assert cache.lookup(0x1000, 0x1020, "M-64") is not None  # refresh
        cache.put(0x3000, 0x3020, "M-64", program, cost)      # evicts
        assert cache.lookup(0x1000, 0x1020, "M-64") is not None, (
            "the refreshed entry must survive")
        assert cache.lookup(0x2000, 0x2020, "M-64") is None, (
            "the least-recently-touched entry is the victim")

    def test_fifo_ignores_hits_for_eviction(self):
        program, cost = self.make_entry()
        cache = ConfigCache(capacity=2, policy="fifo")
        cache.put(0x1000, 0x1020, "M-64", program, cost)
        cache.put(0x2000, 0x2020, "M-64", program, cost)
        assert cache.lookup(0x1000, 0x1020, "M-64") is not None
        cache.put(0x3000, 0x3020, "M-64", program, cost)
        assert cache.lookup(0x1000, 0x1020, "M-64") is None, (
            "FIFO evicts the oldest insertion regardless of hits")

    def test_tag_indexed_collisions_coexist(self):
        """Digest-indexed mode: two binaries whose loops collide at the
        same virtual addresses occupy distinct entries (the service
        deployment) instead of overwriting one slot."""
        program, cost = self.make_entry()
        cache = ConfigCache(tag_indexed=True)
        cache.put(0x1000, 0x1020, "M-64", program, cost, digest="aaaa")
        cache.put(0x1000, 0x1020, "M-64", program, cost, digest="bbbb")
        assert len(cache) == 2
        assert cache.lookup(0x1000, 0x1020, "M-64", digest="aaaa") is not None
        assert cache.lookup(0x1000, 0x1020, "M-64", digest="bbbb") is not None
        assert cache.evictions == 0

    def test_address_indexed_collisions_overwrite(self):
        """The hardware default keeps one entry per address key: a second
        binary at the same addresses replaces the first (conflict)."""
        program, cost = self.make_entry()
        cache = ConfigCache()
        cache.put(0x1000, 0x1020, "M-64", program, cost, digest="aaaa")
        cache.put(0x1000, 0x1020, "M-64", program, cost, digest="bbbb")
        assert len(cache) == 1
        assert cache.lookup(0x1000, 0x1020, "M-64", digest="aaaa") is None

    def test_stats_snapshot_and_delta(self):
        cache = ConfigCache()
        program, cost = self.make_entry()
        before = cache.stats()
        cache.lookup(0x1000, 0x1020, "M-64")
        cache.put(0x1000, 0x1020, "M-64", program, cost)
        cache.lookup(0x1000, 0x1020, "M-64")
        delta = cache.stats() - before
        assert delta.hits == 1 and delta.misses == 1
        assert delta.insertions == 1 and delta.evictions == 0
        assert delta.lookups == 2
        assert delta.hit_rate == pytest.approx(0.5)
