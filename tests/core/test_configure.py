"""Tests for configuration lowering, timing, and the config cache (T3)."""

import pytest

from repro.accel import (
    AcceleratorConfig,
    DataflowEngine,
    InterconnectKind,
    OperandKind,
    encode_bitstream,
)
from repro.core import (
    CachedConfiguration,
    ConfigCache,
    ImapFsm,
    InstructionMapper,
    MappingOptions,
    RegionKey,
    apply_memory_optimizations,
    build_ldfg,
    build_program,
    configuration_cost,
)
from repro.core.configure import (
    MEMORY_IMAP_CYCLES,
    REGION_RECORD_FIELDS,
    RENAME_CYCLES,
    STALL_FILL_CYCLES,
    WRITE_CYCLES_PER_WORD,
)
from repro.isa import MachineState, assemble, run, x
from repro.mem import Memory


CONFIG = AcceleratorConfig(rows=8, cols=8, interconnect=InterconnectKind.MESH)
#: Content tag for cache tests that do not exercise digest conflicts.
DIGEST = "d0"


def mapped(text: str, memopt=False):
    ldfg = build_ldfg(list(assemble(text).instructions))
    if memopt:
        apply_memory_optimizations(ldfg)
    return InstructionMapper(CONFIG).map(ldfg)


def mapped_with_stats(text: str, window=(4, 8)):
    """The SDFG and the mapper statistics ``configuration_cost`` reads."""
    mapper = InstructionMapper(CONFIG,
                               options=MappingOptions(window=window))
    return mapper.map(build_ldfg(list(assemble(text).instructions))), \
        mapper.stats


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
        sdfg, stats = mapped_with_stats(LOOP)
        cost = configuration_cost(sdfg, bitstream_words=50,
                                  mapper_stats=stats)
        assert cost.ldfg_build_cycles == len(sdfg.ldfg) * RENAME_CYCLES
        assert cost.write_cycles == 50 * WRITE_CYCLES_PER_WORD
        assert cost.total == (cost.ldfg_build_cycles + cost.mapping_cycles
                              + cost.write_cycles)

    def test_reduction_scales_with_window(self):
        """imap time is the Fig. 8 FSM over each compute instruction's
        candidate count plus the fixed states of each memory instruction,
        so a wider candidate window costs more reduction cycles."""
        mapping_cycles = []
        for window in ((2, 2), (4, 8)):
            sdfg, stats = mapped_with_stats(LOOP, window)
            assert stats.memory_placed == 2
            cost = configuration_cost(sdfg, 10, stats)
            fsm = ImapFsm().simulate(stats.per_instruction_candidates)
            assert cost.mapping_cycles == (fsm.total_cycles
                                           + 2 * MEMORY_IMAP_CYCLES)
            mapping_cycles.append(cost.mapping_cycles)
        assert mapping_cycles[0] < mapping_cycles[1]

    def test_large_region_in_paper_range(self):
        """A 64-512 instruction region should cost ~10^3-10^4 cycles."""
        lines = ["addi t0, zero, 1"]
        lines += [f"addi t{1 + i % 5}, t{i % 5}, 1" for i in range(120)]
        ldfg = build_ldfg(list(assemble("\n".join(lines)).instructions))
        big = AcceleratorConfig(rows=16, cols=16,
                                interconnect=InterconnectKind.MESH)
        mapper = InstructionMapper(big)
        sdfg = mapper.map(ldfg)
        words = encode_bitstream(build_program(sdfg))
        cost = configuration_cost(sdfg, len(words), mapper.stats)
        assert 1e3 <= cost.total <= 1e4

    def test_microseconds(self):
        sdfg, stats = mapped_with_stats(LOOP)
        cost = configuration_cost(sdfg, bitstream_words=100,
                                  mapper_stats=stats)
        assert cost.microseconds(2.0) == pytest.approx(cost.total / 2000.0)

    def test_stall_fills_charged(self):
        sdfg, stats = mapped_with_stats(LOOP)
        without = configuration_cost(sdfg, 10, stats, stall_fills=0)
        with_stalls = configuration_cost(sdfg, 10, stats, stall_fills=4)
        assert with_stalls.total - without.total == 4 * STALL_FILL_CYCLES


def key(start, end=0x1020, config="M-64", digest=DIGEST):
    """A cache key: the tests vary addresses, backend and digest."""
    return RegionKey(config, start, end, digest)


class TestConfigCache:
    def make_entry(self):
        sdfg, stats = mapped_with_stats(LOOP)
        program = build_program(sdfg)
        return CachedConfiguration(program, encode_bitstream(program),
                                   configuration_cost(sdfg, 10, stats))

    def test_miss_then_hit(self):
        cache = ConfigCache()
        entry = self.make_entry()
        assert cache.lookup(key(0x1000)) is None
        assert not cache.put(key(0x1000), entry)
        assert cache.lookup(key(0x1000)) is entry
        assert len(cache) == 1

    def test_distinct_backends_distinct_entries(self):
        cache = ConfigCache()
        entry = self.make_entry()
        cache.put(key(0x1000), entry)
        assert cache.lookup(key(0x1000, config="M-128")) is None

    def test_fifo_eviction(self):
        cache = ConfigCache(capacity=2)
        entry = self.make_entry()
        for i in range(3):
            cache.put(key(0x1000 + 0x100 * i), entry)
        assert cache.lookup(key(0x1000)) is None, "evicted"
        assert cache.lookup(key(0x1200)) is not None

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ConfigCache(capacity=0)

    def test_overwrite_at_capacity_keeps_unrelated_entries(self):
        """Re-inserting an existing key at capacity must update in place,
        not evict the oldest unrelated entry."""
        cache = ConfigCache(capacity=2)
        entry = self.make_entry()
        cache.put(key(0x1000), entry)
        cache.put(key(0x2000, 0x2020), entry)
        assert not cache.put(key(0x1000), entry), "overwrite evicted"
        assert cache.lookup(key(0x2000, 0x2020)) is not None, (
            "overwrite evicted an unrelated entry")
        assert cache.lookup(key(0x1000)) is not None
        assert len(cache) == 2

    def test_eviction_counter(self):
        """``put`` reports each eviction it forces: the caller's tally."""
        cache = ConfigCache(capacity=1)
        entry = self.make_entry()
        evictions = [cache.put(key(0x1000), entry),
                     cache.put(key(0x2000, 0x2020), entry)]
        assert evictions == [False, True]
        assert len(cache) == 1

    def test_put_reports_eviction_and_replacement(self):
        cache = ConfigCache(capacity=1)
        entry = self.make_entry()
        assert not cache.put(key(0x1000), entry)
        # Re-filling the resident key replaces it in place.
        assert not cache.put(key(0x1000), entry)
        assert len(cache) == 1
        assert cache.put(key(0x2000, 0x2020), entry)
        assert len(cache) == 1

    def test_digest_mismatch_is_conflict_miss(self):
        """Two binaries can place different loops at the same virtual
        addresses; the content digest must keep them apart."""
        cache = ConfigCache()
        entry = self.make_entry()
        cache.put(key(0x1000, digest="aaaa"), entry)
        assert cache.lookup(key(0x1000, digest="bbbb")) is None
        assert cache.lookup(key(0x1000, digest="aaaa")) is entry
        assert len(cache) == 1

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            ConfigCache(policy="random")

    def test_lru_hit_refreshes_entry(self):
        """Under LRU a lookup hit protects the entry: the victim is the
        least-recently-touched key, not the oldest insertion."""
        entry = self.make_entry()
        cache = ConfigCache(capacity=2, policy="lru")
        cache.put(key(0x1000), entry)
        cache.put(key(0x2000, 0x2020), entry)
        assert cache.lookup(key(0x1000))  # refresh
        assert cache.put(key(0x3000, 0x3020), entry)  # evicts
        assert cache.lookup(key(0x1000)) is not None, (
            "the refreshed entry must survive")
        assert cache.lookup(key(0x2000, 0x2020)) is None, (
            "the least-recently-touched entry is the victim")

    def test_fifo_ignores_hits_for_eviction(self):
        entry = self.make_entry()
        cache = ConfigCache(capacity=2, policy="fifo")
        cache.put(key(0x1000), entry)
        cache.put(key(0x2000, 0x2020), entry)
        assert cache.lookup(key(0x1000)) is not None
        assert cache.put(key(0x3000, 0x3020), entry)
        assert cache.lookup(key(0x1000)) is None, (
            "FIFO evicts the oldest insertion regardless of hits")

    def test_tag_indexed_collisions_coexist(self):
        """Every key carries the digest: two binaries whose loops collide
        at the same virtual addresses occupy distinct entries instead of
        overwriting one slot."""
        entry = self.make_entry()
        cache = ConfigCache()
        assert not cache.put(key(0x1000, digest="aaaa"), entry)
        assert not cache.put(key(0x1000, digest="bbbb"), entry)
        assert len(cache) == 2
        assert cache.lookup(key(0x1000, digest="aaaa")) is not None
        assert cache.lookup(key(0x1000, digest="bbbb")) is not None


class TestRegionRecords:
    """``export_regions``/``restore_regions``: the one record codec."""

    def configured_cache(self):
        sdfg, stats = mapped_with_stats(LOOP)
        program = build_program(sdfg)
        bitstream = encode_bitstream(program)
        cache = ConfigCache()
        cache.put(key(0x1000, config=CONFIG.name, digest="aaaa"),
                  CachedConfiguration(
                      program, bitstream,
                      configuration_cost(sdfg, len(bitstream), stats)))
        return cache

    def test_restored_entry_equals_exported_one(self):
        cache = self.configured_cache()
        fresh = ConfigCache()
        assert fresh.restore_regions(cache.export_regions(), CONFIG) == 1
        original = cache.lookup(key(0x1000, config=CONFIG.name,
                                    digest="aaaa"))
        restored = fresh.lookup(key(0x1000, config=CONFIG.name,
                                    digest="aaaa"))
        # The codec drops only assembler metadata (branch labels), so the
        # restored program re-encodes to the very words it came from.
        assert restored.bitstream == original.bitstream
        assert encode_bitstream(restored.program) == original.bitstream
        assert restored.cost == original.cost
        assert fresh.export_regions() == cache.export_regions()

    def test_held_keys_are_skipped(self):
        cache = self.configured_cache()
        records = cache.export_regions()
        assert cache.restore_regions(records, CONFIG) == 0
        assert len(cache) == 1

    def test_record_key_is_the_export_key(self):
        """``RegionKey.of`` names every record by the key it was exported
        under, and each record carries exactly the codec's fields."""
        entry = self.configured_cache().lookup(
            key(0x1000, config=CONFIG.name, digest="aaaa"))
        keys = [key(0x1000 + 0x100 * i, config=CONFIG.name,
                    digest=f"d{i % 2}") for i in range(4)]
        cache = ConfigCache()
        for region in keys:
            cache.put(region, entry)
        records = cache.export_regions()
        assert [RegionKey.of(record) for record in records] == keys
        assert all(tuple(record) == REGION_RECORD_FIELDS
                   for record in records)
        assert cache.export_regions({keys[2]}) == [records[2]]

    def test_records_without_a_digest_are_skipped(self):
        (record,) = self.configured_cache().export_regions()
        undigested = {key: value for key, value in record.items()
                      if key != "digest"}
        fresh = ConfigCache()
        assert fresh.restore_regions(
            [dict(record, digest=None), undigested], CONFIG) == 0
        assert len(fresh) == 0
