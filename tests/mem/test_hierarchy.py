"""Tests for the memory hierarchy timing model and AMAT counters."""

import pytest

from repro.mem import CacheConfig, HierarchyConfig, MemoryHierarchy


def tiny_hierarchy() -> MemoryHierarchy:
    """A hierarchy small enough to force evictions in tests."""
    return MemoryHierarchy(HierarchyConfig(
        l1=CacheConfig(size_bytes=256, line_bytes=16, associativity=2, hit_latency=2),
        l2=CacheConfig(size_bytes=1024, line_bytes=16, associativity=4, hit_latency=12),
        dram_latency=100,
    ))


class TestLatencyComposition:
    def test_cold_access_pays_full_path(self):
        mh = tiny_hierarchy()
        assert mh.access(0x1000) == 2 + 12 + 100
        assert mh.dram_accesses == 1

    def test_l1_hit_latency(self):
        mh = tiny_hierarchy()
        mh.access(0x1000)
        assert mh.access(0x1000) == 2

    def test_l2_hit_after_l1_eviction(self):
        mh = tiny_hierarchy()
        mh.access(0x0)
        # Thrash L1 set 0 (2-way, 16 sets of 16B lines -> stride 256).
        mh.access(0x100)
        mh.access(0x200)
        latency = mh.access(0x0)
        assert latency == 2 + 12, "L1 miss, L2 hit"

    def test_default_config_matches_paper(self):
        mh = MemoryHierarchy()
        assert mh.l1.config.size_bytes == 64 * 1024
        assert mh.l2.config.size_bytes == 8 * 1024 * 1024

    def test_ideal_latency(self):
        assert tiny_hierarchy().ideal_latency == 2


class TestAmatTracking:
    def test_per_pc_amat(self):
        mh = tiny_hierarchy()
        mh.access(0x1000, pc=0x40)  # cold: 114
        mh.access(0x1000, pc=0x40)  # hit: 2
        assert mh.amat(0x40) == pytest.approx((114 + 2) / 2)

    def test_unseen_pc_reads_zero(self):
        assert tiny_hierarchy().amat(0x999) == 0.0

    def test_distinct_pcs_tracked_separately(self):
        mh = tiny_hierarchy()
        mh.access(0x1000, pc=0x40)
        mh.access(0x1000, pc=0x44)
        assert mh.amat(0x40) > mh.amat(0x44), "second access hits in L1"

    def test_counters_snapshot(self):
        mh = tiny_hierarchy()
        mh.access(0x1000, pc=0x40)
        counters = mh.amat_counters()
        assert counters[0x40].accesses == 1

    def test_accesses_without_pc_not_tracked(self):
        mh = tiny_hierarchy()
        mh.access(0x1000)
        assert mh.amat_counters() == {}


class TestWarmAndReset:
    def test_warm_preloads_without_stats(self):
        mh = tiny_hierarchy()
        for address in (0x1000, 0x2000):
            mh.access(address)
        mh.reset_stats()
        assert mh.l1.stats.accesses == 0
        assert mh.access(0x1000) == 2

    def test_reset_stats_keeps_contents(self):
        mh = tiny_hierarchy()
        mh.access(0x1000, pc=0x40)
        mh.reset_stats()
        assert mh.dram_accesses == 0
        assert mh.amat(0x40) == 0.0
        assert mh.access(0x1000) == 2, "line still resident"

    def test_flush_invalidates_contents(self):
        mh = tiny_hierarchy()
        mh.access(0x1000)
        mh.flush()
        assert mh.access(0x1000) == 114
