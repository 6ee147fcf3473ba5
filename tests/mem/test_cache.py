"""Tests for the set-associative cache timing model."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.mem import Cache, CacheConfig, MemoryHierarchy


def small_cache(assoc=2, sets=4, line=16) -> Cache:
    return Cache(CacheConfig(size_bytes=assoc * sets * line,
                             line_bytes=line, associativity=assoc))


class TestConfigValidation:
    def test_rejects_non_power_of_two_line(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1024, line_bytes=48, associativity=2)

    def test_rejects_indivisible_geometry(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1000, line_bytes=64, associativity=8)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=0)

    def test_rejects_hit_latency_below_one_cycle(self):
        with pytest.raises(ValueError, match="hit latency"):
            CacheConfig(size_bytes=1024, hit_latency=0)

    def test_num_sets(self):
        cfg = CacheConfig(size_bytes=64 * 1024, line_bytes=64, associativity=8)
        assert cfg.num_sets == 128


class TestAccessBehaviour:
    def test_cold_miss_then_hit(self):
        cache = small_cache()
        assert not cache.access(0x100)
        assert cache.access(0x100)

    def test_same_line_hits(self):
        cache = small_cache(line=16)
        cache.access(0x100)
        assert cache.access(0x10F), "same 16B line"
        assert not cache.access(0x110), "next line"

    def test_lru_eviction(self):
        cache = small_cache(assoc=2, sets=1, line=16)
        cache.access(0x00)   # line A
        cache.access(0x10)   # line B
        cache.access(0x00)   # touch A -> B is LRU
        cache.access(0x20)   # line C evicts B
        assert cache.access(0x00), "A stays"
        assert not cache.access(0x10), "B was evicted"

    def test_probe_does_not_disturb_state(self):
        cache = small_cache()
        cache.access(0x100)
        hits, misses = cache.stats.hits, cache.stats.misses
        assert cache.probe(0x100)
        assert not cache.probe(0x900)
        assert (cache.stats.hits, cache.stats.misses) == (hits, misses)

    def test_flush_invalidates(self):
        cache = small_cache()
        cache.access(0x100)
        cache.flush()
        assert not cache.access(0x100)

    def test_stats_rates(self):
        cache = small_cache()
        cache.access(0x0)
        cache.access(0x0)
        cache.access(0x0)
        assert cache.stats.accesses == 3
        assert cache.stats.hit_rate == pytest.approx(2 / 3)

    def test_empty_stats(self):
        cache = small_cache()
        assert cache.stats.hit_rate == 0.0


class TestProperties:
    @given(addresses=st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=200))
    def test_resident_lines_bounded_by_capacity(self, addresses):
        cache = small_cache(assoc=2, sets=4)
        for address in addresses:
            cache.access(address)
        assert cache.resident_lines <= 8

    @given(addresses=st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=200))
    def test_hits_plus_misses_equals_accesses(self, addresses):
        cache = small_cache()
        for address in addresses:
            cache.access(address)
        assert cache.stats.accesses == len(addresses)

    @given(address=st.integers(0, 0xFFFFF))
    def test_repeated_access_always_hits_after_fill(self, address):
        cache = small_cache()
        cache.access(address)
        for _ in range(3):
            assert cache.access(address)

    @given(addresses=st.lists(st.integers(0, 0xFF), min_size=1, max_size=50))
    def test_working_set_within_capacity_never_re_misses(self, addresses):
        """Once a small working set is resident, it never misses again (LRU)."""
        cache = small_cache(assoc=4, sets=1, line=64)  # 4 lines, 64B each
        lines = {a // 64 for a in addresses}
        if len(lines) > 4:
            return
        for address in addresses:
            cache.access(address)
        cache.reset_stats()
        for address in addresses:
            cache.access(address)
        assert cache.stats.misses == 0


def _replay(cache: Cache, accesses) -> list[tuple]:
    """Hit/miss plus the eviction delta for each access."""
    outcome = []
    for address in accesses:
        evictions = cache.stats.evictions
        hit = cache.access(address)
        outcome.append((hit, cache.stats.evictions - evictions))
    return outcome


def _accesses(seed: int, count: int = 400, span: int = 0x800):
    rng = random.Random(seed)
    return [rng.randrange(span) for _ in range(count)]


class TestLazySets:
    """Sets are allocated on first touch; none of that is observable."""

    def test_probe_on_untouched_set_is_false(self):
        cache = small_cache(assoc=2, sets=4, line=16)
        assert not cache.probe(0x0)
        cache.access(0x0)            # touches set 0 only
        assert not cache.probe(0x10), "set 1 never touched"
        assert not cache.probe(0x40), "set 0, other tag"
        assert cache.stats.accesses == 1

    def test_flushed_cache_replays_like_a_fresh_one(self):
        accesses = _accesses(seed=3)
        used = small_cache(assoc=2, sets=4, line=16)
        _replay(used, _accesses(seed=4))
        used.flush()
        used.reset_stats()
        fresh = small_cache(assoc=2, sets=4, line=16)
        assert _replay(used, accesses) == _replay(fresh, accesses)
        assert used.stats == fresh.stats
        assert used.stats.evictions

    def test_resident_lines_count_only_touched_lines(self):
        cache = Cache(CacheConfig(size_bytes=8 * 1024 * 1024,
                                  associativity=16))
        assert cache.resident_lines == 0
        lines = {0x0, 0x40, 0x1000, 0x7FFFC0}
        for address in lines:
            cache.access(address)
        cache.access(0x4)            # same line as 0x0
        assert cache.resident_lines == len(lines)
        cache.flush()
        assert cache.resident_lines == 0

    def test_hierarchy_flush_then_reaccess_matches_new_hierarchy(self):
        accesses = _accesses(seed=5, span=0x4000)
        used = MemoryHierarchy()
        for address in _accesses(seed=6, span=0x4000):
            used.access(address)
        used.flush()
        used.reset_stats()
        fresh = MemoryHierarchy()
        assert ([used.access(a, pc=a & 0xFC) for a in accesses]
                == [fresh.access(a, pc=a & 0xFC) for a in accesses])
        assert used.l1.stats == fresh.l1.stats
        assert used.l2.stats == fresh.l2.stats
        assert used.dram_accesses == fresh.dram_accesses
        assert used.amat_counters() == fresh.amat_counters()
