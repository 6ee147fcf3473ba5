"""Property tests: the bulk memory APIs equal their one-at-a-time forms.

The batched engine drives a block's memory events through two bulk calls:
:meth:`MemoryHierarchy.access_stream` (every cache outcome of the block in
one pass, one :meth:`Cache.access_many` per level) and
:meth:`Memory.scatter` (every store commit in one update).
Each must be indistinguishable from the sequential loop it replaces —
``access`` per entry, ``store`` per entry — in results, cache contents,
LRU order, counters and raised errors.

Streams are drawn to hit the cases the bulk paths special-case: arrays
8 KiB apart (one L1 set in the default geometry), runs of same-line
accesses, more lines per set than ways (evictions), cold lines (L2 and
DRAM misses), and negative addresses.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mem import (
    Cache,
    CacheConfig,
    HierarchyConfig,
    Memory,
    MemoryHierarchy,
)

from ..accel.test_plan_equivalence import memory_fingerprint

#: Nightly CI exports REPRO_FUZZ_SCALE to multiply every example budget.
FUZZ_SCALE = int(os.environ.get("REPRO_FUZZ_SCALE", "1"))

#: A geometry small enough to evict from both levels within a short stream.
TINY = HierarchyConfig(
    l1=CacheConfig(size_bytes=256, line_bytes=16, associativity=2,
                   hit_latency=2),
    l2=CacheConfig(size_bytes=1024, line_bytes=16, associativity=4,
                   hit_latency=12),
    dram_latency=100)

#: The pc table access streams index by slot; two slots share a pc.
PCS = (0x2000, 0x2004, 0x2008, 0x2000)


@st.composite
def access_streams(draw):
    """(address, slot) pairs over aliasing arrays."""
    arrays = draw(st.integers(1, 12))
    stream = []
    for _ in range(draw(st.integers(0, 120))):
        array = draw(st.integers(0, arrays - 1))
        offset = draw(st.integers(-16, 256))
        slot = draw(st.integers(0, len(PCS) - 1))
        # A run of accesses to nearby bytes (mostly one line).
        for step in range(draw(st.integers(1, 4))):
            stream.append((array * 8192 + offset + 4 * step, slot))
    return stream


@settings(max_examples=100 * FUZZ_SCALE, deadline=None)
@given(config=st.sampled_from((TINY, HierarchyConfig())),
       warm=access_streams(), stream=access_streams())
def test_access_stream_equals_sequential_access(config, warm, stream):
    sequential = MemoryHierarchy(config)
    bulk = MemoryHierarchy(config)
    for hierarchy in (sequential, bulk):
        for address, slot in warm:
            hierarchy.access(address, PCS[slot])
    expected = [sequential.access(address, PCS[slot])
                for address, slot in stream]
    addresses, slots = (zip(*stream) if stream else ((), ()))
    latencies = bulk.access_stream(list(addresses), list(slots), PCS)
    assert latencies.tolist() == expected
    assert memory_fingerprint(bulk) == memory_fingerprint(sequential)


@pytest.mark.parametrize("lanes", (3, 40))
def test_access_stream_creates_counters_in_first_live_access_order(lanes):
    # The drive's stream: k-major over (lanes, memory nodes), live lanes
    # only, each access's slot its memory node's column.  Slot 0 is
    # predicated off on lane 0, so slot 1's pc is the first one accessed
    # and its counter must come first, as per-access ``access`` makes it.
    pcs = [0x2000, 0x2004, 0x2008]
    addresses = (np.arange(lanes)[:, None] * 64
                 + np.array([0, 8192, 16384])).astype(np.int64)
    live = np.ones(addresses.shape, bool)
    live[0, 0] = False
    slots = np.broadcast_to(np.arange(len(pcs)), addresses.shape)
    sequential, bulk = MemoryHierarchy(), MemoryHierarchy()
    expected = [sequential.access(address, pcs[slot]) for address, slot
                in zip(addresses[live].tolist(), slots[live].tolist())]
    latencies = bulk.access_stream(addresses[live], slots[live], pcs)
    assert latencies.tolist() == expected
    assert list(bulk.amat_counters()) == [0x2004, 0x2008, 0x2000]
    assert memory_fingerprint(bulk) == memory_fingerprint(sequential)


@settings(max_examples=100 * FUZZ_SCALE, deadline=None)
@given(warm=access_streams(), stream=access_streams(),
       ways=st.sampled_from((1, 2, 4)), repeat=st.integers(1, 4))
def test_cache_access_many_equals_sequential_access(warm, stream, ways,
                                                    repeat):
    # Repeating the stream makes most draws long enough for the bulk pass;
    # the sets mix ones that fit their ways and ones that evict.
    config = CacheConfig(size_bytes=64 * ways * 4, line_bytes=16,
                         associativity=ways)
    sequential, bulk = Cache(config), Cache(config)
    for cache in (sequential, bulk):
        for address, _ in warm:
            cache.access(address)
    addresses = [address for address, _ in stream] * repeat
    expected = [sequential.access(address) for address in addresses]
    hits = bulk.access_many(np.array(addresses, np.int64))
    assert hits.tolist() == expected
    assert bulk.stats == sequential.stats
    assert bulk.resident_lines == sequential.resident_lines
    assert ([list(ways or ()) for ways in bulk._sets]
            == [list(ways or ()) for ways in sequential._sets])


@st.composite
def store_streams(draw):
    """(address, size, value, live) entries over an overlapping window."""
    entries = []
    for _ in range(draw(st.integers(0, 40))):
        entries.append((draw(st.integers(-8, 48)),
                        draw(st.sampled_from((1, 2, 4, 8))),
                        draw(st.integers(-(1 << 63), (1 << 63) - 1)),
                        draw(st.booleans())))
    return entries


def _outcome(call):
    try:
        call()
    except ValueError as error:
        return str(error)
    return None


@settings(max_examples=100 * FUZZ_SCALE, deadline=None)
@given(entries=store_streams(), one_size=st.booleans(),
       masked=st.booleans())
def test_scatter_equals_sequential_store(entries, one_size, masked):
    if one_size:
        entries = [(a, 4, v, live) for a, _, v, live in entries]
    if not masked:
        entries = [(a, s, v, True) for a, s, v, _ in entries]
    sequential, bulk = Memory(), Memory()
    for memory in (sequential, bulk):
        memory.store(0x10, 4, 0xDEADBEEF)

    def store_each():
        for address, size, value, live in entries:
            if live:
                sequential.store(address, size, value)

    addresses = [a for a, _, _, _ in entries]
    sizes = 4 if one_size else [s for _, s, _, _ in entries]
    values = [v for _, _, v, _ in entries]
    mask = [live for _, _, _, live in entries] if masked else None
    expected = _outcome(store_each)
    assert _outcome(lambda: bulk.scatter(addresses, sizes, values,
                                         mask)) == expected
    assert bulk._bytes == sequential._bytes


def test_scatter_later_store_wins_and_commits_before_the_fault():
    memory = Memory()
    with pytest.raises(ValueError, match="negative address -0x4"):
        memory.scatter([0, 2, -4, 8], 4, [0x11111111, 0x2222, 7, 9])
    assert memory.load(0, 4) == 0x22221111
    assert memory.load(4, 2) == 0
    assert memory.footprint() == 6
