"""Set-associative cache timing model with LRU replacement.

The evaluation platform in the paper configures "a memory hierarchy of 64KB
L1, unified 8MB L2" (§6.1); this module provides the building block for that
hierarchy.  Only *timing* is modeled — data always comes from
:class:`repro.mem.memory.Memory` — so a cache access returns whether it hit
and lets the hierarchy translate that into cycles.  Reads and writes are
timed alike and lines keep no dirty bit: no writeback costs a cycle, and
the energy models read only access counts.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

__all__ = ["CacheConfig", "CacheStats", "Cache"]

#: Accesses below which :meth:`Cache.access_many` loops over
#: :meth:`Cache.access`: its bulk pass costs some twenty numpy calls.
_BULK_MIN = 64


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    size_bytes: int
    line_bytes: int = 64
    associativity: int = 8
    hit_latency: int = 2

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0 or self.associativity <= 0:
            raise ValueError("cache parameters must be positive")
        if self.size_bytes % (self.line_bytes * self.associativity) != 0:
            raise ValueError(
                f"size {self.size_bytes} not divisible into "
                f"{self.associativity}-way sets of {self.line_bytes}B lines"
            )
        if self.line_bytes & (self.line_bytes - 1):
            raise ValueError("line size must be a power of two")
        if self.hit_latency < 1:
            raise ValueError("hit latency must be >= 1 cycle")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.associativity)


@dataclass
class CacheStats:
    """Access counters for one cache level."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class Cache:
    """One level of a cache hierarchy (timing only, LRU replacement)."""

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self.stats = CacheStats()
        self._line_bytes = config.line_bytes
        self._num_sets = config.num_sets
        self._ways = config.associativity
        # One ordered dict per set (its tags, in LRU order), created when
        # the set is first touched: an 8MB L2 has 8192 sets, and most runs
        # touch few of them.
        self._sets: list[OrderedDict[int, None] | None] = [None] * self._num_sets
        self._resident = 0  # lines held, over all sets

    def _locate(self, address: int) -> tuple[int, int]:
        line = address // self._line_bytes
        return line % self._num_sets, line // self._num_sets

    def access(self, address: int) -> bool:
        """Access one address; returns True on hit.

        On a miss the line is filled (allocate-on-miss for both reads and
        writes) and the LRU way evicted if the set is full.
        """
        line = address // self._line_bytes
        set_index, tag = line % self._num_sets, line // self._num_sets
        ways = self._sets[set_index]
        if ways is None:
            ways = self._sets[set_index] = OrderedDict()
        elif tag in ways:
            self.stats.hits += 1
            ways.move_to_end(tag)
            return True
        self.stats.misses += 1
        if len(ways) >= self._ways:
            ways.popitem(last=False)
            self.stats.evictions += 1
        else:
            self._resident += 1
        ways[tag] = None
        return False

    def access_many(self, addresses: np.ndarray) -> np.ndarray:
        """Bulk :meth:`access`: which of a stream of addresses hit.

        Same hits, LRU order and counters as ``[self.access(a) for a in
        addresses]``.  Sets are independent, so each set takes its own
        accesses in stream order, apart from the other sets'.

        * A set whose resident lines plus the distinct lines the stream
          brings fit its ways never evicts.  There the first access to a
          line that is not resident misses and every other access hits,
          and the lines end in last-access order after those the stream
          left alone.
        * Any other set runs access by access, except that an access to
          the line its set touched last (a *tail*) hits and leaves LRU
          order unchanged.

        A stream of fewer than :data:`_BULK_MIN` accesses runs access by
        access.
        """
        count = addresses.size
        if count < _BULK_MIN:
            return np.array([self.access(address)
                             for address in addresses.tolist()], bool)
        hits = np.ones(count, bool)
        num_sets, capacity, sets = self._num_sets, self._ways, self._sets
        lines = addresses // self._line_bytes
        # Distinct lines, with their first and last access.
        order = np.argsort(lines, kind="stable")
        ordered = lines[order]
        starts = np.flatnonzero(np.concatenate(
            ([True], ordered[1:] != ordered[:-1])))
        unique = ordered[starts]
        first = order[starts]
        last = order[np.append(starts[1:], count) - 1]
        line_sets = unique % num_sets
        fresh = np.bincount(line_sets, minlength=num_sets)
        if self._resident:
            touched = np.flatnonzero(fresh)
            unsafe = [s for s, n in zip(touched.tolist(),
                                        fresh[touched].tolist())
                      if n + len(sets[s] or ()) > capacity]
        else:
            unsafe = np.flatnonzero(fresh > capacity).tolist()
        stats = self.stats
        misses = []
        by_last = np.argsort(last)
        if unsafe:
            risky = np.zeros(num_sets, bool)
            risky[unsafe] = True
            by_last = by_last[~risky[line_sets[by_last]]]
        for line, at in zip(unique[by_last].tolist(),
                            first[by_last].tolist()):
            set_index, tag = line % num_sets, line // num_sets
            ways = sets[set_index]
            if ways is None:
                ways = sets[set_index] = OrderedDict()
            if tag in ways:
                ways.move_to_end(tag)
            else:
                ways[tag] = None
                misses.append(at)
        hits[misses] = False
        stats.misses += len(misses)
        self._resident += len(misses)
        stats.hits += count - len(misses)
        if unsafe:
            rows = np.flatnonzero(risky[lines % num_sets])
            rows = rows[np.argsort(lines[rows] % num_sets, kind="stable")]
            ordered = lines[rows]
            tail = np.concatenate(([False], ordered[1:] == ordered[:-1]))
            heads = rows[~tail]
            # Each head counts itself in ``access``.
            stats.hits -= heads.size
            access = self.access
            hits[heads] = [access(address)
                           for address in addresses[heads].tolist()]
        return hits

    def probe(self, address: int) -> bool:
        """Check residency without updating LRU state or counters."""
        set_index, tag = self._locate(address)
        ways = self._sets[set_index]
        return ways is not None and tag in ways

    def flush(self) -> None:
        """Invalidate all lines (counters are preserved)."""
        self._sets = [None] * self._num_sets
        self._resident = 0

    def reset_stats(self) -> None:
        self.stats = CacheStats()

    @property
    def resident_lines(self) -> int:
        return self._resident

    def __repr__(self) -> str:
        cfg = self.config
        return (
            f"Cache({self.name}, {cfg.size_bytes // 1024}KB, "
            f"{cfg.associativity}-way, {cfg.line_bytes}B lines)"
        )
