"""Multi-level memory hierarchy with per-instruction AMAT tracking.

The paper models memory operations in the DFG as nodes with variable latency
equal to their *per-instruction average memory access time* measured by
"counters at load/store unit entries" (§3.1, §4.2).  This module provides
exactly that: a hierarchy whose :meth:`MemoryHierarchy.access` returns the
latency of one access, and which keeps a running AMAT keyed by the PC of the
memory instruction so the MESA performance model can read it back.  A store
is timed like a load: no writeback costs a cycle, so no level keeps dirty
state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cache import Cache, CacheConfig

__all__ = ["HierarchyConfig", "AmatCounter", "MemoryHierarchy"]


@dataclass(frozen=True)
class HierarchyConfig:
    """The evaluation platform's memory system (64KB L1, 8MB unified L2)."""

    l1: CacheConfig = CacheConfig(size_bytes=64 * 1024, hit_latency=2)
    l2: CacheConfig = CacheConfig(size_bytes=8 * 1024 * 1024, hit_latency=12,
                                  associativity=16)
    dram_latency: int = 100


@dataclass
class AmatCounter:
    """Running average access latency for one instruction address."""

    total_cycles: int = 0
    accesses: int = 0

    def record(self, latency: int) -> None:
        self.total_cycles += latency
        self.accesses += 1

    @property
    def amat(self) -> float:
        return self.total_cycles / self.accesses if self.accesses else 0.0


class MemoryHierarchy:
    """L1 + unified L2 + DRAM timing model.

    Access latency accumulates down the hierarchy: an L1 miss pays the L1
    probe plus the L2 access, and an L2 miss additionally pays DRAM latency.
    """

    def __init__(self, config: HierarchyConfig | None = None) -> None:
        self.config = config if config is not None else HierarchyConfig()
        self.l1 = Cache(self.config.l1, name="L1")
        self.l2 = Cache(self.config.l2, name="L2")
        self.dram_accesses = 0
        self._amat: dict[int, AmatCounter] = {}

    def access(self, address: int, pc: int | None = None) -> int:
        """Access the hierarchy once; returns the latency in cycles.

        Args:
            address: byte address of the access.
            pc: instruction address, used to key the per-PC AMAT counter
                (the paper's load/store-entry latency counters).
        """
        latency = self.config.l1.hit_latency
        if not self.l1.access(address):
            latency += self.config.l2.hit_latency
            if not self.l2.access(address):
                latency += self.config.dram_latency
                self.dram_accesses += 1
        if pc is not None:
            counter = self._amat.get(pc)
            if counter is None:
                counter = self._amat[pc] = AmatCounter()
            counter.record(latency)
        return latency

    def access_stream(self, addresses, slots, pcs) -> np.ndarray:
        """Bulk :meth:`access`: the latency of every access in a stream.

        Each access names its instruction by its *slot*, an index into the
        small table ``pcs``.  Equivalent to ``[self.access(a, pcs[s]) for
        a, s in zip(addresses, slots)]`` — same latencies, same cache
        contents in the same LRU order, same counters, created in the
        order of each pc's first access.  Each level resolves its stream
        with :meth:`Cache.access_many`, and L2's stream is L1's misses in
        order.  DRAM accesses and the per-PC AMAT counters are folded in
        bulk, AMAT by slot.
        """
        addresses = np.asarray(addresses, np.int64)
        cfg = self.config
        latencies = np.full(addresses.size, cfg.l1.hit_latency, np.int64)
        if not addresses.size:
            return latencies
        missed = np.flatnonzero(~self.l1.access_many(addresses))
        latencies[missed] += cfg.l2.hit_latency
        dram = missed[~self.l2.access_many(addresses[missed])]
        latencies[dram] += cfg.dram_latency
        self.dram_accesses += dram.size

        slots = np.asarray(slots)
        totals = np.bincount(slots, latencies, len(pcs)).tolist()
        counts = np.bincount(slots, minlength=len(pcs)).tolist()
        amat = self._amat
        fresh = [s for s, count in enumerate(counts)
                 if count and pcs[s] not in amat]
        # New counters are created in first-access order.
        for s in sorted(fresh, key=lambda s: int((slots == s).argmax())):
            amat.setdefault(pcs[s], AmatCounter())
        for s, count in enumerate(counts):
            if count:
                counter = amat[pcs[s]]
                counter.total_cycles += int(totals[s])
                counter.accesses += count
        return latencies

    def amat(self, pc: int) -> float:
        """Measured AMAT for the memory instruction at ``pc`` (0 if unseen)."""
        counter = self._amat.get(pc)
        return counter.amat if counter is not None else 0.0

    def amat_counters(self) -> dict[int, AmatCounter]:
        """All per-PC AMAT counters (a copy; the fingerprint tests compare
        them)."""
        return dict(self._amat)

    @property
    def ideal_latency(self) -> int:
        """Best-case (L1 hit) latency."""
        return self.config.l1.hit_latency

    def reset_stats(self) -> None:
        """Clear counters but keep cache contents (warm-cache measurement)."""
        self.l1.reset_stats()
        self.l2.reset_stats()
        self.dram_accesses = 0
        self._amat.clear()

    def flush(self) -> None:
        """Invalidate all cache contents."""
        self.l1.flush()
        self.l2.flush()
