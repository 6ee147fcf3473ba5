"""Memory substrate: storage, caches, hierarchy timing, ports, and ordering.

* :class:`Memory` — functional byte-addressed storage (the data itself);
* :class:`Cache` / :class:`CacheConfig` — one set-associative level;
* :class:`MemoryHierarchy` — L1 + L2 + DRAM timing with per-PC AMAT counters;
* :class:`MemoryPorts` — bandwidth arbitration for the accelerator's ports;
* :mod:`repro.mem.lsq` — the fabric's store→load ordering rule.
"""

from .cache import Cache, CacheConfig, CacheStats
from .hierarchy import AmatCounter, HierarchyConfig, MemoryHierarchy
from .memory import Memory
from .ports import MemoryPorts

__all__ = [
    "Cache",
    "CacheConfig",
    "CacheStats",
    "AmatCounter",
    "HierarchyConfig",
    "MemoryHierarchy",
    "Memory",
    "MemoryPorts",
]
