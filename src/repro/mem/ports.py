"""Memory-port bandwidth arbitration.

The accelerator's load/store entries share a limited number of memory ports
("the actual design has far more entries sharing a port", paper Fig. 5), and
the PE-scaling study (Fig. 15) shows performance saturating when those ports
bottleneck — the "Ideal Memory" curve assumes *infinite* ports.  This module
models that contention: each port can start one access per cycle, and
requests are served in request order at the earliest cycle a port is free.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

__all__ = ["MemoryPorts"]


class MemoryPorts:
    """Arbiter for a fixed pool of memory ports.

    ``request(cycle)`` returns the cycle at which the access can *start*
    (>= the requested cycle).  Pass ``float("inf")`` port count via
    :meth:`ideal` for the paper's ideal-memory scenario.
    """

    def __init__(self, num_ports: int, issue_interval: int = 1) -> None:
        """
        Args:
            num_ports: number of ports that can each start one access per
                ``issue_interval`` cycles.
            issue_interval: cycles a port is busy per access initiation.
        """
        if num_ports < 1:
            raise ValueError("need at least one port")
        if issue_interval < 1:
            raise ValueError("issue interval must be >= 1")
        self.num_ports = num_ports
        self.issue_interval = issue_interval
        self.unlimited = math.isinf(float(num_ports))
        # Min-heap of cycles at which each port next becomes free.
        self._free_at: list[float] = [0.0] * (0 if self.unlimited else int(num_ports))
        if not self.unlimited:
            heapq.heapify(self._free_at)
        self.total_requests = 0
        self.total_wait_cycles = 0.0

    @classmethod
    def ideal(cls) -> "MemoryPorts":
        """An arbiter with unlimited bandwidth (Fig. 15 'Ideal Memory')."""
        arbiter = cls.__new__(cls)
        arbiter.num_ports = math.inf  # type: ignore[assignment]
        arbiter.issue_interval = 1
        arbiter.unlimited = True
        arbiter._free_at = []
        arbiter.total_requests = 0
        arbiter.total_wait_cycles = 0.0
        return arbiter

    def request(self, cycle: float) -> float:
        """Claim a port at or after ``cycle``; returns the grant cycle."""
        self.total_requests += 1
        if self.unlimited:
            return cycle
        earliest = self._free_at[0]
        grant = max(cycle, earliest)
        heapq.heapreplace(self._free_at, grant + self.issue_interval)
        self.total_wait_cycles += grant - cycle
        return grant

    def idle_by(self, cycle: float) -> bool:
        """True when every port is free at ``cycle`` (no grant pending)."""
        return self.unlimited or max(self._free_at) <= cycle

    def record_grants(self, free_times, wait_cycles: float) -> None:
        """Fold requests granted outside :meth:`request` into the arbiter.

        ``free_times`` holds ``grant + issue_interval`` of every request,
        each granted at ``max(cycle, earliest free port)``, and
        ``wait_cycles`` the sum of their ``grant - cycle``.  Every request
        replaces the earliest free time with a later one, so the pool ends
        holding the ``num_ports`` latest of all free times it has seen —
        the state :meth:`request` would have left.
        """
        free_times = np.asarray(free_times, np.float64)
        self.total_requests += free_times.size
        self.total_wait_cycles += wait_cycles
        if not self.unlimited and free_times.size:
            pool = np.concatenate((self._free_at, free_times))
            self._free_at = np.sort(pool)[-len(self._free_at):].tolist()
