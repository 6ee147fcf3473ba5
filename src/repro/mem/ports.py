"""Memory-port bandwidth arbitration.

The accelerator's load/store entries share a limited number of memory ports
("the actual design has far more entries sharing a port", paper Fig. 5), and
the PE-scaling study (Fig. 15) shows performance saturating when those ports
bottleneck — the "Ideal Memory" curve assumes *infinite* ports.  This module
models that contention: each port can start one access per cycle, and
requests are served in request order at the earliest cycle a port is free.
A pool belongs to one run: the engine builds it empty at clock 0.
"""

from __future__ import annotations

import heapq
import math

__all__ = ["MemoryPorts"]


class MemoryPorts:
    """Arbiter for a fixed pool of memory ports.

    ``request(cycle)`` returns the cycle at which the access can *start*
    (>= the requested cycle); the port is free again one cycle later.
    """

    def __init__(self, num_ports: int | float) -> None:
        """
        Args:
            num_ports: number of ports that can each start one access per
                cycle; ``math.inf`` for unlimited bandwidth.
        """
        if num_ports < 1:
            raise ValueError("need at least one port")
        self.num_ports = num_ports
        self.unlimited = math.isinf(float(num_ports))
        # Min-heap of cycles at which each port next becomes free.
        self._free_at: list[float] = [0.0] * (0 if self.unlimited else int(num_ports))

    def request(self, cycle: float) -> float:
        """Claim a port at or after ``cycle``; returns the grant cycle."""
        if self.unlimited:
            return cycle
        grant = max(cycle, self._free_at[0])
        heapq.heapreplace(self._free_at, grant + 1)
        return grant
