"""The accelerator's load/store entries.

Paper Fig. 5: "Load/store entries locally interconnected to PEs but maintain
original program ordering.  Forwarding paths allow stores to broadcast data
and address when ready, forwarding data to future loads with matching
addresses."  Entries sit along the array's edge (modeled at column ``-1`` of
their row).

This class only places memory nodes during mapping.  Forwarding and
disambiguation at run time follow the one ordering rule of
:mod:`repro.mem.lsq` over the engine's per-iteration store list, and port
bandwidth is the :class:`repro.mem.MemoryPorts` pool that each engine run
builds.
"""

from __future__ import annotations

from .config import AcceleratorConfig, Coord

__all__ = ["LoadStoreEntries"]


class LoadStoreEntries:
    """Allocation and placement of memory instructions into LSU entries.

    Entries are distributed round-robin across rows so that a memory-heavy
    loop spreads its accesses along the array edge; entry ``i`` lives at
    coordinate ``(row_of(i), -1)``.
    """

    def __init__(self, config: AcceleratorConfig) -> None:
        self.config = config
        self._next = 0
        self._nodes: set[int] = set()

    @property
    def capacity(self) -> int:
        return self.config.lsu_entries

    @property
    def full(self) -> bool:
        return self._next >= self.capacity

    def entry_coord(self, entry_index: int) -> Coord:
        """Edge coordinate of one entry (row spread, column -1)."""
        rows = self.config.rows
        stride = max(1, rows * self.config.cols // max(1, self.capacity))
        row = (entry_index * stride) % rows
        return (row, -1)

    def allocate(self, node_id: int) -> Coord:
        """Assign the next entry, in program order, to a memory node;
        returns the entry's coordinate (what the interconnect latency model
        reads).

        Raises:
            OverflowError: when all entries are taken (a structural hazard
                that disqualifies the loop, condition C1).
        """
        if self.full:
            raise OverflowError(
                f"all {self.capacity} load/store entries in use"
            )
        if node_id in self._nodes:
            raise ValueError(f"node {node_id} already has an LSU entry")
        coord = self.entry_coord(self._next)
        self._nodes.add(node_id)
        self._next += 1
        return coord
