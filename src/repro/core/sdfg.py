"""The Spatial Dataflow Graph (SDFG): the placed, planar view of the loop.

Paper §3: "the SDFG ... stores a planar view of the dataflow graph (indexed
by position, out-of-order) exposing its instruction-level parallelism ...
the LDFG, being linear, is used to maintain instruction ordering, and the
SDFG, being planar, is used to configure the spatial accelerator."

An :class:`Sdfg` pairs the LDFG with a placement (node → coordinate), the
predicted completion times the mapper computed while placing, and helpers to
re-evaluate the weighted performance model with real transfer latencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..accel import AcceleratorConfig, Coord, Interconnect
from .dfg import DataflowGraph
from .ldfg import Ldfg

__all__ = ["Sdfg"]


@dataclass
class Sdfg:
    """A spatially mapped loop body."""

    ldfg: Ldfg
    config: AcceleratorConfig
    #: Placement: node id -> coordinate (LSU entries at column -1).
    positions: dict[int, Coord]
    #: The mapper's predicted completion cycle per node (Eq. 1).
    predicted_completion: dict[int, float]
    #: Nodes that failed the candidate search and fell back to the
    #: secondary interconnect (placed outside their candidate window).
    fallback_nodes: set[int] = field(default_factory=set)

    @property
    def predicted_latency(self) -> float:
        """Predicted per-iteration latency (max completion time)."""
        return max(self.predicted_completion.values(), default=0.0)

    def to_dataflow_graph(self, interconnect: Interconnect) -> DataflowGraph:
        """The Eq. 1/2 performance model with real transfer weights.

        Node weights come from the LDFG (op latency / AMAT estimates); edge
        weights from the interconnect between placed positions.
        """
        graph = self.ldfg.to_dataflow_graph()
        for entry in self.ldfg.entries:
            for src in entry.same_iteration_sources():
                if src in self.positions and entry.node_id in self.positions:
                    graph.set_edge_weight(
                        src, entry.node_id,
                        interconnect.latency(self.positions[src],
                                             self.positions[entry.node_id]),
                    )
        return graph

    def critical_path(self, interconnect: Interconnect) -> list[int]:
        """Critical-path node ids under the spatial performance model."""
        return self.to_dataflow_graph(interconnect).critical_path()

    def render_placement(self) -> str:
        """ASCII map of the array: node ids at their PEs, LSU entries in
        ``[...]`` brackets along the left edge, free PEs as dots."""
        rows, cols = self.config.rows, self.config.cols
        grid = [["  ." for _ in range(cols)] for _ in range(rows)]
        lsu: dict[int, list[int]] = {}
        for node_id, (row, col) in sorted(self.positions.items()):
            if col >= 0:
                grid[row][col] = f"{node_id:3d}"
            else:
                lsu.setdefault(row, []).append(node_id)
        lines = []
        for row in range(rows):
            entries = ",".join(str(n) for n in lsu.get(row, []))
            prefix = f"[{entries:>5}] " if entries else "        "
            lines.append(prefix + " ".join(grid[row]))
        return "\n".join(lines)
