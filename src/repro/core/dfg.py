"""The weighted dataflow-graph performance model (paper §3.1).

Nodes are instructions weighted by operation latency (cycles from inputs
ready to output produced); edges are dependencies weighted by data-transfer
latency (cycles from producer output to consumer input).  Equation 1/2 gives
each instruction's completion cycle:

    L_i = L_i.op + max(L_s1 + L_(s1,i),  L_s2 + L_(s2,i))

and the sequence latency is ``max(L_i)``, with the *critical path* being the
heaviest-weight path.  MESA uses this as a live performance model: weights
start as estimates and are refined from hardware counters, letting it
"rapidly identify the critical path and pinpoint nodes or edges that are
sources of bottleneck".

The worked example of Fig. 2 (five instructions, add = 3 cycles, mul = 5,
Manhattan-distance transfers, total 15 cycles, critical path {i1, i4, i5})
executes verbatim on this model — see ``tests/core/test_dfg.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DfgNode", "DataflowGraph"]


@dataclass
class DfgNode:
    """One instruction in the performance model."""

    node_id: int
    op_latency: float
    #: Source node ids (up to two, matching the paper's s1/s2).
    sources: tuple[int, ...] = ()
    label: str = ""

    def __post_init__(self) -> None:
        if len(self.sources) > 2:
            raise ValueError(
                f"node {self.node_id} has {len(self.sources)} sources; "
                "the DFG model allows at most two (s1, s2)"
            )
        if self.op_latency < 0:
            raise ValueError("operation latency must be non-negative")


class DataflowGraph:
    """A latency-weighted DFG evaluated by Equation 1/2."""

    def __init__(self) -> None:
        self._nodes: dict[int, DfgNode] = {}
        self._edge_weights: dict[tuple[int, int], float] = {}

    # -- construction --------------------------------------------------------

    def add_node(self, node_id: int, op_latency: float,
                 sources: tuple[int, ...] = (), label: str = "") -> DfgNode:
        """Add an instruction node; sources must already exist.

        Raises:
            ValueError: duplicate id, unknown source, or a forward reference
                (the DFG of a single iteration is acyclic in program order).
        """
        if node_id in self._nodes:
            raise ValueError(f"duplicate node id {node_id}")
        for src in sources:
            if src not in self._nodes:
                raise ValueError(f"node {node_id} references unknown/later "
                                 f"source {src}")
        node = DfgNode(node_id, op_latency, tuple(sources), label)
        self._nodes[node_id] = node
        for src in sources:
            self._edge_weights.setdefault((src, node_id), 0.0)
        return node

    def set_edge_weight(self, src: int, dst: int, weight: float) -> None:
        """Set a transfer latency (edge must exist)."""
        if (src, dst) not in self._edge_weights:
            raise KeyError(f"no edge ({src}, {dst})")
        if weight < 0:
            raise ValueError("transfer latency must be non-negative")
        self._edge_weights[(src, dst)] = weight

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    def node(self, node_id: int) -> DfgNode:
        return self._nodes[node_id]

    @property
    def nodes(self) -> list[DfgNode]:
        return [self._nodes[nid] for nid in sorted(self._nodes)]

    @property
    def edges(self) -> list[tuple[int, int]]:
        return sorted(self._edge_weights)

    # -- the performance model ---------------------------------------------------

    def completion_times(self) -> dict[int, float]:
        """L_i for every node, per Equation 1/2.

        Nodes are evaluated in id (program) order, which is a topological
        order because construction forbids forward references.
        """
        latency: dict[int, float] = {}
        for node_id in sorted(self._nodes):
            node = self._nodes[node_id]
            arrival = 0.0
            for src in node.sources:
                transfer = self._edge_weights[(src, node_id)]
                arrival = max(arrival, latency[src] + transfer)
            latency[node_id] = node.op_latency + arrival
        return latency

    def total_latency(self) -> float:
        """Sequence latency: the largest instruction completion time."""
        times = self.completion_times()
        return max(times.values(), default=0.0)

    def critical_path(self) -> list[int]:
        """Node ids of the heaviest path, in dependence order."""
        times = self.completion_times()
        if not times:
            return []
        current = max(times, key=lambda nid: (times[nid], -nid))
        path = [current]
        while True:
            node = self._nodes[current]
            best_src: int | None = None
            best_arrival = -1.0
            for src in node.sources:
                arrival = times[src] + self._edge_weights[(src, current)]
                if arrival > best_arrival:
                    best_arrival, best_src = arrival, src
            if best_src is None or best_arrival <= 0:
                break
            path.append(best_src)
            current = best_src
        path.reverse()
        return path

    def latency_table(self) -> str:
        """The Fig. 2-style latency table as text (for docs and debugging)."""
        times = self.completion_times()
        critical = set(self.critical_path())
        lines = ["node  op_lat  L_i    critical"]
        for node in self.nodes:
            star = "*" if node.node_id in critical else ""
            label = f" ({node.label})" if node.label else ""
            lines.append(
                f"i{node.node_id:<4} {node.op_latency:<7.1f}"
                f"{times[node.node_id]:<7.1f}{star}{label}"
            )
        return "\n".join(lines)
