"""Accelerator activity counters.

Paper §5.2: "Simple latency counters are placed at PEs and load-store entries
on the accelerator to count the start and end cycles of an operation ...
these counters track per-instruction latency rather than an averaged IPC or
AMAT estimate.  These results are reported back to MESA's frontend."

Two kinds of state are kept:

* **per-node latency counters** (:class:`LatencyCounters`) — the measured
  completion cycle of every node and the measured transfer latency of every
  edge, exactly what MESA's iterative optimizer consumes;
* **activity counters** (:class:`ActivityCounters`) — per-component event
  counts that the power model turns into energy (Fig. 13, Fig. 16).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ActivityCounters", "LatencyCounters"]


@dataclass
class ActivityCounters:
    """Event counts for energy accounting."""

    int_ops: int = 0
    fp_ops: int = 0
    #: Disabled-PE value forwards (predication) — cheap moves, not ALU ops.
    forwards: int = 0
    loads: int = 0
    stores: int = 0
    lsq_forwards: int = 0
    #: Speculative loads invalidated by a later-resolving store (§4.2).
    load_replays: int = 0
    local_hops: int = 0
    #: Router traversals by NoC-routed packets (one energy event per hop).
    #: Queue time is *not* a hop — it accrues in :attr:`noc_wait_cycles`.
    noc_hops: int = 0
    #: Cycles packets queued for a busy NoC ring channel.
    noc_wait_cycles: float = 0.0
    pe_busy_cycles: float = 0.0
    control_events: int = 0  # branch evaluations / enable-network activity

    @property
    def memory_accesses(self) -> int:
        return self.loads + self.stores

    def merged(self, other: "ActivityCounters") -> "ActivityCounters":
        return ActivityCounters(
            int_ops=self.int_ops + other.int_ops,
            fp_ops=self.fp_ops + other.fp_ops,
            forwards=self.forwards + other.forwards,
            loads=self.loads + other.loads,
            stores=self.stores + other.stores,
            lsq_forwards=self.lsq_forwards + other.lsq_forwards,
            load_replays=self.load_replays + other.load_replays,
            local_hops=self.local_hops + other.local_hops,
            noc_hops=self.noc_hops + other.noc_hops,
            noc_wait_cycles=self.noc_wait_cycles + other.noc_wait_cycles,
            pe_busy_cycles=self.pe_busy_cycles + other.pe_busy_cycles,
            control_events=self.control_events + other.control_events,
        )


@dataclass
class LatencyCounters:
    """Per-node and per-edge measured latencies (averaged over iterations)."""

    _node_total: dict[int, float] = field(default_factory=dict)
    _node_count: dict[int, int] = field(default_factory=dict)
    _edge_total: dict[tuple[int, int], float] = field(default_factory=dict)
    _edge_count: dict[tuple[int, int], int] = field(default_factory=dict)

    def record_node(self, node_id: int, latency: float) -> None:
        """Record one completion: cycles from iteration start to output."""
        self._node_total[node_id] = self._node_total.get(node_id, 0.0) + latency
        self._node_count[node_id] = self._node_count.get(node_id, 0) + 1

    def record_edge(self, src: int, dst: int, latency: float) -> None:
        key = (src, dst)
        self._edge_total[key] = self._edge_total.get(key, 0.0) + latency
        self._edge_count[key] = self._edge_count.get(key, 0) + 1

    def bulk_record(self, node_total: list[float], node_count: int,
                    edge_total: dict[tuple[int, int], float],
                    edge_count: dict[tuple[int, int], int]) -> None:
        """Fold pre-accumulated sums from a batched run.

        ``node_total`` is indexed by node id; every node completed
        ``node_count`` times (the engine records one completion per node per
        iteration).  Edge dicts carry the summed transfer latencies and
        event counts keyed ``(src, dst)``.

        The fold is purely additive, so it mixes with per-event records —
        the batched executor folds its vectorized sums here, while an
        iteration the interpreter steps records its own events.  Every
        engine timing quantity is an integer-valued float64, so the split
        sums equal the interpreter's event-order sums bit for bit.
        """
        if node_count:
            for node_id, total in enumerate(node_total):
                self._node_total[node_id] = (
                    self._node_total.get(node_id, 0.0) + total)
                self._node_count[node_id] = (
                    self._node_count.get(node_id, 0) + node_count)
        for key, total in edge_total.items():
            self._edge_total[key] = self._edge_total.get(key, 0.0) + total
        for key, count in edge_count.items():
            self._edge_count[key] = self._edge_count.get(key, 0) + count

    def node_latency(self, node_id: int) -> float:
        """Average measured L_i for a node (0 if never executed)."""
        count = self._node_count.get(node_id, 0)
        return self._node_total[node_id] / count if count else 0.0

    def edge_latency(self, src: int, dst: int) -> float:
        """Average measured transfer latency for an edge (0 if unseen)."""
        count = self._edge_count.get((src, dst), 0)
        return self._edge_total[(src, dst)] / count if count else 0.0
