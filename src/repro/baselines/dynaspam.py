"""DynaSpAM-style baseline: dynamic mapping onto a 1-D feed-forward fabric.

DynaSpAM (Liu et al., ISCA 2015) "introduces microarchitectural additions to
dynamically map program traces at runtime to a fixed feedforward CGRA on the
CPU" — the fabric lives *inside* the core pipeline, inherits the out-of-order
scheduler's issue order, and is restricted to a 1-D feed-forward topology
(paper Table 2: "1D FF", config latency "JIT (ns)").

Consequences modeled here, which drive Fig. 14's comparison:

* mapping is near-instant (nanoseconds) but the fabric has a small fixed
  capacity (lanes × depth);
* the trace is levelized by dependence depth (the OoO schedule); each level
  crosses one fabric stage, so per-iteration latency follows the dependence
  height plus memory time on the core's ports;
* no 2-D spatial tiling and no loop-level parallel optimizations — the
  fabric executes one iteration's trace at a time with modest pipelining;
* because it sits in the pipeline and leans on core speculation, it can
  accept loops with inner control that MESA must reject (SRAD, B+Tree).

The fabric's shape and costs are module constants; its memory ports are the
core's load/store ports.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..accel import OperandKind
from ..core.ldfg import Ldfg, LdfgEntry
from ..cpu import CpuConfig
from ..latency import OP_LATENCY

__all__ = ["DynaSpamMapping", "DynaSpamMapper", "DynaSpamError"]

#: Parallel functional units per stage, and feed-forward stages.
LANES = 4
DEPTH = 8
CAPACITY = LANES * DEPTH
#: Per-stage forwarding latency (the fabric is tightly bypassed).
STAGE_LATENCY = 1
#: Configuration cost in cycles — "JIT (ns)", i.e. tens of cycles.
CONFIG_CYCLES = 40
#: AMAT of the core's D-cache path, which a memory operation pays.
MEMORY_LATENCY = 4.0


class DynaSpamError(RuntimeError):
    """The trace does not fit the feed-forward fabric."""


@dataclass
class DynaSpamMapping:
    """A levelized trace mapped onto the fabric."""

    levels: list[list[int]]           # node ids per dependence level
    cycles_per_iteration: float
    initiation_interval: float
    nodes: int

    @property
    def ipc(self) -> float:
        return self.nodes / self.initiation_interval if self.initiation_interval else 0.0


class DynaSpamMapper:
    """Levelize and map one loop iteration's trace onto the fabric of
    the core ``cpu``, whose memory ports the fabric shares."""

    def __init__(self, cpu: CpuConfig) -> None:
        self.memory_ports = cpu.load_store_ports

    def map(self, ldfg: Ldfg) -> DynaSpamMapping:
        """Map the loop body; raises DynaSpamError when it does not fit."""
        entries = [e for e in ldfg.entries if not e.eliminated]
        if len(entries) > CAPACITY:
            raise DynaSpamError(
                f"{len(entries)} operations exceed fabric capacity "
                f"{CAPACITY}"
            )
        levels = self._levelize(entries)
        if len(levels) > DEPTH:
            raise DynaSpamError(
                f"dependence height {len(levels)} exceeds fabric depth "
                f"{DEPTH}"
            )

        cycles = self._iteration_cycles(ldfg, levels)
        ii = self._initiation_interval(entries, cycles)
        return DynaSpamMapping(
            levels=levels,
            cycles_per_iteration=cycles,
            initiation_interval=ii,
            nodes=len(entries),
        )

    def _levelize(self, entries: list[LdfgEntry]) -> list[list[int]]:
        """ASAP levelization by same-iteration dependence depth, respecting
        the per-level lane limit (excess spills to the next stage)."""
        level_of: dict[int, int] = {}
        levels: list[list[int]] = []
        fill: dict[int, int] = {}
        for entry in entries:
            depth = 0
            for ref in (entry.s1, entry.s2):
                if ref.kind is OperandKind.NODE and ref.node_id in level_of:
                    depth = max(depth, level_of[ref.node_id] + 1)
            while fill.get(depth, 0) >= LANES:
                depth += 1
            level_of[entry.node_id] = depth
            fill[depth] = fill.get(depth, 0) + 1
            while len(levels) <= depth:
                levels.append([])
            levels[depth].append(entry.node_id)
        return levels

    def _op_latency(self, entry: LdfgEntry) -> float:
        if entry.instruction.is_memory:
            return MEMORY_LATENCY
        return float(OP_LATENCY.get(entry.instruction.op_class, 1))

    def _iteration_cycles(self, ldfg: Ldfg, levels) -> float:
        """Critical path through the levelized fabric (ops + stage hops)."""
        completion: dict[int, float] = {}
        for level in levels:
            for node_id in level:
                entry = ldfg[node_id]
                ready = 0.0
                for ref in (entry.s1, entry.s2):
                    if ref.kind is OperandKind.NODE and ref.node_id in completion:
                        ready = max(ready, completion[ref.node_id]
                                    + STAGE_LATENCY)
                completion[node_id] = ready + self._op_latency(entry)
        return max(completion.values(), default=0.0)

    #: How deeply consecutive iterations overlap in the fabric.  DynaSpAM
    #: executes mapped traces out of the core's instruction window, so
    #: overlap is bounded by the window, not by full modulo pipelining —
    #: roughly two iterations in flight.
    _OVERLAP = 2.0

    def _initiation_interval(self, entries, critical_path: float) -> float:
        """Steady-state II: the fabric overlaps a couple of iterations but
        shares the core's memory ports, and loop-carried values recirculate
        through the register file."""
        memory = sum(1 for e in entries if e.instruction.is_memory)
        resource_ii = max(1.0, memory / self.memory_ports)
        depth_ii = critical_path / self._OVERLAP
        return max(resource_ii + 1.0, depth_ii)
