"""OpenCGRA-style compiler baseline: iterative modulo scheduling.

The paper compares MESA's spatially mapped SDFG against "a similarly
configured CGRA with OpenCGRA" (Fig. 12), noting that OpenCGRA performs
classical *time-scheduled* CGRA compilation: PEs are time-multiplexed with a
modulo reservation table, and the achieved initiation interval (II)
determines per-iteration IPC.  "In terms of purely scheduling the operation,
MESA falls slightly behind in most benchmarks ... compiler methods are more
complex and expected to generate a better configuration."

This module implements that comparator: a textbook iterative modulo
scheduler (Rau's IMS, as used by CGRA compilers) over the same LDFG MESA
sees.  Unlike MESA's single-pass hardware algorithm it time-shares PEs,
searches all slots, and retries at increasing II until the schedule fits —
exactly the extra freedom a software compiler has.

The CGRA is "similarly configured" (Fig. 12): it has the PE grid and the
memory ports of the MESA backend it is compared with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..accel import AcceleratorConfig, OperandKind
from ..core.ldfg import Ldfg, LdfgEntry
from ..latency import OP_LATENCY

__all__ = ["CgraSchedule", "OpenCgraScheduler", "ScheduleError"]

#: Average inter-PE transfer latency assumed by the scheduler.
TRANSFER_LATENCY = 1
#: Give up beyond this initiation interval.
MAX_II = 256


class ScheduleError(RuntimeError):
    """The kernel cannot be scheduled on this CGRA."""


@dataclass
class CgraSchedule:
    """A modulo schedule: node -> (pe index, start time)."""

    ii: int
    slots: dict[int, tuple[int, int]]
    schedule_length: int
    nodes: int

    @property
    def ipc(self) -> float:
        """Per-iteration IPC in steady state (the Fig. 12 metric)."""
        return self.nodes / self.ii if self.ii else 0.0

    @property
    def cycles_per_iteration(self) -> float:
        return float(self.ii)


class OpenCgraScheduler:
    """Iterative modulo scheduling of an LDFG onto a time-multiplexed CGRA
    with the grid and memory ports of ``config``."""

    def __init__(self, config: AcceleratorConfig) -> None:
        self.num_pes = config.num_pes
        self.memory_ports = config.memory_ports

    # -- public API ------------------------------------------------------------

    def schedule(self, ldfg: Ldfg) -> CgraSchedule:
        """Compute a modulo schedule; raises ScheduleError if impossible."""
        entries = [e for e in ldfg.entries if not e.eliminated]
        if not entries:
            raise ScheduleError("empty kernel")
        mii = max(self._res_mii(entries), self._rec_mii(ldfg, entries), 1)
        for ii in range(mii, MAX_II + 1):
            slots = self._try_schedule(ldfg, entries, ii)
            if slots is not None:
                length = max(t for _, t in slots.values()) + 1
                return CgraSchedule(ii=ii, slots=slots,
                                    schedule_length=length,
                                    nodes=len(entries))
        raise ScheduleError(
            f"no schedule found up to II={MAX_II}")

    # -- MII bounds ------------------------------------------------------------

    def _res_mii(self, entries: list[LdfgEntry]) -> int:
        compute = sum(1 for e in entries if not e.instruction.is_memory)
        memory = len(entries) - compute
        return max(math.ceil(compute / self.num_pes),
                   math.ceil(memory / self.memory_ports))

    def _op_latency(self, entry: LdfgEntry) -> int:
        if entry.instruction.is_memory:
            return max(1, round(entry.op_latency))
        return OP_LATENCY.get(entry.instruction.op_class, 1)

    def _rec_mii(self, ldfg: Ldfg, entries: list[LdfgEntry]) -> int:
        """Longest loop-carried cycle latency (dependence distance 1)."""
        best = 1
        index = {e.node_id: e for e in entries}
        for entry in entries:
            for ref in (entry.s1, entry.s2):
                if (ref.kind is OperandKind.LOOP_CARRIED
                        and ref.node_id in index):
                    path = self._longest_path(entries, entry.node_id,
                                              ref.node_id)
                    if path is not None:
                        best = max(best, math.ceil(path))
        return best

    def _longest_path(self, entries: list[LdfgEntry], src: int,
                      dst: int) -> float | None:
        if src > dst:
            return None
        by_id = {e.node_id: e for e in entries}
        dist: dict[int, float] = {}
        if src in by_id:
            dist[src] = self._op_latency(by_id[src])
        for entry in entries:
            if not src < entry.node_id <= dst:
                continue
            best: float | None = None
            for ref in (entry.s1, entry.s2):
                if ref.kind is OperandKind.NODE and ref.node_id in dist:
                    arrival = dist[ref.node_id] + TRANSFER_LATENCY
                    best = arrival if best is None else max(best, arrival)
            if best is not None:
                dist[entry.node_id] = best + self._op_latency(entry)
        return dist.get(dst)

    # -- the scheduler ----------------------------------------------------------

    def _try_schedule(self, ldfg: Ldfg, entries: list[LdfgEntry],
                      ii: int) -> dict[int, tuple[int, int]] | None:
        """Attempt one II: list-schedule with a modulo reservation table."""
        # MRT: per (resource, time mod II) occupancy.  PEs are resources
        # 0..num_pes-1; memory ports are num_pes..num_pes+ports-1.
        mrt: dict[tuple[int, int], int] = {}
        slots: dict[int, tuple[int, int]] = {}
        horizon = ii * 8  # search window for start times

        for entry in entries:
            earliest = 0
            for ref in (entry.s1, entry.s2):
                if ref.kind is OperandKind.NODE and ref.node_id in slots:
                    _, producer_time = slots[ref.node_id]
                    producer = ldfg[ref.node_id]
                    earliest = max(
                        earliest,
                        producer_time + self._op_latency(producer)
                        + TRANSFER_LATENCY,
                    )
            placed = False
            is_memory = entry.instruction.is_memory
            resources = (range(self.num_pes, self.num_pes + self.memory_ports)
                         if is_memory else range(self.num_pes))
            for time in range(earliest, earliest + horizon):
                for resource in resources:
                    if (resource, time % ii) not in mrt:
                        mrt[(resource, time % ii)] = entry.node_id
                        slots[entry.node_id] = (resource, time)
                        placed = True
                        break
                if placed:
                    break
            if not placed:
                return None
        return slots
