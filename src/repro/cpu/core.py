"""Cycle-approximate out-of-order core timing model.

This is the gem5-baseline substitute: a dependency- and structure-limited
scoreboard model of a BOOM-like quad-issue out-of-order core.  For every
dynamic instruction it computes fetch, issue, completion, and commit cycles
subject to:

* fetch bandwidth and branch-misprediction front-end restarts (static
  backward-taken/forward-not-taken prediction);
* register dataflow (an instruction issues when its youngest producer
  completes);
* issue width per cycle and functional-unit pool contention;
* reorder-buffer and load-store-queue occupancy;
* memory latency from the shared :class:`~repro.mem.MemoryHierarchy` with
  store→load forwarding inside the LSQ window.

The model is *trace-driven*: it consumes the dynamic stream produced by
:func:`repro.cpu.trace.collect_trace`, so wrong-path execution is approximated
by the misprediction penalty alone.  It reads the trace's index, address and
taken columns as lists and decodes each executed static instruction once per
run, so no per-entry object is built.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..isa import Instruction, OpClass, RegFile, Register
from ..latency import LatencyTable
from ..mem import MemoryHierarchy
from .config import CpuConfig
from .counters import PerfCounters
from .trace import Trace

__all__ = ["CoreResult", "OutOfOrderCore"]


@dataclass(frozen=True)
class CoreResult:
    """Outcome of running a trace through the core model."""

    cycles: int
    counters: PerfCounters

    @property
    def ipc(self) -> float:
        return self.counters.instructions / self.cycles if self.cycles else 0.0


# How an instruction's execution latency is found.
_FIXED, _LOAD, _STORE = 0, 1, 2


def _fu_pools(config: CpuConfig) -> dict[OpClass, tuple[list[int], int]]:
    """Fresh FU pools by operation class: (min-heap of the cycles at which
    each unit can next start an operation, the unit's issue interval).
    Classes served by one pool share its tuple."""
    lat = config.latencies
    fp = ([0] * config.fp_units, 1)
    # Divide and square root are unpipelined: the unit is busy for the
    # full latency.
    fp_div = ([0] * config.fp_units, lat.fp_div)
    mem = ([0] * config.load_store_ports, 1)
    branch = ([0] * config.branch_units, 1)
    return {
        OpClass.INT_ALU: ([0] * config.int_alu_units, 1),
        OpClass.INT_MUL: ([0] * config.int_mul_units, 1),
        OpClass.INT_DIV: ([0] * config.int_mul_units, lat.int_div),
        OpClass.FP_ADD: fp, OpClass.FP_MUL: fp,
        OpClass.FP_CMP: fp, OpClass.FP_CVT: fp,
        OpClass.FP_DIV: fp_div, OpClass.FP_SQRT: fp_div,
        OpClass.LOAD: mem, OpClass.STORE: mem,
        OpClass.BRANCH: branch, OpClass.JUMP: branch,
    }


def _predicts_taken(instr: Instruction) -> bool:
    """Static BTFN prediction: backward transfers taken, forward not-taken."""
    if instr.is_jump:
        return True
    return instr.imm < 0


def _slot(reg: Register | None) -> int:
    """Scoreboard slot of a register: x0-x31 at 0-31, f0-f31 at 32-63.

    x0 is never a source or a destination, so slot 0 also stands for
    "no register": it is never written and always reads 0.
    """
    if reg is None:
        return 0
    return reg.index + 32 if reg.file is RegFile.FP else reg.index


def _decode(instr: Instruction, pools: dict, lat: LatencyTable) -> tuple:
    """Everything the scoreboard needs from one static instruction.

    Returns ``(op_class, src1, src2, dest, fu_heap, fu_interval, kind,
    latency, is_memory, is_control, predicted_taken, pc)``.

    Raises:
        KeyError: for a class with no constant latency (system ops).
    """
    if instr.is_load:
        kind, latency = _LOAD, 0
    elif instr.is_store:
        kind, latency = _STORE, 0
    else:
        kind, latency = _FIXED, lat.for_class(instr.op_class)
    heap, interval = pools[instr.op_class]
    src1, src2 = ([_slot(reg) for reg in instr.sources] + [0, 0])[:2]
    return (instr.op_class, src1, src2, _slot(instr.destination), heap,
            interval, kind, latency, instr.is_memory, instr.is_control,
            instr.is_control and _predicts_taken(instr), instr.address)


class OutOfOrderCore:
    """Scoreboard-style timing model of one out-of-order core."""

    def __init__(self, config: CpuConfig | None = None,
                 hierarchy: MemoryHierarchy | None = None) -> None:
        self.config = config if config is not None else CpuConfig()
        self.hierarchy = (hierarchy if hierarchy is not None
                          else MemoryHierarchy(self.config.memory))

    def run(self, trace: Trace) -> CoreResult:
        """Model the trace's execution; returns cycles and counters.

        The loop reads the trace's columns as lists.  Each executed static
        instruction is decoded once per run (:func:`_decode`), before the
        loop, and the loop touches only locals.  Cycles are integers.
        Fetch and commit cycles never decrease, so each keeps only the
        count of its current cycle; issue is out of order and counts every
        cycle.  A control row without a direction (-1, only in a
        hand-built trace) never counts as a mispredict.
        """
        cfg = self.config
        lat = cfg.latencies
        access = self.hierarchy.access
        fetch_width, issue_width = cfg.fetch_width, cfg.issue_width
        commit_width, rob_size = cfg.commit_width, cfg.rob_size
        lsq_size, penalty = cfg.lsq_size, cfg.mispredict_penalty
        store_issue = lat.store_issue
        heapreplace = heapq.heapreplace
        pools = _fu_pools(cfg)
        # Decode every executed static index once, in first-execution
        # order (the order ``by_class`` keeps).
        table = trace.instructions
        static, first_row, counts = np.unique(
            trace.index, return_index=True, return_counts=True)
        order = np.argsort(first_row)
        first_seen = static[order].tolist()
        decoded: list = [None] * len(table)  # static index -> _decode(...)
        for k in first_seen:
            decoded[k] = _decode(table[k], pools, lat)
        reg_ready = [0] * 64              # register slot -> completion cycle
        issue_slots: dict[int, int] = {}  # cycle -> issues so far
        commits: list[int] = []           # commit cycle per instruction
        mem_commits: list[int] = []       # commit cycle per memory op
        stores: dict[int, tuple[int, int]] = {}  # address -> (store no, done)
        n = n_mem = n_stores = 0
        fetch_free = fetch_cycle = fetch_count = 0
        last_commit = commit_count = 0
        mispredicts = forwards = 0

        for k, address, taken in zip(trace.index.tolist(),
                                     trace.address.tolist(),
                                     trace.taken.tolist()):
            (_, src1, src2, dest, heap, interval, kind, latency,
             is_memory, is_control, predicted, pc) = decoded[k]

            # -- fetch: bandwidth-limited, restarted by mispredictions ------
            if fetch_free > fetch_cycle:
                fetch_cycle, fetch_count = fetch_free, 1
            elif fetch_count < fetch_width:
                fetch_count += 1
            else:
                fetch_cycle += 1
                fetch_count = 1
            fetch_free = fetch_cycle

            # -- dispatch: ROB and LSQ occupancy ----------------------------
            dispatch = fetch_cycle + 1
            if n >= rob_size and commits[n - rob_size] > dispatch:
                dispatch = commits[n - rob_size]
            if (is_memory and n_mem >= lsq_size
                    and mem_commits[n_mem - lsq_size] > dispatch):
                dispatch = mem_commits[n_mem - lsq_size]

            # -- issue: operands + issue width + FU pool --------------------
            issue = dispatch
            if reg_ready[src1] > issue:
                issue = reg_ready[src1]
            if reg_ready[src2] > issue:
                issue = reg_ready[src2]
            while issue_slots.get(issue, 0) >= issue_width:
                issue += 1
            if heap[0] > issue:
                issue = heap[0]
            heapreplace(heap, issue + interval)
            issue_slots[issue] = issue_slots.get(issue, 0) + 1

            # -- execute ------------------------------------------------------
            if kind == _FIXED:
                complete = issue + latency
            elif kind == _LOAD:
                # Forward from the youngest of the last lsq_size stores
                # whose 4 bytes overlap the load's.
                newest = done = -1
                if stores:
                    for other in range(address - 3, address + 4):
                        store = stores.get(other)
                        if store is not None and store[0] > newest:
                            newest, done = store
                if newest >= 0 and n_stores - newest <= lsq_size:
                    forwards += 1
                    complete = max(issue + store_issue, done)
                else:
                    complete = issue + access(address, pc)
            else:
                access(address, pc)
                complete = issue + store_issue
                stores[address] = (n_stores, complete)
                n_stores += 1

            # -- commit: in order, commit-width limited ----------------------
            if complete > last_commit:
                last_commit, commit_count = complete, 1
            elif commit_count < commit_width:
                commit_count += 1
            else:
                last_commit += 1
                commit_count = 1

            # -- bookkeeping --------------------------------------------------
            if dest:
                reg_ready[dest] = complete
            commits.append(last_commit)
            n += 1
            if is_memory:
                mem_commits.append(last_commit)
                n_mem += 1
            if is_control and taken != predicted and taken >= 0:
                mispredicts += 1
                if complete + penalty > fetch_free:
                    fetch_free = complete + penalty

        by_class: dict[OpClass, int] = {}
        for k, count in zip(first_seen, counts[order].tolist()):
            op_class = decoded[k][0]
            by_class[op_class] = by_class.get(op_class, 0) + count
        total_cycles = last_commit + 1 if n else 0
        counters = PerfCounters(cycles=total_cycles, instructions=n,
                                by_class=by_class,
                                branch_mispredicts=mispredicts,
                                load_forwards=forwards)
        return CoreResult(cycles=total_cycles, counters=counters)
