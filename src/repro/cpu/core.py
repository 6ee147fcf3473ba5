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
by the misprediction penalty alone.  :meth:`OutOfOrderCore.run` works in
three steps, and each leaves every output bit-identical to a plain
row-by-row loop (``tests/cpu/test_ooo_fast_forward.py`` keeps one):

1. **Memory pre-pass** (:func:`_row_inputs`).  Which store a load forwards
   from depends only on trace order: the newest earlier store at one of the
   7 addresses its 4 bytes overlap, if it is among the last ``lsq_size``
   stores.  ``searchsorted`` over the stores sorted by ``(address, store
   number)`` finds it for every load at once.  One
   :meth:`~repro.mem.MemoryHierarchy.access_stream` call over the stores
   and the other loads, in row order, gives every latency; ``run`` makes
   no per-access hierarchy call.  Each row then carries two ints: its
   static index and misprediction flag as one code, and a latency (a
   negative forwarding distance for a forwarded load).
2. **Period search** (:func:`_periodic_runs`).  Iterations end at each
   taken instance of the most-taken backward branch.  One period of ``m``
   iterations is chosen per trace, and runs of at least
   :data:`_MIN_REPEATS` periods whose rows are equal are kept.
3. **Scoreboard loop with period skip.**  Inside a run, the model's state
   is taken at the starts of periods ``p``, ``p + 1`` and ``p + 2`` (``p =
   1, 2, 4, ...``) relative to a lower bound on every later dispatch
   (:func:`_snapshot`), and compared with the state one and two periods
   back.  Two states match when they are equal and either fetch is equal
   too, or fetch never bound an issue between them, never restarted, and
   fell further behind: a memory-bound loop's fetch cycle falls further
   behind its dispatches every period.  Once they match, every later
   period of the run repeats with the same cycle shift, so :func:`_jump`
   moves the state to the end of the run at once.

Only traces of at least :data:`_SKIP_MIN_ROWS` rows search for periods,
and only runs that could skip :data:`_SKIP_MIN_GAIN` rows take snapshots:
below that, the snapshots cost more than the rows they save.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from ..isa import Instruction, OpClass, RegFile, Register
from ..latency import OP_LATENCY, STORE_ISSUE
from ..mem import MemoryHierarchy
from .config import CpuConfig
from .counters import PerfCounters
from .trace import Trace

__all__ = ["CoreResult", "OutOfOrderCore"]

#: Rows below which a trace runs row by row, without a period search.
_SKIP_MIN_ROWS = 2048
#: Rows a run must be able to skip before it takes snapshots.
_SKIP_MIN_GAIN = 1024
#: Longest period searched, in loop iterations.
_MAX_PERIOD = 64
#: Fewest equal periods in a row that make a run.
_MIN_REPEATS = 4
#: The chosen period is the smallest whose repeat count is this share of
#: the best one's.
_PERIOD_SLACK = 0.95


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
    fp = ([0] * config.fp_units, 1)
    # Divide and square root are unpipelined: the unit is busy for the
    # full latency.
    fp_div = ([0] * config.fp_units, OP_LATENCY[OpClass.FP_DIV])
    mem = ([0] * config.load_store_ports, 1)
    branch = ([0] * config.branch_units, 1)
    return {
        OpClass.INT_ALU: ([0] * config.int_alu_units, 1),
        OpClass.INT_MUL: ([0] * config.int_mul_units, 1),
        OpClass.INT_DIV: ([0] * config.int_mul_units,
                           OP_LATENCY[OpClass.INT_DIV]),
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


def _decode(instr: Instruction, pools: dict) -> tuple[tuple, tuple]:
    """Everything the model needs from one static instruction.

    Returns the scoreboard loop's ``(src1, src2, dest, fu_heap,
    fu_interval, is_store, is_memory)`` and the pre-pass's ``(kind,
    latency, pc, mispredicted direction, is backward)``; the direction is
    2, which no row has, for an instruction that is not a control
    transfer.

    Raises:
        KeyError: for a class with no constant latency (system ops).
    """
    if instr.is_load:
        kind, latency = _LOAD, 0
    elif instr.is_store:
        kind, latency = _STORE, STORE_ISSUE
    else:
        kind, latency = _FIXED, OP_LATENCY[instr.op_class]
    heap, interval = pools[instr.op_class]
    src1, src2 = ([_slot(reg) for reg in instr.sources] + [0, 0])[:2]
    wrong = 1 - _predicts_taken(instr) if instr.is_control else 2
    return ((src1, src2, _slot(instr.destination), heap, interval,
             instr.is_store, instr.is_memory),
            (kind, latency, instr.address, wrong,
             instr.is_control and instr.imm < 0))


def _row_inputs(trace: Trace, statics: np.ndarray,
                hierarchy: MemoryHierarchy, lsq_size: int
                ) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Step 1: every row's scoreboard inputs, with every memory row resolved.

    ``statics`` holds :func:`_decode`'s pre-pass row per static index.
    Returns ``(codes, values, mispredicts, forwards)``: ``codes`` is ``2 *
    index + mispredicted``; ``values`` is the execution latency (the store
    issue latency for a store), except a forwarded load's negative
    distance, in stores, to its store.  The hierarchy sees the stores and
    the unforwarded loads in row order, as one
    :meth:`~repro.mem.MemoryHierarchy.access_stream`.
    """
    index, address = trace.index, trace.address
    kind, values, _, wrong, _ = statics[index].T.copy()
    pcs = statics[:, 2].tolist()
    mispredicted = trace.taken == wrong
    accessed = kind != _FIXED
    stores = np.flatnonzero(kind == _STORE)
    loads = np.flatnonzero(kind == _LOAD)
    forwards = 0
    if stores.size and loads.size:
        # Only loads with a store within 3 bytes can forward.
        store_address = address[stores]
        ordered = np.sort(store_address)
        load_address = address[loads]
        near = (np.searchsorted(ordered, load_address + 4)
                > np.searchsorted(ordered, load_address - 3))
        if near.any():
            loads, load_address = loads[near], load_address[near]
            # Keys sort the stores by (address rank, store number).  A
            # load asks, for each of the 7 addresses its bytes overlap,
            # for the key just below (that address's rank, stores before
            # the load): the newest older store at that address.
            unique = ordered[np.concatenate(
                ([True], ordered[1:] != ordered[:-1]))]
            span = stores.size + 1
            keys = np.sort(np.searchsorted(unique, store_address) * span
                           + np.arange(stores.size))
            before = np.searchsorted(stores, loads)
            targets = (load_address[:, None] + np.arange(-3, 4)).ravel()
            at = np.searchsorted(unique, targets)
            present = unique.take(at, mode="clip") == targets
            below = np.searchsorted(keys, at * span + before.repeat(7)) - 1
            key = keys[below]
            found = present & (below >= 0) & (key // span == at)
            newest = np.where(found, key % span, -1).reshape(-1, 7).max(1)
            distance = before - newest
            forwarding = (newest >= 0) & (distance <= lsq_size)
            values[loads[forwarding]] = -distance[forwarding]
            accessed[loads[forwarding]] = False
            forwards = int(np.count_nonzero(forwarding))
    accessed = np.flatnonzero(accessed)
    values[accessed] = hierarchy.access_stream(address[accessed],
                                               index[accessed], pcs)
    values[stores] = STORE_ISSUE
    codes = 2 * index.astype(np.int64) + mispredicted
    return codes, values, int(np.count_nonzero(mispredicted)), forwards


def _periodic_runs(codes: np.ndarray, values: np.ndarray,
                   backward: np.ndarray, fetch_width: int
                   ) -> list[tuple[int, int, int]]:
    """Step 2: the runs of equal periods, as ``(start row, period rows,
    repeats)``, in row order and disjoint.

    Iterations start just after each taken instance of the most-taken
    backward branch (``backward`` marks those rows per code).  The period
    is the smallest ``m <= _MAX_PERIOD`` iterations whose count of
    iterations equal to the one ``m`` later (over the iterations every
    shift can see) is within :data:`_PERIOD_SLACK` of the best ``m``'s.
    Iterations are compared by hash; each run is then checked row by row,
    so the result is exact.  A run's period is then widened to a multiple
    of ``fetch_width`` rows, so that fetch groups start at the same row of
    every period.
    """
    taken_back = backward[codes]
    if not taken_back.any():
        return []
    branch = np.bincount(codes[taken_back]).argmax()
    starts = np.flatnonzero(codes == branch) + 1
    iterations = starts.size - 1
    if iterations < _MIN_REPEATS:
        return []
    # An iteration's hash: the sum of its rows' keys, and the sum of its
    # rows' keys times their position in it, both from cumulative sums.
    key = ((codes << 24) + values).astype(np.uint64)
    sums = np.zeros((2, key.size + 1), np.uint64)
    np.cumsum(key, out=sums[0, 1:])
    np.cumsum(key * np.arange(key.size, dtype=np.uint64), out=sums[1, 1:])
    total = sums[0, starts[1:]] - sums[0, starts[:-1]]
    weighted = (sums[1, starts[1:]] - sums[1, starts[:-1]]
                - starts[:-1].astype(np.uint64) * total)
    hashes = total * np.uint64(0x9E3779B97F4A7C15) + weighted
    # Per shift m, how many of the first iterations equal the one m later.
    shifts = min(_MAX_PERIOD, iterations // _MIN_REPEATS)
    windows = np.lib.stride_tricks.sliding_window_view(hashes, shifts + 1)
    repeats = np.count_nonzero(windows[:, 1:] == windows[:, :1], axis=0)
    best = repeats.max()
    if not best:
        return []
    m = int(np.argmax(repeats >= _PERIOD_SLACK * best)) + 1
    equal = np.concatenate(([False], hashes[m:] == hashes[:-m], [False]))
    edges = np.flatnonzero(equal[1:] != equal[:-1]).tolist()
    runs: list[tuple[int, int, int]] = []
    end = 0
    for a, b in zip(edges[0::2], edges[1::2]):
        # Iterations a .. b + m - 1 each equal the one m later.
        start = int(starts[a])
        period = int(starts[a + m]) - start
        count = (b - a + m) // m
        if start < end:  # drop the periods that overlap the last run
            overlap = -(-(end - start) // period)
            start, count = start + overlap * period, count - overlap
        count = min(count, (codes.size - start) // period)
        if count < _MIN_REPEATS:
            continue
        # Exact check: each period's rows equal the next one's.
        stop = start + count * period
        same = ((codes[start:stop - period] == codes[start + period:stop])
                & (values[start:stop - period] == values[start + period:stop]))
        if not same.all():
            count = int(np.argmin(same)) // period + 1
        widen = fetch_width // math.gcd(period, fetch_width)
        period, count = period * widen, count // widen
        if count >= _MIN_REPEATS and (count - 2) * period >= _SKIP_MIN_GAIN:
            runs.append((start, period, count))
            end = start + count * period
    return runs


def _snapshot(reg_ready: list, heaps: list, issue_slots: dict,
              windows: tuple, last_commit: int, commit_count: int,
              fetch_count: int, low: int) -> tuple:
    """The scoreboard state relative to ``low``, a lower bound on every
    later dispatch: a cycle at or below ``low`` acts as ``low``.  Prunes
    the issue slots below ``low``, which nothing reads again."""
    for cycle in [cycle for cycle in issue_slots if cycle < low]:
        del issue_slots[cycle]

    def relative(cycles) -> tuple:
        return tuple([c - low if c > low else 0 for c in cycles])

    return (relative(reg_ready),
            tuple(tuple(sorted(relative(heap))) for heap in heaps),
            {cycle - low: n for cycle, n in issue_slots.items()},
            tuple(relative(cycles[-size:]) for cycles, size in windows),
            last_commit - low, commit_count, fetch_count)


def _jump(shift: int, reg_ready: list, heaps: list, issue_slots: dict,
          lists: tuple) -> None:
    """Move the state ``shift`` cycles on, in place.  Each of ``lists`` is
    ``(list, window)`` and keeps only its shifted last ``window`` cycles."""
    reg_ready[:] = [c + shift for c in reg_ready]
    for heap in heaps:
        heap[:] = [c + shift for c in heap]
    slots = {cycle + shift: n for cycle, n in issue_slots.items()}
    issue_slots.clear()
    issue_slots.update(slots)
    for cycles, window in lists:
        cycles[:] = [c + shift for c in cycles[-window:]]


class OutOfOrderCore:
    """Scoreboard-style timing model of one out-of-order core."""

    def __init__(self, config: CpuConfig | None = None,
                 hierarchy: MemoryHierarchy | None = None) -> None:
        self.config = config if config is not None else CpuConfig()
        self.hierarchy = (hierarchy if hierarchy is not None
                          else MemoryHierarchy(self.config.memory))

    def run(self, trace: Trace) -> CoreResult:
        """Model the trace's execution; returns cycles and counters.

        Each executed static instruction is decoded once per run, before
        the loop, and the loop touches only locals.  Cycles are integers.
        Fetch and commit cycles never decrease, so each keeps only the
        count of its current cycle; issue is out of order and counts every
        cycle.  The ROB, LSQ and store lists start with a window of zero
        cycles, which no dispatch waits for.  A control row without a
        direction (-1, only in a hand-built trace) never counts as a
        mispredict.
        """
        cfg = self.config
        fetch_width, issue_width = cfg.fetch_width, cfg.issue_width
        commit_width, rob_size = cfg.commit_width, cfg.rob_size
        lsq_size, penalty = cfg.lsq_size, cfg.mispredict_penalty
        store_issue = STORE_ISSUE
        heapreplace = heapq.heapreplace
        pools = _fu_pools(cfg)
        heaps = list({id(heap): heap for heap, _ in pools.values()}.values())
        # Decode every executed static index once, in first-execution
        # order (the order ``by_class`` keeps).
        instructions = trace.instructions
        static, first_row, counts = np.unique(
            trace.index, return_index=True, return_counts=True)
        order = np.argsort(first_row)
        first_seen = static[order].tolist()
        decoded: list = [None] * (2 * len(instructions))  # code -> entry
        statics = [(_FIXED, 0, 0, 2, False)] * len(instructions)
        for k in first_seen:
            entry, statics[k] = _decode(instructions[k], pools)
            decoded[2 * k] = entry + (False,)
            decoded[2 * k + 1] = entry + (True,)
        statics = np.array(statics, np.int64).reshape(-1, 5)
        codes, values, mispredicts, forwards = _row_inputs(
            trace, statics, self.hierarchy, lsq_size)
        n = len(codes)
        runs: list = []
        if n >= _SKIP_MIN_ROWS:
            # A backward transfer is predicted taken, so its taken rows
            # are the ones with an even code.
            backward = np.zeros(2 * len(instructions), bool)
            backward[0::2] = statics[:, 4]
            runs = _periodic_runs(codes, values, backward, fetch_width)

        reg_ready = [0] * 64              # register slot -> completion cycle
        issue_slots: dict[int, int] = {}  # cycle -> issues so far
        commits = [0] * rob_size          # commit cycle per instruction
        mem_commits = [0] * lsq_size      # commit cycle per memory op
        store_done = [0] * lsq_size       # completion cycle per store
        windows = ((commits, rob_size), (mem_commits, lsq_size),
                   (store_done, lsq_size))
        fetch_free = fetch_cycle = fetch_count = 0
        last_commit = commit_count = 0
        bound = False

        # Segments of rows between events: (end row, run, period number).
        # A run's events are the starts of periods p, p + 1 and p + 2 for
        # p = 1, 2, 4, ...: each is compared with the one or two periods
        # before, as some loops' state repeats only every other period.
        events: list[tuple[int, tuple | None, int]] = []
        for run in runs:
            start, period, count = run
            checks: set[int] = set()
            p = 1
            while p + 1 < count:
                checks.update(q for q in (p, p + 1, p + 2) if q < count)
                p *= 2
            events += [(start + q * period, run, q) for q in sorted(checks)]
        events.append((n, None, 0))
        position = 0
        jumped = None
        history: list[tuple] = []  # snapshots at consecutive periods
        for end, run, q in events:
            if end < position or (run is jumped and run is not None):
                continue
            for code, value in zip(codes[position:end].tolist(),
                                   values[position:end].tolist()):
                (src1, src2, dest, heap, interval, is_store, is_memory,
                 mispredicted) = decoded[code]

                # -- fetch: bandwidth-limited, restarted by mispredictions --
                if fetch_free > fetch_cycle:
                    fetch_cycle, fetch_count = fetch_free, 1
                elif fetch_count < fetch_width:
                    fetch_count += 1
                else:
                    fetch_cycle += 1
                    fetch_count = 1
                fetch_free = fetch_cycle

                # -- issue: ROB, LSQ, operands, fetch, width, FU pool -------
                issue = commits[-rob_size]
                if is_memory and mem_commits[-lsq_size] > issue:
                    issue = mem_commits[-lsq_size]
                if reg_ready[src1] > issue:
                    issue = reg_ready[src1]
                if reg_ready[src2] > issue:
                    issue = reg_ready[src2]
                if fetch_cycle >= issue:
                    issue = fetch_cycle + 1
                    bound = True
                used = issue_slots.get(issue, 0)
                while used >= issue_width:
                    issue += 1
                    used = issue_slots.get(issue, 0)
                if heap[0] > issue:
                    issue = heap[0]
                    used = issue_slots.get(issue, 0)
                heapreplace(heap, issue + interval)
                issue_slots[issue] = used + 1

                # -- execute: a negative value forwards from that store -----
                if value >= 0:
                    complete = issue + value
                    if is_store:
                        store_done.append(complete)
                else:
                    complete = issue + store_issue
                    if store_done[value] > complete:
                        complete = store_done[value]

                # -- commit: in order, commit-width limited -----------------
                if complete > last_commit:
                    last_commit, commit_count = complete, 1
                elif commit_count < commit_width:
                    commit_count += 1
                else:
                    last_commit += 1
                    commit_count = 1

                # -- bookkeeping ----------------------------------------------
                if dest:
                    reg_ready[dest] = complete
                commits.append(last_commit)
                if is_memory:
                    mem_commits.append(last_commit)
                if mispredicted and complete + penalty > fetch_free:
                    fetch_free = complete + penalty
            position = end
            if run is None:
                break

            # -- period boundary: compare with one and two periods back ----
            low = max(fetch_cycle + 1, commits[-rob_size])
            state = _snapshot(reg_ready, heaps, issue_slots, windows,
                              last_commit, commit_count, fetch_count, low)
            if not history or history[-1][:2] != (run, q - 1):
                history = []
            history.append((run, q, low, fetch_cycle, fetch_free, state,
                            bound))
            bound = False
            for back in (1, 2):
                if len(history) <= back or history[-1 - back][5] != state:
                    continue
                start, period, count = run
                low0, fetch0, free0 = history[-1 - back][2:5]
                shift, fetch_shift = low - low0, fetch_cycle - fetch0
                # The fetch state matches, or fetch never bound an issue,
                # never restarted and fell further behind: then it cannot
                # bind in a later period either.
                paced = (fetch_shift == shift
                         and fetch_free - fetch_cycle == free0 - fetch0)
                if paced or (fetch_free == fetch_cycle and free0 == fetch0
                             and fetch_shift <= shift
                             and not any(h[6] for h in history[-back:])
                             and not np.any(codes[end - back * period:end]
                                            & 1)):
                    skipped = (count - q) // back
                    _jump(skipped * shift, reg_ready, heaps, issue_slots,
                          windows)
                    last_commit += skipped * shift
                    fetch_cycle += skipped * fetch_shift
                    fetch_free += skipped * fetch_shift
                    position += skipped * back * period
                    jumped, history = run, []
                    break

        by_class: dict[OpClass, int] = {}
        for k, count in zip(first_seen, counts[order].tolist()):
            op_class = instructions[k].op_class
            by_class[op_class] = by_class.get(op_class, 0) + count
        total_cycles = last_commit + 1 if n else 0
        counters = PerfCounters(cycles=total_cycles, instructions=n,
                                by_class=by_class,
                                branch_mispredicts=mispredicts,
                                load_forwards=forwards)
        return CoreResult(cycles=total_cycles, counters=counters)
