"""The out-of-order model equals a plain row-by-row loop, period skip and all.

:meth:`repro.cpu.OutOfOrderCore.run` resolves every memory row up front and
jumps over loop periods whose state repeats up to a cycle shift.  The oracle
here is the model as one plain loop over the trace: one
:meth:`MemoryHierarchy.access` per store and unforwarded load, and a dict of
the newest store per address for forwarding.  Cycles, every counter, both
caches' stats, DRAM accesses and the per-PC AMAT counters (in first-access
order) must equal the oracle's — on the Rodinia kernels, on hand-assembled
loops that pace, stream, mispredict, forward across the LSQ edge, overlap
unaligned and never converge, and on generated loops.
"""

from __future__ import annotations

import heapq
import os
import random

import pytest

import repro.cpu.core as core
from repro.cpu import CpuConfig, OutOfOrderCore, collect_trace
from repro.cpu.core import _fu_pools, _predicts_taken, _slot
from repro.isa import MachineState, assemble
from repro.latency import OP_LATENCY, STORE_ISSUE
from repro.mem import MemoryHierarchy
from repro.workloads import (
    GeneratorParams,
    build_kernel,
    generate_kernel,
    kernel_names,
)

#: Nightly CI exports REPRO_FUZZ_SCALE to multiply every example budget.
FUZZ_SCALE = int(os.environ.get("REPRO_FUZZ_SCALE", "1"))

#: Where hand-assembled loops keep their data (clear of the program).
DATA = 0x10000


def reference_run(trace, config: CpuConfig, hierarchy: MemoryHierarchy):
    """The model as one plain loop over the rows: ``(cycles, mispredicts,
    forwards, by_class)``."""
    fetch_width, issue_width = config.fetch_width, config.issue_width
    commit_width, rob_size = config.commit_width, config.rob_size
    lsq_size, penalty = config.lsq_size, config.mispredict_penalty
    pools = _fu_pools(config)
    reg_ready = [0] * 64
    issue_slots: dict[int, int] = {}
    commits: list[int] = []
    mem_commits: list[int] = []
    stores: dict[int, tuple[int, int]] = {}  # address -> (store no, done)
    n = n_mem = n_stores = 0
    fetch_free = fetch_cycle = fetch_count = 0
    last_commit = commit_count = 0
    mispredicts = forwards = 0
    by_class: dict = {}
    decoded = {}  # static index -> what the loop reads of it
    table = trace.instructions
    for k, address, taken in zip(trace.index.tolist(),
                                 trace.address.tolist(),
                                 trace.taken.tolist()):
        if k not in decoded:
            instr = table[k]
            decoded[k] = (
                instr.op_class, *pools[instr.op_class],
                *([_slot(r) for r in instr.sources] + [0, 0])[:2],
                _slot(instr.destination), instr.is_load, instr.is_store,
                instr.is_memory, instr.is_control and _predicts_taken(instr),
                instr.is_control, instr.address)
        (op_class, heap, interval, src1, src2, dest, is_load, is_store,
         is_memory, predicted, is_control, pc) = decoded[k]
        by_class[op_class] = by_class.get(op_class, 0) + 1

        if fetch_free > fetch_cycle:
            fetch_cycle, fetch_count = fetch_free, 1
        elif fetch_count < fetch_width:
            fetch_count += 1
        else:
            fetch_cycle += 1
            fetch_count = 1
        fetch_free = fetch_cycle

        issue = fetch_cycle + 1
        if n >= rob_size and commits[n - rob_size] > issue:
            issue = commits[n - rob_size]
        if (is_memory and n_mem >= lsq_size
                and mem_commits[n_mem - lsq_size] > issue):
            issue = mem_commits[n_mem - lsq_size]
        if reg_ready[src1] > issue:
            issue = reg_ready[src1]
        if reg_ready[src2] > issue:
            issue = reg_ready[src2]
        while issue_slots.get(issue, 0) >= issue_width:
            issue += 1
        if heap[0] > issue:
            issue = heap[0]
        heapq.heapreplace(heap, issue + interval)
        issue_slots[issue] = issue_slots.get(issue, 0) + 1

        if is_load:
            newest = done = -1
            for other in range(address - 3, address + 4):
                store = stores.get(other)
                if store is not None and store[0] > newest:
                    newest, done = store
            if newest >= 0 and n_stores - newest <= lsq_size:
                forwards += 1
                complete = max(issue + STORE_ISSUE, done)
            else:
                complete = issue + hierarchy.access(address, pc)
        elif is_store:
            hierarchy.access(address, pc)
            complete = issue + STORE_ISSUE
            stores[address] = (n_stores, complete)
            n_stores += 1
        else:
            complete = issue + OP_LATENCY[op_class]

        if complete > last_commit:
            last_commit, commit_count = complete, 1
        elif commit_count < commit_width:
            commit_count += 1
        else:
            last_commit += 1
            commit_count = 1

        if dest:
            reg_ready[dest] = complete
        commits.append(last_commit)
        n += 1
        if is_memory:
            mem_commits.append(last_commit)
            n_mem += 1
        if is_control and taken >= 0 and (taken == 1) != predicted:
            mispredicts += 1
            fetch_free = max(fetch_free, complete + penalty)
    return (last_commit + 1 if n else 0, mispredicts, forwards, by_class)


def outcome(result_or_reference, hierarchy: MemoryHierarchy) -> dict:
    if isinstance(result_or_reference, tuple):
        cycles, mispredicts, forwards, by_class = result_or_reference
        instructions = sum(by_class.values())
    else:
        counters = result_or_reference.counters
        assert counters.cycles == result_or_reference.cycles
        cycles = result_or_reference.cycles
        instructions = counters.instructions
        mispredicts, forwards = (counters.branch_mispredicts,
                                 counters.load_forwards)
        by_class = counters.by_class
    return {
        "cycles": cycles,
        "instructions": instructions,
        "by_class": list(by_class.items()),
        "mispredicts": mispredicts,
        "forwards": forwards,
        "l1": vars(hierarchy.l1.stats),
        "l2": vars(hierarchy.l2.stats),
        "dram": hierarchy.dram_accesses,
        "amat": [(pc, c.total_cycles, c.accesses)
                 for pc, c in hierarchy.amat_counters().items()],
    }


@pytest.fixture
def jumps(monkeypatch):
    """How many times the model jumped over periods."""
    calls = []
    jump = core._jump

    def counting(*args):
        calls.append(args[0])
        return jump(*args)

    monkeypatch.setattr(core, "_jump", counting)
    return calls


def assert_same(trace, config: CpuConfig | None = None) -> None:
    config = config if config is not None else CpuConfig()
    reference = MemoryHierarchy(config.memory)
    expected = outcome(reference_run(trace, config, reference), reference)
    hierarchy = MemoryHierarchy(config.memory)
    result = OutOfOrderCore(config, hierarchy).run(trace)
    assert outcome(result, hierarchy) == expected


# -- the Rodinia kernels ---------------------------------------------------------

@pytest.mark.parametrize("iterations", [384, 4096])
def test_kernels_equal_reference(iterations, jumps):
    for name in kernel_names():
        kernel = build_kernel(name, iterations=iterations, seed=1)
        assert_same(collect_trace(kernel.program, kernel.fresh_state()))
    assert jumps


def test_run_makes_no_per_access_hierarchy_call(monkeypatch):
    kernel = build_kernel("gaussian", iterations=384, seed=1)
    trace = collect_trace(kernel.program, kernel.fresh_state())
    reference = MemoryHierarchy()
    expected = outcome(reference_run(trace, CpuConfig(), reference),
                       reference)

    def refuse(*args, **kwargs):
        raise AssertionError("per-access MemoryHierarchy.access call")

    monkeypatch.setattr(MemoryHierarchy, "access", refuse)
    hierarchy = MemoryHierarchy()
    assert outcome(OutOfOrderCore(hierarchy=hierarchy).run(trace),
                   hierarchy) == expected


# -- hand-assembled loops --------------------------------------------------------

def loop_trace(body: str, trips: int, words: int = 0):
    """Trace of ``body`` run ``trips`` times, with a0 and a1 pointing at
    two arrays at DATA (``words`` words written to each)."""
    program = assemble(f"""
        li t0, {trips}
        li a0, {DATA}
        li a1, {DATA + 0x40000}
        loop:
        {body}
            addi t0, t0, -1
            bne t0, zero, loop
        addi s1, s1, 1
        """)
    state = MachineState(pc=program.base_address)
    if words:
        state.memory.store_words(DATA, list(range(words)))
        state.memory.store_words(DATA + 0x40000, list(range(words)))
    return collect_trace(program, state)


#: A compute body with no long chain: fetch width paces it.
FETCH_PACED = """
    addi t1, t1, 1
    addi t2, t2, 2
    xor t3, t1, t2
    addi t4, t4, 3
    add t5, t3, t4
    addi t6, t6, 1
"""

#: Loads a line apart: every load misses to DRAM.
STREAMING = """
    lw t1, 0(a0)
    lw t2, 0(a1)
    add t3, t1, t2
    sw t3, 4(a1)
    addi a0, a0, 64
    addi a1, a1, 64
"""

#: A forward branch taken every other iteration: BTFN mispredicts it.
MISPREDICTING = """
    andi t3, t0, 1
    beq t3, zero, skip
    addi t4, t4, 1
    skip:
    lw t1, 0(a0)
    add t5, t5, t1
    addi a0, a0, 4
"""

#: A byte and a half-word stored inside a word the next load reads.
UNALIGNED = """
    sb t0, 3(a1)
    sh t0, 5(a1)
    lw t1, 0(a1)
    lw t2, 4(a1)
    lw t3, 6(a1)
    add t4, t1, t2
    addi a1, a1, 4
"""

#: An unpipelined divide chain: with a deep ROB, fetch keeps running
#: ahead of commit for the whole loop, so no two periods' states match.
DIVIDE_CHAIN = """
    fdiv.s ft0, ft0, ft1
    addi t1, t1, 1
    addi t2, t2, 1
    addi t3, t3, 1
"""


@pytest.mark.parametrize("body", [FETCH_PACED, STREAMING, MISPREDICTING,
                                  UNALIGNED],
                         ids=["fetch-paced", "streaming", "mispredicting",
                              "unaligned"])
def test_loop_equals_reference_and_skips(body, jumps):
    assert_same(loop_trace(body, 3000, words=16384))
    assert jumps


@pytest.mark.parametrize("edge", [-1, 0, 1])
def test_forwarding_across_the_lsq_edge(edge, jumps):
    # One store per iteration; the load reads the word stored `distance`
    # stores back, counting this iteration's store.
    distance = CpuConfig().lsq_size + edge
    trace = loop_trace(f"""
        sw t0, 0(a1)
        lw t1, {-4 * (distance - 1)}(a1)
        add t2, t2, t1
        addi a1, a1, 4
        """, 3000, words=16384)
    assert_same(trace)
    assert jumps
    forwards = OutOfOrderCore().run(trace).counters.load_forwards
    assert (forwards > 0) == (edge <= 0)


def test_period_that_never_converges(jumps):
    config = CpuConfig(rob_size=8192, lsq_size=512)
    assert_same(loop_trace(DIVIDE_CHAIN, 1500), config)
    assert not jumps


@pytest.mark.parametrize("config", [
    CpuConfig(fetch_width=3, rob_size=64, lsq_size=16),
    CpuConfig(fetch_width=2, issue_width=2, commit_width=2, rob_size=32,
              lsq_size=8, load_store_ports=1),
], ids=["fetch3", "narrow"])
def test_other_widths_equal_reference(config):
    for body in (FETCH_PACED, STREAMING, MISPREDICTING, UNALIGNED):
        assert_same(loop_trace(body, 2000, words=16384), config)


# -- generated loops -------------------------------------------------------------

@pytest.mark.parametrize("draw", range(4 * FUZZ_SCALE))
def test_generated_loop_equals_reference(draw):
    rng = random.Random(draw)
    kernel = generate_kernel(GeneratorParams(
        loads=rng.randint(1, 4), compute_ops=rng.randint(2, 12),
        stores=rng.randint(1, 2), fp_fraction=rng.random(),
        iterations=rng.choice((64, 900, 2500)), seed=rng.randrange(1 << 30)))
    assert_same(collect_trace(kernel.program, kernel.state_factory()))
