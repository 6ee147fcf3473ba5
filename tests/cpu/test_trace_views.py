"""The trace's derived loop views equal a recount of its entries.

``Trace.pc_counts`` and ``Trace.back_edges`` replace rescans of the whole
stream (the loop-stream detector, the controller's warm-up estimate and
the harness's loop fraction read them), so each must equal a brute-force
pass over the entries a trace yields, and over its columns — on every
kernel's trace and on a hand-built one.
"""

from collections import Counter

import numpy as np
import pytest

from repro.cpu import LoopStreamDetector, Trace, TraceEntry, collect_trace
from repro.isa import Instruction, MachineState, Opcode, x
from repro.workloads import build_kernel, kernel_names


def trace_of(entries) -> Trace:
    """A trace whose iteration yields ``entries``: the columns are built
    the way the collector lays them out."""
    table: dict[Instruction, int] = {}
    index, address, taken = [], [], []
    for entry in entries:
        index.append(table.setdefault(entry.instruction, len(table)))
        address.append(-1 if entry.address is None else entry.address)
        taken.append(-1 if entry.taken is None else int(entry.taken))
    return Trace(tuple(table), np.array(index, np.int32),
                 np.array(address, np.int64), np.array(taken, np.int8),
                 MachineState())


def recount(trace):
    counts = Counter(entry.pc for entry in trace)
    back_edges = tuple(entry for entry in trace
                       if entry.instruction.is_control and entry.taken
                       and entry.instruction.imm < 0)
    return counts, back_edges


def recount_columns(trace):
    """The same recount from the columns, row by row."""
    table = trace.instructions
    counts = Counter(table[k].address for k in trace.index.tolist())
    back_edges = tuple(
        TraceEntry(table[k], None, True)
        for k, taken in zip(trace.index.tolist(), trace.taken.tolist())
        if table[k].is_control and taken == 1 and table[k].imm < 0)
    return counts, back_edges


def check_columns(trace):
    """Each row's columns agree with its static instruction."""
    table = trace.instructions
    assert trace.index.dtype == np.int32
    assert trace.address.dtype == np.int64
    assert trace.taken.dtype == np.int8
    assert len(trace.index) == len(trace.address) == len(trace.taken)
    is_memory = np.array([i.is_memory for i in table], bool)[trace.index]
    is_control = np.array([i.is_control for i in table], bool)[trace.index]
    assert ((trace.address >= 0) == is_memory).all()
    assert ((trace.taken >= 0) == is_control).all()
    assert (trace.taken <= 1).all()
    assert [(e.instruction, e.address, e.taken) for e in trace] == [
        trace[i] for i in range(len(trace))]


def observe_all(trace):
    """The detector fed every entry, the way ``scan`` used to."""
    detector = LoopStreamDetector()
    for entry in trace:
        detector.observe(entry)
    detector.finish()
    return sorted(detector.loops, key=lambda c: c.total_iterations,
                  reverse=True)


def loop_summary(loops):
    return [(loop.start_address, loop.end_address, loop.visits,
             loop.total_iterations) for loop in loops]


def check_views(trace):
    check_columns(trace)
    counts, back_edges = recount(trace)
    assert recount_columns(trace) == (counts, back_edges)
    assert trace.pc_counts == counts
    assert trace.back_edges == back_edges
    pcs = np.array([i.address for i in trace.instructions])[trace.index]
    for start in sorted(counts)[::7]:
        end = start + 24
        assert trace.executions(start, end) == sum(
            1 for entry in trace if start <= entry.pc <= end)
        assert trace.executions(start, end) == int(
            ((pcs >= start) & (pcs <= end)).sum())
    assert loop_summary(LoopStreamDetector().scan(trace)) \
        == loop_summary(observe_all(trace))


@pytest.mark.parametrize("name", kernel_names())
def test_kernel_trace_views_equal_a_recount(name):
    kernel = build_kernel(name, iterations=64)
    trace = collect_trace(kernel.program, kernel.state_factory())
    check_views(trace)
    assert trace.back_edges, "every kernel loops"


def test_hand_built_trace_gets_the_same_views():
    loop = [Instruction(0x100, Opcode.ADDI, rd=x(5), rs1=x(5), imm=-1),
            Instruction(0x104, Opcode.LW, rd=x(6), rs1=x(10)),
            Instruction(0x108, Opcode.BNE, rs1=x(5), rs2=x(0), imm=-8)]
    entries = []
    for trip in range(6):
        for instr in loop:
            taken = (trip < 5) if instr.is_control else None
            address = 0x2000 if instr.is_memory else None
            entries.append(TraceEntry(instr, address, taken))
    entries.append(TraceEntry(Instruction(0x10C, Opcode.JAL, rd=x(0),
                                          imm=-0x10C), taken=True))
    trace = trace_of(entries)
    check_views(trace)
    assert trace.pc_counts[0x104] == 6
    assert [entry.pc for entry in trace.back_edges] == [0x108] * 5 + [0x10C]
    assert trace.executions(0x100, 0x108) == 18
